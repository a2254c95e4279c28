#include "nerf/tensorf.hpp"

#include <algorithm>
#include <cmath>

#include "nerf/sh_encoding.hpp"
#include "nerf/trainer.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace asdr::nerf {

namespace {

/** Rank bound of the per-point plane/line scratch arrays. The
 *  constructor asserts the density rank against it; the appearance rank
 *  is bounded tighter by kMaxColorInput (3 * rank + SH <= 48). */
constexpr int kMaxComponents = 16;

float
softplus(float x)
{
    if (x > 20.0f)
        return x;
    return std::log1p(std::exp(x));
}

float
sigmoid(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

} // namespace

void
TensorfField::ParamTensor::init(size_t n, float scale, uint64_t &seed_state)
{
    value.resize(n);
    for (auto &p : value) {
        uint64_t r = splitmix64(seed_state);
        p = (float(r >> 40) / float(1 << 24) - 0.5f) * 2.0f * scale;
    }
}

void
TensorfField::ParamTensor::zeroGrad()
{
    std::fill(grad.begin(), grad.end(), 0.0f);
}

void
TensorfField::ParamTensor::adamStep(float lr, int t)
{
    if (grad.empty())
        return;
    if (m.empty()) {
        m.assign(value.size(), 0.0f);
        v.assign(value.size(), 0.0f);
    }
    const float beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
    float bc1 = 1.0f - std::pow(beta1, float(t));
    float bc2 = 1.0f - std::pow(beta2, float(t));
    for (size_t i = 0; i < value.size(); ++i) {
        float g = grad[i];
        if (g == 0.0f)
            continue;
        m[i] = beta1 * m[i] + (1.0f - beta1) * g;
        v[i] = beta2 * v[i] + (1.0f - beta2) * g * g;
        value[i] -= lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + eps);
    }
}

TensorfField::TensorfField(const TensorfConfig &cfg, uint64_t seed)
    : cfg_(cfg),
      color_mlp_({3 * cfg.appearance_components + kShCoeffs,
                  cfg.color_hidden, 3},
                 seed ^ 0x7E45ull)
{
    ASDR_ASSERT(cfg.resolution >= 4, "TensoRF resolution too small");
    ASDR_ASSERT(cfg.density_components <= kMaxComponents,
                "TensoRF density rank above kMaxComponents");
    ASDR_ASSERT(3 * cfg.appearance_components + kShCoeffs <= kMaxColorInput,
                "TensoRF color input wider than kMaxColorInput");
    uint64_t s = seed;
    size_t plane_n = size_t(cfg.resolution) * size_t(cfg.resolution);
    for (int o = 0; o < 3; ++o) {
        den_planes_[o].init(plane_n * size_t(cfg.density_components), 0.1f,
                            s);
        den_lines_[o].init(size_t(cfg.resolution) *
                               size_t(cfg.density_components),
                           0.1f, s);
        app_planes_[o].init(plane_n * size_t(cfg.appearance_components),
                            0.1f, s);
        app_lines_[o].init(size_t(cfg.resolution) *
                               size_t(cfg.appearance_components),
                           0.1f, s);
    }
}

void
TensorfField::orientationCoords(int o, const Vec3 &pos, float &u, float &v,
                                float &w)
{
    switch (o) {
      case 0: u = pos.x; v = pos.y; w = pos.z; break; // XY plane, Z line
      case 1: u = pos.x; v = pos.z; w = pos.y; break; // XZ plane, Y line
      default: u = pos.y; v = pos.z; w = pos.x; break; // YZ plane, X line
    }
}

void
TensorfField::readPlane(const ParamTensor &plane, int comps, float u,
                        float v, float *out) const
{
    const int res = cfg_.resolution;
    float su = std::clamp(u, 0.0f, 1.0f) * float(res - 1);
    float sv = std::clamp(v, 0.0f, 1.0f) * float(res - 1);
    int x0 = std::min(int(su), res - 2);
    int y0 = std::min(int(sv), res - 2);
    float fx = su - float(x0);
    float fy = sv - float(y0);
    const size_t plane_n = size_t(res) * size_t(res);
    for (int c = 0; c < comps; ++c) {
        const float *base = plane.value.data() + size_t(c) * plane_n;
        float v00 = base[size_t(y0) * res + x0];
        float v10 = base[size_t(y0) * res + x0 + 1];
        float v01 = base[size_t(y0 + 1) * res + x0];
        float v11 = base[size_t(y0 + 1) * res + x0 + 1];
        out[c] = lerp(lerp(v00, v10, fx), lerp(v01, v11, fx), fy);
    }
}

void
TensorfField::readLine(const ParamTensor &line, int comps, float w,
                       float *out) const
{
    const int res = cfg_.resolution;
    float sw = std::clamp(w, 0.0f, 1.0f) * float(res - 1);
    int z0 = std::min(int(sw), res - 2);
    float fz = sw - float(z0);
    for (int c = 0; c < comps; ++c) {
        const float *base = line.value.data() + size_t(c) * size_t(res);
        out[c] = lerp(base[z0], base[z0 + 1], fz);
    }
}

void
TensorfField::accumPlaneGrad(ParamTensor &plane, int comps, float u,
                             float v, const float *dout)
{
    if (plane.grad.empty())
        plane.grad.assign(plane.value.size(), 0.0f);
    const int res = cfg_.resolution;
    float su = std::clamp(u, 0.0f, 1.0f) * float(res - 1);
    float sv = std::clamp(v, 0.0f, 1.0f) * float(res - 1);
    int x0 = std::min(int(su), res - 2);
    int y0 = std::min(int(sv), res - 2);
    float fx = su - float(x0);
    float fy = sv - float(y0);
    const size_t plane_n = size_t(res) * size_t(res);
    for (int c = 0; c < comps; ++c) {
        float *base = plane.grad.data() + size_t(c) * plane_n;
        float d = dout[c];
        base[size_t(y0) * res + x0] += d * (1 - fx) * (1 - fy);
        base[size_t(y0) * res + x0 + 1] += d * fx * (1 - fy);
        base[size_t(y0 + 1) * res + x0] += d * (1 - fx) * fy;
        base[size_t(y0 + 1) * res + x0 + 1] += d * fx * fy;
    }
}

void
TensorfField::accumLineGrad(ParamTensor &line, int comps, float w,
                            const float *dout)
{
    if (line.grad.empty())
        line.grad.assign(line.value.size(), 0.0f);
    const int res = cfg_.resolution;
    float sw = std::clamp(w, 0.0f, 1.0f) * float(res - 1);
    int z0 = std::min(int(sw), res - 2);
    float fz = sw - float(z0);
    for (int c = 0; c < comps; ++c) {
        float *base = line.grad.data() + size_t(c) * size_t(res);
        base[z0] += dout[c] * (1 - fz);
        base[z0 + 1] += dout[c] * fz;
    }
}

DensityOutput
TensorfField::density(const Vec3 &pos) const
{
    const int C = cfg_.density_components;
    float pv[kMaxComponents], lv[kMaxComponents];
    float raw = 0.0f;
    for (int o = 0; o < 3; ++o) {
        float u, v, w;
        orientationCoords(o, pos, u, v, w);
        readPlane(den_planes_[o], C, u, v, pv);
        readLine(den_lines_[o], C, w, lv);
        for (int c = 0; c < C; ++c)
            raw += pv[c] * lv[c];
    }
    DensityOutput out;
    out.sigma = softplus(raw - 1.0f);
    out.geo[0] = raw;
    return out;
}

Vec3
TensorfField::color(const Vec3 &pos, const Vec3 &dir,
                    const DensityOutput &den) const
{
    (void)den;
    const int C = cfg_.appearance_components;
    float cin[kMaxColorInput];
    float pv[kMaxComponents], lv[kMaxComponents];
    for (int o = 0; o < 3; ++o) {
        float u, v, w;
        orientationCoords(o, pos, u, v, w);
        readPlane(app_planes_[o], C, u, v, pv);
        readLine(app_lines_[o], C, w, lv);
        for (int c = 0; c < C; ++c)
            cin[o * C + c] = pv[c] * lv[c];
    }
    shEncode(dir, cin + 3 * C);

    float logits[3];
    color_mlp_.forward(cin, logits);
    return {sigmoid(logits[0]), sigmoid(logits[1]), sigmoid(logits[2])};
}

void
TensorfField::colorBatch(const Vec3 *pos, const Vec3 &dir,
                         const DensityOutput *den, int count,
                         Vec3 *out) const
{
    (void)den;
    const int C = cfg_.appearance_components;
    const int ci = 3 * C + kShCoeffs;
    thread_local std::vector<float> cin, logits;
    cin.resize(size_t(ci) * size_t(count));
    logits.resize(3 * size_t(count));

    float sh[kShCoeffs];
    shEncode(dir, sh);
    float pv[kMaxComponents], lv[kMaxComponents];
    for (int p = 0; p < count; ++p) {
        float *row = cin.data() + size_t(p) * size_t(ci);
        for (int o = 0; o < 3; ++o) {
            float u, v, w;
            orientationCoords(o, pos[p], u, v, w);
            readPlane(app_planes_[o], C, u, v, pv);
            readLine(app_lines_[o], C, w, lv);
            for (int c = 0; c < C; ++c)
                row[o * C + c] = pv[c] * lv[c];
        }
        std::copy(sh, sh + kShCoeffs, row + 3 * C);
    }

    color_mlp_.forwardBatch(cin.data(), count, ci, logits.data(), 3);
    for (int p = 0; p < count; ++p) {
        const float *l = logits.data() + size_t(p) * 3;
        out[p] = {sigmoid(l[0]), sigmoid(l[1]), sigmoid(l[2])};
    }
}

void
TensorfField::traceLookups(const Vec3 &pos, LookupSink &sink) const
{
    // Table ids: 0-2 density planes, 3-5 density lines, 6-8 appearance
    // planes, 9-11 appearance lines. One lookup per texel (components
    // are channels of one entry).
    VertexLookup lookups[3 * 6 * 2];
    size_t n = 0;
    const int res = cfg_.resolution;
    for (int set = 0; set < 2; ++set) {
        for (int o = 0; o < 3; ++o) {
            float u, v, w;
            orientationCoords(o, pos, u, v, w);
            float su = std::clamp(u, 0.0f, 1.0f) * float(res - 1);
            float sv = std::clamp(v, 0.0f, 1.0f) * float(res - 1);
            float sw = std::clamp(w, 0.0f, 1.0f) * float(res - 1);
            int x0 = std::min(int(su), res - 2);
            int y0 = std::min(int(sv), res - 2);
            int z0 = std::min(int(sw), res - 2);
            uint16_t plane_table = uint16_t(set * 6 + o);
            uint16_t line_table = uint16_t(set * 6 + 3 + o);
            for (int i = 0; i < 4; ++i) {
                int x = x0 + (i & 1);
                int y = y0 + (i >> 1);
                lookups[n].level = plane_table;
                lookups[n].vertex = {x, y, 0};
                lookups[n].index = uint32_t(y) * uint32_t(res) + uint32_t(x);
                ++n;
            }
            for (int i = 0; i < 2; ++i) {
                lookups[n].level = line_table;
                lookups[n].vertex = {z0 + i, 0, 0};
                lookups[n].index = uint32_t(z0 + i);
                ++n;
            }
        }
    }
    sink.onPointLookups(lookups, n);
}

TableSchema
TensorfField::tableSchema() const
{
    TableSchema schema;
    schema.hash_table_entries = 0; // no hashed tables in TensoRF
    schema.features = cfg_.appearance_components;
    const int res = cfg_.resolution;
    auto add = [&](bool is_plane) {
        TableInfo info;
        info.dense = true;
        info.verts_per_axis = res;
        info.dims = is_plane ? 2 : 1;
        info.entries = is_plane ? uint32_t(res) * uint32_t(res)
                                : uint32_t(res);
        schema.tables.push_back(info);
    };
    for (int set = 0; set < 2; ++set) {
        for (int o = 0; o < 3; ++o) {
            (void)o;
            add(true);
        }
        for (int o = 0; o < 3; ++o) {
            (void)o;
            add(false);
        }
    }
    return schema;
}

FieldCosts
TensorfField::costs() const
{
    FieldCosts costs;
    const int Cd = cfg_.density_components;
    const int Ca = cfg_.appearance_components;
    // Bilinear plane read: 4 texels x comps x ~3 FLOPs + weights; line
    // read: 2 x comps x 2; product-sum per component.
    costs.encode_flops =
        3.0 * ((4.0 * Cd * 3 + 2.0 * Cd * 2 + 2.0 * Cd) +
               (4.0 * Ca * 3 + 2.0 * Ca * 2 + 2.0 * Ca)) + 24.0;
    costs.density_flops = 3.0 * Cd * 2.0 + 10.0; // rank reduction only
    costs.color_flops = 2.0 * color_mlp_.forwardMacs() + shEncodeFlops();
    costs.color_layers.push_back(
        {3 * Ca + kShCoeffs, cfg_.color_hidden.empty()
                                  ? 3
                                  : cfg_.color_hidden.front()});
    for (size_t i = 0; i + 1 < cfg_.color_hidden.size(); ++i)
        costs.color_layers.push_back(
            {cfg_.color_hidden[i], cfg_.color_hidden[i + 1]});
    if (!cfg_.color_hidden.empty())
        costs.color_layers.push_back({cfg_.color_hidden.back(), 3});
    costs.lookups_per_point = 36;
    return costs;
}

std::string
TensorfField::describe() const
{
    return "TensoRF(res=" + std::to_string(cfg_.resolution) +
           ",Rd=" + std::to_string(cfg_.density_components) +
           ",Ra=" + std::to_string(cfg_.appearance_components) + ")";
}

float
TensorfField::trainStep(const InstantNgpField::TrainSample &s)
{
    const int Cd = cfg_.density_components;
    const int Ca = cfg_.appearance_components;

    // ---- forward ----
    // Density plane/line values.
    float dpv[3][kMaxComponents], dlv[3][kMaxComponents];
    float raw = 0.0f;
    for (int o = 0; o < 3; ++o) {
        float u, v, w;
        orientationCoords(o, s.pos, u, v, w);
        readPlane(den_planes_[o], Cd, u, v, dpv[o]);
        readLine(den_lines_[o], Cd, w, dlv[o]);
        for (int c = 0; c < Cd; ++c)
            raw += dpv[o][c] * dlv[o][c];
    }
    float sigma = softplus(raw - 1.0f);

    float apv[3][kMaxComponents], alv[3][kMaxComponents];
    float cin[kMaxColorInput];
    for (int o = 0; o < 3; ++o) {
        float u, v, w;
        orientationCoords(o, s.pos, u, v, w);
        readPlane(app_planes_[o], Ca, u, v, apv[o]);
        readLine(app_lines_[o], Ca, w, alv[o]);
        for (int c = 0; c < Ca; ++c)
            cin[o * Ca + c] = apv[o][c] * alv[o][c];
    }
    shEncode(s.dir, cin + 3 * Ca);

    MlpWorkspace ws;
    float logits[3];
    color_mlp_.forward(cin, logits, ws);
    Vec3 c{sigmoid(logits[0]), sigmoid(logits[1]), sigmoid(logits[2])};

    // ---- loss (same shape as the NGP distillation loss) ----
    float dlog = std::log1p(sigma) - std::log1p(s.sigma_target);
    float occ = 1.0f - std::exp(-s.sigma_target * 0.05f);
    float cw = 0.02f + occ;
    Vec3 cdiff = c - s.color_target;
    float loss = dlog * dlog +
                 cw * (cdiff.x * cdiff.x + cdiff.y * cdiff.y +
                       cdiff.z * cdiff.z);

    // ---- backward ----
    float dlogits[3];
    dlogits[0] = cw * 2.0f * cdiff.x * c.x * (1.0f - c.x);
    dlogits[1] = cw * 2.0f * cdiff.y * c.y * (1.0f - c.y);
    dlogits[2] = cw * 2.0f * cdiff.z * c.z * (1.0f - c.z);

    float dcin[kMaxColorInput];
    color_mlp_.backward(ws, dlogits, dcin);

    float dbuf[kMaxComponents];
    for (int o = 0; o < 3; ++o) {
        float u, v, w;
        orientationCoords(o, s.pos, u, v, w);
        // d(feat)/d(plane) = line value; d(feat)/d(line) = plane value.
        for (int c2 = 0; c2 < Ca; ++c2)
            dbuf[c2] = dcin[o * Ca + c2] * alv[o][c2];
        accumPlaneGrad(app_planes_[o], Ca, u, v, dbuf);
        for (int c2 = 0; c2 < Ca; ++c2)
            dbuf[c2] = dcin[o * Ca + c2] * apv[o][c2];
        accumLineGrad(app_lines_[o], Ca, w, dbuf);
    }

    float draw = 2.0f * dlog / (1.0f + sigma) * sigmoid(raw - 1.0f);
    for (int o = 0; o < 3; ++o) {
        float u, v, w;
        orientationCoords(o, s.pos, u, v, w);
        for (int c2 = 0; c2 < Cd; ++c2)
            dbuf[c2] = draw * dlv[o][c2];
        accumPlaneGrad(den_planes_[o], Cd, u, v, dbuf);
        for (int c2 = 0; c2 < Cd; ++c2)
            dbuf[c2] = draw * dpv[o][c2];
        accumLineGrad(den_lines_[o], Cd, w, dbuf);
    }
    return loss;
}

void
TensorfField::zeroGrads()
{
    for (int o = 0; o < 3; ++o) {
        den_planes_[o].zeroGrad();
        den_lines_[o].zeroGrad();
        app_planes_[o].zeroGrad();
        app_lines_[o].zeroGrad();
    }
    color_mlp_.zeroGrad();
}

void
TensorfField::applyAdam(float lr)
{
    ++adam_t_;
    for (int o = 0; o < 3; ++o) {
        den_planes_[o].adamStep(lr, adam_t_);
        den_lines_[o].adamStep(lr, adam_t_);
        app_planes_[o].adamStep(lr, adam_t_);
        app_lines_[o].adamStep(lr, adam_t_);
    }
    color_mlp_.adamStep(lr);
}

TensorfTrainReport
fitTensorf(TensorfField &field, const scene::AnalyticScene &scene,
           int steps, int batch, float lr, uint64_t seed)
{
    Rng rng(seed, 0x7F2);
    TensorfTrainReport report;
    for (int step = 0; step < steps; ++step) {
        field.zeroGrads();
        double batch_loss = 0.0;
        for (int b = 0; b < batch; ++b) {
            auto s = drawSample(scene, rng, 0.6f);
            batch_loss += field.trainStep(s);
        }
        batch_loss /= double(batch);
        float step_lr = lr;
        if (step > steps * 2 / 3)
            step_lr *= 1.0f / 9.0f;
        else if (step > steps / 3)
            step_lr *= 1.0f / 3.0f;
        field.applyAdam(step_lr);
        if (step == steps - 1)
            report.final_loss = batch_loss;
    }
    return report;
}

} // namespace asdr::nerf

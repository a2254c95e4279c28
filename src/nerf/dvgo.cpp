#include "nerf/dvgo.hpp"

#include <algorithm>
#include <cmath>

#include "nerf/sh_encoding.hpp"
#include "nerf/trainer.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace asdr::nerf {

namespace {

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
DvgoField::DenseGrid::init(int res, int feats, float scale,
                           uint64_t &seed)
{
    resolution = res;
    features = feats;
    size_t verts = size_t(res + 1) * size_t(res + 1) * size_t(res + 1);
    value.resize(verts * size_t(feats));
    for (auto &p : value) {
        uint64_t r = splitmix64(seed);
        p = (float(r >> 40) / float(1 << 24) - 0.5f) * 2.0f * scale;
    }
}

void
DvgoField::DenseGrid::locate(const Vec3 &pos, Vec3i &voxel,
                             Vec3 &frac) const
{
    float res = float(resolution);
    float sx = std::clamp(pos.x, 0.0f, 1.0f) * res;
    float sy = std::clamp(pos.y, 0.0f, 1.0f) * res;
    float sz = std::clamp(pos.z, 0.0f, 1.0f) * res;
    int vx = std::min(int(sx), resolution - 1);
    int vy = std::min(int(sy), resolution - 1);
    int vz = std::min(int(sz), resolution - 1);
    voxel = {vx, vy, vz};
    frac = {sx - float(vx), sy - float(vy), sz - float(vz)};
}

void
DvgoField::DenseGrid::read(const Vec3 &pos, float *out) const
{
    Vec3i voxel;
    Vec3 frac;
    locate(pos, voxel, frac);
    float w[8];
    const uint32_t vpa = uint32_t(resolution + 1);
    float wx[2] = {1.0f - frac.x, frac.x};
    float wy[2] = {1.0f - frac.y, frac.y};
    float wz[2] = {1.0f - frac.z, frac.z};
    for (int f = 0; f < features; ++f)
        out[f] = 0.0f;
    for (int i = 0; i < 8; ++i) {
        w[i] = wx[i & 1] * wy[(i >> 1) & 1] * wz[(i >> 2) & 1];
        uint32_t idx =
            ((uint32_t(voxel.z + ((i >> 2) & 1)) * vpa +
              uint32_t(voxel.y + ((i >> 1) & 1))) *
             vpa) +
            uint32_t(voxel.x + (i & 1));
        const float *entry = value.data() + size_t(idx) * size_t(features);
        for (int f = 0; f < features; ++f)
            out[f] += w[i] * entry[f];
    }
}

void
DvgoField::DenseGrid::accumGrad(const Vec3 &pos, const float *dout)
{
    if (grad.empty())
        grad.assign(value.size(), 0.0f);
    Vec3i voxel;
    Vec3 frac;
    locate(pos, voxel, frac);
    const uint32_t vpa = uint32_t(resolution + 1);
    float wx[2] = {1.0f - frac.x, frac.x};
    float wy[2] = {1.0f - frac.y, frac.y};
    float wz[2] = {1.0f - frac.z, frac.z};
    for (int i = 0; i < 8; ++i) {
        float w = wx[i & 1] * wy[(i >> 1) & 1] * wz[(i >> 2) & 1];
        uint32_t idx =
            ((uint32_t(voxel.z + ((i >> 2) & 1)) * vpa +
              uint32_t(voxel.y + ((i >> 1) & 1))) *
             vpa) +
            uint32_t(voxel.x + (i & 1));
        float *entry = grad.data() + size_t(idx) * size_t(features);
        for (int f = 0; f < features; ++f)
            entry[f] += w * dout[f];
    }
}

void
DvgoField::DenseGrid::adamStep(float lr, int t)
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

void
DvgoField::DenseGrid::zeroGrad()
{
    std::fill(grad.begin(), grad.end(), 0.0f);
}

DvgoField::DvgoField(const DvgoConfig &cfg, uint64_t seed)
    : cfg_(cfg),
      color_mlp_({int(cfg.resolutions.size()) * cfg.features_per_level +
                      kShCoeffs,
                  cfg.color_hidden, 3},
                 seed ^ 0xD60ull)
{
    ASDR_ASSERT(!cfg.resolutions.empty(), "DVGO needs feature grids");
    ASDR_ASSERT(featureDim() + kShCoeffs <= kMaxColorInput,
                "DVGO color input wider than kMaxColorInput");
    uint64_t s = seed;
    feature_grids_.resize(cfg.resolutions.size());
    for (size_t l = 0; l < cfg.resolutions.size(); ++l)
        feature_grids_[l].init(cfg.resolutions[l], cfg.features_per_level,
                               0.1f, s);
    density_grid_.init(cfg.density_resolution, 1, 0.01f, s);
}

DensityOutput
DvgoField::density(const Vec3 &pos) const
{
    float raw = 0.0f;
    density_grid_.read(pos, &raw);
    DensityOutput out;
    out.sigma = softplus(raw - 1.0f);
    out.geo[0] = raw;
    return out;
}

Vec3
DvgoField::color(const Vec3 &pos, const Vec3 &dir,
                 const DensityOutput &den) const
{
    (void)den;
    float cin[kMaxColorInput];
    int offset = 0;
    for (const auto &grid : feature_grids_) {
        grid.read(pos, cin + offset);
        offset += grid.features;
    }
    shEncode(dir, cin + offset);
    float logits[3];
    color_mlp_.forward(cin, logits);
    return {sigmoid(logits[0]), sigmoid(logits[1]), sigmoid(logits[2])};
}

void
DvgoField::colorBatch(const Vec3 *pos, const Vec3 &dir,
                      const DensityOutput *den, int count, Vec3 *out) const
{
    (void)den;
    const int ci = featureDim() + kShCoeffs;
    thread_local std::vector<float> cin, logits;
    cin.resize(size_t(ci) * size_t(count));
    logits.resize(3 * size_t(count));

    float sh[kShCoeffs];
    shEncode(dir, sh);
    for (int p = 0; p < count; ++p) {
        float *row = cin.data() + size_t(p) * size_t(ci);
        int offset = 0;
        for (const auto &grid : feature_grids_) {
            grid.read(pos[p], row + offset);
            offset += grid.features;
        }
        std::copy(sh, sh + kShCoeffs, row + offset);
    }

    color_mlp_.forwardBatch(cin.data(), count, ci, logits.data(), 3);
    for (int p = 0; p < count; ++p) {
        const float *l = logits.data() + size_t(p) * 3;
        out[p] = {sigmoid(l[0]), sigmoid(l[1]), sigmoid(l[2])};
    }
}

void
DvgoField::traceLookups(const Vec3 &pos, LookupSink &sink) const
{
    // Tables: 0..L-1 feature grids, L = density grid; 8 vertex reads
    // each, exactly like a hash-grid level but with injective indexing.
    VertexLookup lookups[(8 + 1) * 8 * 4];
    size_t n = 0;
    auto emit = [&](const DenseGrid &grid, uint16_t table) {
        Vec3i voxel;
        Vec3 frac;
        grid.locate(pos, voxel, frac);
        const uint32_t vpa = uint32_t(grid.resolution + 1);
        for (int i = 0; i < 8; ++i) {
            Vec3i v{voxel.x + (i & 1), voxel.y + ((i >> 1) & 1),
                    voxel.z + ((i >> 2) & 1)};
            lookups[n].level = table;
            lookups[n].vertex = v;
            lookups[n].index =
                (uint32_t(v.z) * vpa + uint32_t(v.y)) * vpa +
                uint32_t(v.x);
            ++n;
        }
    };
    for (size_t l = 0; l < feature_grids_.size(); ++l)
        emit(feature_grids_[l], uint16_t(l));
    emit(density_grid_, uint16_t(feature_grids_.size()));
    sink.onPointLookups(lookups, n);
}

TableSchema
DvgoField::tableSchema() const
{
    TableSchema schema;
    schema.hash_table_entries = 0; // every table is dense
    schema.features = cfg_.features_per_level;
    auto add = [&](const DenseGrid &grid) {
        TableInfo info;
        info.dense = true;
        info.verts_per_axis = grid.resolution + 1;
        uint64_t verts = uint64_t(grid.resolution + 1);
        info.entries = uint32_t(verts * verts * verts);
        info.dims = 3;
        schema.tables.push_back(info);
    };
    for (const auto &grid : feature_grids_)
        add(grid);
    add(density_grid_);
    return schema;
}

FieldCosts
DvgoField::costs() const
{
    FieldCosts costs;
    const int F = cfg_.features_per_level;
    costs.encode_flops =
        double(feature_grids_.size()) * (12.0 + 8.0 * F * 2.0) +
        (12.0 + 8.0 * 2.0);
    costs.density_flops = 10.0; // direct grid read + activation
    costs.color_flops = 2.0 * color_mlp_.forwardMacs() + shEncodeFlops();
    costs.color_layers.push_back(
        {color_mlp_.inputDim(),
         cfg_.color_hidden.empty() ? 3 : cfg_.color_hidden.front()});
    for (size_t i = 0; i + 1 < cfg_.color_hidden.size(); ++i)
        costs.color_layers.push_back(
            {cfg_.color_hidden[i], cfg_.color_hidden[i + 1]});
    if (!cfg_.color_hidden.empty())
        costs.color_layers.push_back({cfg_.color_hidden.back(), 3});
    costs.lookups_per_point = int(feature_grids_.size() + 1) * 8;
    return costs;
}

std::string
DvgoField::describe() const
{
    return "DirectVoxGO(L=" + std::to_string(cfg_.resolutions.size()) +
           ",dens=" + std::to_string(cfg_.density_resolution) + "^3)";
}

float
DvgoField::trainStep(const InstantNgpField::TrainSample &s)
{
    // ---- forward ----
    float raw = 0.0f;
    density_grid_.read(s.pos, &raw);
    float sigma = softplus(raw - 1.0f);

    float cin[kMaxColorInput];
    int offset = 0;
    for (const auto &grid : feature_grids_) {
        grid.read(s.pos, cin + offset);
        offset += grid.features;
    }
    shEncode(s.dir, cin + offset);

    MlpWorkspace ws;
    float logits[3];
    color_mlp_.forward(cin, logits, ws);
    Vec3 c{sigmoid(logits[0]), sigmoid(logits[1]), sigmoid(logits[2])};

    // ---- loss (shared distillation shape) ----
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
    offset = 0;
    for (auto &grid : feature_grids_) {
        grid.accumGrad(s.pos, dcin + offset);
        offset += grid.features;
    }

    float draw = 2.0f * dlog / (1.0f + sigma) * sigmoid(raw - 1.0f);
    density_grid_.accumGrad(s.pos, &draw);
    return loss;
}

void
DvgoField::zeroGrads()
{
    for (auto &grid : feature_grids_)
        grid.zeroGrad();
    density_grid_.zeroGrad();
    color_mlp_.zeroGrad();
}

void
DvgoField::applyAdam(float lr)
{
    ++adam_t_;
    // Direct voxel grids take much larger steps than network weights
    // (their values are additive, not multiplicative) -- the same
    // split-learning-rate recipe DirectVoxGO itself uses.
    for (auto &grid : feature_grids_)
        grid.adamStep(lr * 2.0f, adam_t_);
    density_grid_.adamStep(lr * 10.0f, adam_t_);
    color_mlp_.adamStep(lr);
}

DvgoTrainReport
fitDvgo(DvgoField &field, const scene::AnalyticScene &scene, int steps,
        int batch, float lr, uint64_t seed)
{
    Rng rng(seed, 0xD1F);
    DvgoTrainReport report;
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

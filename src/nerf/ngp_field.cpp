#include "nerf/ngp_field.hpp"

#include <cmath>

#include "nerf/sh_encoding.hpp"
#include "util/logging.hpp"

namespace asdr::nerf {

namespace {

float
softplus(float x)
{
    // Numerically-stable softplus.
    if (x > 20.0f)
        return x;
    return std::log1p(std::exp(x));
}

float
sigmoid(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

/** Loss + output-side gradients of one distillation sample. */
struct SampleGrads
{
    float loss = 0.0f;
    float dlogits[3] = {};
    float dsigma_raw = 0.0f; ///< dL/d(raw density logit geo[0])
};

/**
 * The ONE place the distillation loss math lives -- trainStep and
 * trainBatch both call it, which is what keeps them bit-identical.
 * Density: squared error in log1p space keeps the wide sigma range
 * well-conditioned. Color: squared error weighted by target occupancy,
 * so the color network spends capacity where matter is.
 */
SampleGrads
sampleLossGrads(const InstantNgpField::TrainSample &s, float geo0,
                const float logits[3])
{
    const float sigma = InstantNgpField::sigmaActivation(geo0);
    const Vec3 c{sigmoid(logits[0]), sigmoid(logits[1]),
                 sigmoid(logits[2])};

    const float dlog = std::log1p(sigma) - std::log1p(s.sigma_target);
    const float occ = 1.0f - std::exp(-s.sigma_target * 0.05f);
    const float cw = 0.02f + occ;
    const Vec3 cdiff = c - s.color_target;

    SampleGrads g;
    g.loss = dlog * dlog + cw * (cdiff.x * cdiff.x + cdiff.y * cdiff.y +
                                 cdiff.z * cdiff.z);
    g.dlogits[0] = cw * 2.0f * cdiff.x * c.x * (1.0f - c.x);
    g.dlogits[1] = cw * 2.0f * cdiff.y * c.y * (1.0f - c.y);
    g.dlogits[2] = cw * 2.0f * cdiff.z * c.z * (1.0f - c.z);
    // dL/d(raw sigma): chain through log1p and softplus.
    const float dsigma = 2.0f * dlog / (1.0f + sigma);
    g.dsigma_raw = dsigma * sigmoid(geo0 - 1.0f);
    return g;
}

} // namespace

NgpModelConfig
NgpModelConfig::reference()
{
    NgpModelConfig cfg;
    cfg.grid.levels = 16;
    cfg.grid.log2_table_size = 19;
    cfg.grid.features_per_level = 2;
    cfg.grid.base_resolution = 16;
    cfg.grid.max_resolution = 512;
    cfg.density_hidden = {64};
    cfg.color_hidden = {128, 128, 128};
    return cfg;
}

NgpModelConfig
NgpModelConfig::fast()
{
    NgpModelConfig cfg;
    cfg.grid.levels = 16;
    cfg.grid.log2_table_size = 15;
    cfg.grid.features_per_level = 2;
    cfg.grid.base_resolution = 16;
    cfg.grid.max_resolution = 256;
    cfg.density_hidden = {48};
    cfg.color_hidden = {64, 64};
    return cfg;
}

InstantNgpField::InstantNgpField(const NgpModelConfig &cfg, uint64_t seed)
    : cfg_(cfg), grid_(cfg.grid, seed),
      density_mlp_({cfg.grid.levels * cfg.grid.features_per_level,
                    cfg.density_hidden, kGeoFeatures},
                   seed ^ 0xD57ull),
      color_mlp_({(kGeoFeatures - 1) + kShCoeffs, cfg.color_hidden, 3},
                 seed ^ 0xC010Bull)
{
}

float
InstantNgpField::sigmaActivation(float raw)
{
    return softplus(raw - 1.0f);
}

DensityOutput
InstantNgpField::density(const Vec3 &pos) const
{
    thread_local std::vector<float> feat;
    feat.resize(size_t(grid_.featureDim()));
    grid_.encode(pos, feat.data());

    DensityOutput out;
    density_mlp_.forward(feat.data(), out.geo.data());
    out.sigma = sigmaActivation(out.geo[0]);
    return out;
}

void
InstantNgpField::densityBatch(const Vec3 *pos, int count,
                              DensityOutput *out) const
{
    const int fd = grid_.featureDim();
    thread_local std::vector<float> feat, geo;
    feat.resize(size_t(fd) * size_t(count));
    geo.resize(size_t(kGeoFeatures) * size_t(count));

    EncodeReuseStats *stats =
        encode_stats_.load(std::memory_order_acquire);
    if (stats) {
        if (stats_thread_ == std::thread::id())
            stats_thread_ = std::this_thread::get_id();
        ASDR_ASSERT(stats_thread_ == std::this_thread::get_id(),
                    "reuse-stats hook requires a single-threaded render");
    }
    grid_.encodeBatch(pos, count, feat.data(), fd, stats);
    density_mlp_.forwardBatch(feat.data(), count, fd, geo.data(),
                              kGeoFeatures);

    for (int p = 0; p < count; ++p) {
        const float *g = geo.data() + size_t(p) * size_t(kGeoFeatures);
        std::copy(g, g + kGeoFeatures, out[p].geo.begin());
        out[p].sigma = sigmaActivation(g[0]);
    }
}

void
InstantNgpField::colorBatch(const Vec3 *pos, const Vec3 &dir,
                            const DensityOutput *den, int count,
                            Vec3 *out) const
{
    (void)pos;
    colorRows(&dir, 0, den, count, out);
}

void
InstantNgpField::colorBatchDirs(const Vec3 *pos, const Vec3 *dirs,
                                const DensityOutput *den, int count,
                                Vec3 *out) const
{
    (void)pos;
    colorRows(dirs, 1, den, count, out);
}

void
InstantNgpField::colorRows(const Vec3 *dirs, int dir_stride,
                           const DensityOutput *den, int count,
                           Vec3 *out) const
{
    constexpr int kColorIn = (kGeoFeatures - 1) + kShCoeffs;
    thread_local std::vector<float> cin, logits;
    cin.resize(size_t(kColorIn) * size_t(count));
    logits.resize(3 * size_t(count));

    // The SH encoding is computed once per run of bitwise-equal
    // directions and copied into every row of the run (bit-identical to
    // re-running shEncode per point).
    float sh[kShCoeffs];
    const Vec3 *sh_dir = nullptr;
    for (int p = 0; p < count; ++p) {
        const Vec3 *dir = dirs + size_t(p) * size_t(dir_stride);
        if (!sh_dir || !sameBits(*dir, *sh_dir)) {
            shEncode(*dir, sh);
            sh_dir = dir;
        }
        float *row = cin.data() + size_t(p) * size_t(kColorIn);
        for (int i = 0; i < kGeoFeatures - 1; ++i)
            row[i] = den[p].geo[size_t(i + 1)];
        std::copy(sh, sh + kShCoeffs, row + (kGeoFeatures - 1));
    }

    color_mlp_.forwardBatch(cin.data(), count, kColorIn, logits.data(), 3);
    for (int p = 0; p < count; ++p) {
        const float *l = logits.data() + size_t(p) * 3;
        out[p] = {sigmoid(l[0]), sigmoid(l[1]), sigmoid(l[2])};
    }
}

Vec3
InstantNgpField::color(const Vec3 &pos, const Vec3 &dir,
                       const DensityOutput &den) const
{
    (void)pos; // color depends on pos only through the geometry features
    float cin[(kGeoFeatures - 1) + kShCoeffs];
    for (int i = 0; i < kGeoFeatures - 1; ++i)
        cin[i] = den.geo[size_t(i + 1)];
    shEncode(dir, cin + (kGeoFeatures - 1));

    float logits[3];
    color_mlp_.forward(cin, logits);
    return {sigmoid(logits[0]), sigmoid(logits[1]), sigmoid(logits[2])};
}

void
InstantNgpField::traceLookups(const Vec3 &pos, LookupSink &sink) const
{
    const GridGeometry &geom = grid_.geometry();
    VertexLookup lookups[32 * 8];
    size_t n = 0;
    for (int l = 0; l < geom.levels(); ++l) {
        Vec3i voxel;
        Vec3 frac;
        geom.locate(l, pos, voxel, frac);
        Vec3i verts[8];
        GridGeometry::voxelVertices(voxel, verts);
        for (int i = 0; i < 8; ++i) {
            lookups[n].level = uint16_t(l);
            lookups[n].vertex = verts[i];
            lookups[n].index = geom.index(l, verts[i]);
            ++n;
        }
    }
    sink.onPointLookups(lookups, n);
}

TableSchema
InstantNgpField::tableSchema() const
{
    return schemaFromGeometry(grid_.geometry());
}

FieldCosts
InstantNgpField::costs() const
{
    FieldCosts costs;
    costs.encode_flops = grid_.encodeFlops();
    costs.density_flops = 2.0 * density_mlp_.forwardMacs();
    costs.color_flops = 2.0 * color_mlp_.forwardMacs() + shEncodeFlops();
    costs.lookups_per_point = grid_.geometry().levels() * 8;

    auto shapes = [](const Mlp &mlp) {
        std::vector<LayerShape> out;
        std::vector<int> dims;
        dims.push_back(mlp.config().input);
        for (int h : mlp.config().hidden)
            dims.push_back(h);
        dims.push_back(mlp.config().output);
        for (size_t i = 0; i + 1 < dims.size(); ++i)
            out.push_back({dims[i], dims[i + 1]});
        return out;
    };
    costs.density_layers = shapes(density_mlp_);
    costs.color_layers = shapes(color_mlp_);
    return costs;
}

std::string
InstantNgpField::describe() const
{
    return "InstantNGP(L=" + std::to_string(cfg_.grid.levels) +
           ",T=2^" + std::to_string(cfg_.grid.log2_table_size) + ")";
}

float
InstantNgpField::trainStep(const TrainSample &s)
{
    // ---- forward ----
    thread_local HashGrid::EncodeCache enc_cache;
    thread_local std::vector<float> feat;
    feat.resize(size_t(grid_.featureDim()));
    grid_.encode(s.pos, feat.data(), enc_cache);

    MlpWorkspace ws_density;
    float geo[kGeoFeatures];
    density_mlp_.forward(feat.data(), geo, ws_density);

    constexpr int kColorIn = (kGeoFeatures - 1) + kShCoeffs;
    float cin[kColorIn];
    for (int i = 0; i < kGeoFeatures - 1; ++i)
        cin[i] = geo[i + 1];
    shEncode(s.dir, cin + (kGeoFeatures - 1));

    MlpWorkspace ws_color;
    float logits[3];
    color_mlp_.forward(cin, logits, ws_color);

    // ---- loss + backward (shared math: sampleLossGrads) ----
    const SampleGrads g = sampleLossGrads(s, geo[0], logits);

    float dcin[kColorIn];
    color_mlp_.backward(ws_color, g.dlogits, dcin);

    float dgeo[kGeoFeatures];
    dgeo[0] = g.dsigma_raw;
    for (int i = 1; i < kGeoFeatures; ++i)
        dgeo[i] = dcin[i - 1];

    thread_local std::vector<float> dfeat;
    dfeat.resize(size_t(grid_.featureDim()));
    density_mlp_.backward(ws_density, dgeo, dfeat.data());
    grid_.backward(enc_cache, dfeat.data());

    return g.loss;
}

double
InstantNgpField::trainBatch(const TrainSample *samples, int count)
{
    constexpr int kColorIn = (kGeoFeatures - 1) + kShCoeffs;
    const int fd = grid_.featureDim();

    // ---- batched forward ----
    // Encoding stays per-sample (backward needs each sample's corner
    // indices/weights in its EncodeCache), writing rows of one feature
    // matrix; both MLPs then run the batched lane kernel over it.
    thread_local std::vector<HashGrid::EncodeCache> caches;
    thread_local std::vector<float> feat, geo, cin, logits;
    thread_local MlpBatchWorkspace ws_density, ws_color;
    if (int(caches.size()) < count)
        caches.resize(size_t(count));
    feat.resize(size_t(fd) * size_t(count));
    geo.resize(size_t(kGeoFeatures) * size_t(count));
    cin.resize(size_t(kColorIn) * size_t(count));
    logits.resize(3 * size_t(count));

    for (int p = 0; p < count; ++p)
        grid_.encode(samples[p].pos, feat.data() + size_t(p) * size_t(fd),
                     caches[size_t(p)]);
    density_mlp_.forwardBatch(feat.data(), count, fd, geo.data(),
                              kGeoFeatures, ws_density);
    for (int p = 0; p < count; ++p) {
        const float *g = geo.data() + size_t(p) * size_t(kGeoFeatures);
        float *row = cin.data() + size_t(p) * size_t(kColorIn);
        for (int i = 0; i < kGeoFeatures - 1; ++i)
            row[i] = g[i + 1];
        shEncode(samples[p].dir, row + (kGeoFeatures - 1));
    }
    color_mlp_.forwardBatch(cin.data(), count, kColorIn, logits.data(), 3,
                            ws_color);

    // ---- per-sample loss + backward, in sample order ----
    // Gradients accumulate in exactly trainStep()'s order, so the
    // resulting optimizer state is bit-identical to the scalar loop.
    double total_loss = 0.0;
    thread_local std::vector<float> dfeat;
    dfeat.resize(size_t(fd));
    for (int p = 0; p < count; ++p) {
        const float *gp = geo.data() + size_t(p) * size_t(kGeoFeatures);
        const SampleGrads g =
            sampleLossGrads(samples[p], gp[0],
                            logits.data() + size_t(p) * 3);
        total_loss += g.loss;

        float dcin[kColorIn];
        color_mlp_.backward(ws_color, p, g.dlogits, dcin);

        float dgeo[kGeoFeatures];
        dgeo[0] = g.dsigma_raw;
        for (int i = 1; i < kGeoFeatures; ++i)
            dgeo[i] = dcin[i - 1];

        density_mlp_.backward(ws_density, p, dgeo, dfeat.data());
        grid_.backward(caches[size_t(p)], dfeat.data());
    }
    return total_loss;
}

void
InstantNgpField::zeroGrads()
{
    grid_.zeroGrad();
    density_mlp_.zeroGrad();
    color_mlp_.zeroGrad();
}

void
InstantNgpField::applyAdam(float lr)
{
    grid_.adamStep(lr);
    density_mlp_.adamStep(lr);
    color_mlp_.adamStep(lr);
}

} // namespace asdr::nerf

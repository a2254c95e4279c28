/**
 * @file
 * google-benchmark microkernels for the hot paths of the library: hash
 * encoding (per point, and batched per ISA target), trilinear fusion,
 * MLP forward passes (reference shapes), volume compositing,
 * register-cache probes, address mapping, and the end-to-end per-ray
 * pipeline.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/renderer.hpp"
#include "nerf/hash_grid.hpp"
#include "nerf/mlp.hpp"
#include "nerf/ngp_field.hpp"
#include "nerf/procedural_field.hpp"
#include "nerf/sh_encoding.hpp"
#include "nerf/volume_render.hpp"
#include "scene/scene_library.hpp"
#include "sim/address_mapping.hpp"
#include "sim/register_cache.hpp"
#include "util/hashing.hpp"
#include "util/isa.hpp"
#include "util/rng.hpp"

using namespace asdr;

namespace {

nerf::HashGridConfig
benchGrid()
{
    nerf::HashGridConfig cfg;
    cfg.log2_table_size = 15;
    return cfg;
}

void
BM_HashGridEncode(benchmark::State &state)
{
    nerf::HashGrid grid(benchGrid());
    Rng rng(1);
    std::vector<float> out(size_t(grid.featureDim()));
    for (auto _ : state) {
        Vec3 pos = rng.nextVec3();
        grid.encode(pos, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashGridEncode);

/** The sample positions of a marched ray bundle, depth-major (every
 *  ray's sample d before any ray's sample d + 1), as the renderer's
 *  tile pass hands them to densityBatch: an 8x8 pixel tile at the
 *  center of a 64x64 Lego view, 128 samples per ray over the unit
 *  cube. */
const std::vector<Vec3> &
rayBundlePositions()
{
    static const std::vector<Vec3> positions = [] {
        constexpr int kSamples = 128;
        auto scene = scene::createScene("Lego");
        const nerf::Camera camera =
            nerf::cameraForScene(scene->info(), 64, 64);
        std::vector<nerf::Ray> rays;
        std::vector<float> t0, dt;
        for (int y = 28; y < 36; ++y)
            for (int x = 28; x < 36; ++x) {
                const nerf::Ray ray =
                    camera.ray(float(x) + 0.5f, float(y) + 0.5f);
                float a, b;
                if (!nerf::intersectUnitCube(ray, a, b))
                    continue;
                rays.push_back(ray);
                t0.push_back(a);
                dt.push_back((b - a) / float(kSamples));
            }
        std::vector<Vec3> pos;
        for (int d = 0; d < kSamples; ++d)
            for (size_t r = 0; r < rays.size(); ++r)
                pos.push_back(rays[r].origin +
                              rays[r].dir *
                                  (t0[r] + (float(d) + 0.5f) * dt[r]));
        return pos;
    }();
    return positions;
}

void
BM_HashGridEncodeBatch(benchmark::State &state)
{
    // The NgpModelConfig::fast() grid (16 levels, T = 2^15, F = 2) over
    // a marched ray bundle, encoded in batches of B points on the ISA
    // target of arg 0 (util/isa.hpp). `time_per_pt` is wall time per
    // encoded point.
    const auto target = isa::Target(state.range(0));
    if (!isa::runs(target)) {
        state.SkipWithError("ISA target not runnable on this host");
        return;
    }
    const isa::ScopedTarget pin(target);
    const nerf::HashGrid grid(nerf::NgpModelConfig::fast().grid, 1);
    const int fd = grid.featureDim();
    const int batch = int(state.range(1));
    const std::vector<Vec3> &pos = rayBundlePositions();
    const int total = int(pos.size());
    std::vector<float> out(size_t(batch) * size_t(fd));
    for (auto _ : state) {
        for (int p0 = 0; p0 < total; p0 += batch) {
            grid.encodeBatch(pos.data() + p0, std::min(batch, total - p0),
                             out.data(), fd);
            benchmark::DoNotOptimize(out.data());
            benchmark::ClobberMemory();
        }
    }
    state.SetLabel(isa::name(target));
    state.SetItemsProcessed(state.iterations() * total);
    state.counters["time_per_pt"] = benchmark::Counter(
        double(total), benchmark::Counter::kIsIterationInvariantRate |
                           benchmark::Counter::kInvert);
}
BENCHMARK(BM_HashGridEncodeBatch)
    ->ArgNames({"isa", "B"})
    ->ArgsProduct({{int(isa::Target::Default), int(isa::Target::X86_64_V3),
                    int(isa::Target::X86_64_V4)},
                   {16, 64, 512}});

void
BM_SpatialHash(benchmark::State &state)
{
    Rng rng(2);
    for (auto _ : state) {
        Vec3i v{int(rng.nextBounded(512)), int(rng.nextBounded(512)),
                int(rng.nextBounded(512))};
        benchmark::DoNotOptimize(spatialHash(v, 19));
    }
}
BENCHMARK(BM_SpatialHash);

void
BM_ShEncode(benchmark::State &state)
{
    Rng rng(3);
    float sh[nerf::kShCoeffs];
    for (auto _ : state) {
        nerf::shEncode(rng.nextDirection(), sh);
        benchmark::DoNotOptimize(sh);
    }
}
BENCHMARK(BM_ShEncode);

void
BM_MlpForward(benchmark::State &state)
{
    // arg 0 selects density (0) or color (1) reference shape.
    nerf::Mlp density({32, {64}, 16}, 1);
    nerf::Mlp color({31, {128, 128, 128}, 3}, 2);
    nerf::Mlp &mlp = state.range(0) == 0 ? density : color;
    std::vector<float> in(size_t(mlp.inputDim()), 0.3f);
    std::vector<float> out(size_t(mlp.outputDim()));
    for (auto _ : state) {
        mlp.forward(in.data(), out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MlpForward)->Arg(0)->Arg(1);

void
BM_MlpForwardBatch(benchmark::State &state)
{
    // The NgpModelConfig::fast() networks of the fitted fields on the
    // ISA target of arg 0 (util/isa.hpp): arg 1 selects density (0) or
    // color (1), arg 2 is the batch size B (32 is the Phase I density
    // batch, 48 about the Phase II mean). `time_per_pt` is wall time
    // per point of the batch.
    const auto target = isa::Target(state.range(0));
    if (!isa::runs(target)) {
        state.SkipWithError("ISA target not runnable on this host");
        return;
    }
    const isa::ScopedTarget pin(target);
    const nerf::NgpModelConfig fast = nerf::NgpModelConfig::fast();
    const int enc = fast.grid.levels * fast.grid.features_per_level;
    nerf::Mlp density({enc, fast.density_hidden, nerf::kGeoFeatures}, 1);
    nerf::Mlp color({(nerf::kGeoFeatures - 1) + nerf::kShCoeffs,
                     fast.color_hidden, 3},
                    2);
    const nerf::Mlp &mlp = state.range(1) == 0 ? density : color;
    const int batch = int(state.range(2));
    Rng rng(7);
    std::vector<float> in(size_t(batch) * size_t(mlp.inputDim()));
    for (auto &x : in)
        x = rng.nextGaussian();
    std::vector<float> out(size_t(batch) * size_t(mlp.outputDim()));
    for (auto _ : state) {
        mlp.forwardBatch(in.data(), batch, mlp.inputDim(), out.data(),
                         mlp.outputDim());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(isa::name(target));
    state.SetItemsProcessed(state.iterations() * batch);
    state.counters["time_per_pt"] = benchmark::Counter(
        double(batch), benchmark::Counter::kIsIterationInvariantRate |
                           benchmark::Counter::kInvert);
}
BENCHMARK(BM_MlpForwardBatch)
    ->ArgNames({"isa", "color", "B"})
    ->ArgsProduct({{int(isa::Target::Default), int(isa::Target::X86_64_V3),
                    int(isa::Target::X86_64_V4)},
                   {0, 1},
                   {4, 8, 16, 32, 48, 64, 256}});

void
BM_Composite(benchmark::State &state)
{
    const int n = int(state.range(0));
    std::vector<float> sigma(static_cast<size_t>(n));
    std::vector<Vec3> color(static_cast<size_t>(n));
    Rng rng(4);
    for (int i = 0; i < n; ++i) {
        sigma[size_t(i)] = rng.nextFloat() * 20.0f;
        color[size_t(i)] = rng.nextVec3();
    }
    for (auto _ : state) {
        auto result =
            nerf::composite(sigma.data(), color.data(), n, 0.01f);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_Composite)->Arg(64)->Arg(192);

void
BM_RegisterCacheProbe(benchmark::State &state)
{
    sim::RegisterCache cache(int(state.range(0)));
    Rng rng(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(rng.nextBounded(32)));
}
BENCHMARK(BM_RegisterCacheProbe)->Arg(2)->Arg(8)->Arg(16);

void
BM_AddressMap(benchmark::State &state)
{
    nerf::HashGridConfig cfg;
    cfg.log2_table_size = 19;
    nerf::TableSchema schema =
        nerf::schemaFromGeometry(nerf::GridGeometry(cfg));
    sim::AddressMapping mapping(schema, sim::AccelConfig::server());
    Rng rng(6);
    uint32_t requester = 0;
    for (auto _ : state) {
        nerf::VertexLookup lu;
        lu.level = uint16_t(rng.nextBounded(16));
        lu.vertex = {int(rng.nextBounded(64)), int(rng.nextBounded(64)),
                     int(rng.nextBounded(64))};
        lu.index = rng.nextU32() & ((1u << 19) - 1);
        benchmark::DoNotOptimize(mapping.map(lu, requester++));
    }
}
BENCHMARK(BM_AddressMap);

void
BM_RenderRay(benchmark::State &state)
{
    static auto scene = scene::createScene("Lego");
    static nerf::ProceduralField field(*scene,
                                       nerf::NgpModelConfig::reference());
    nerf::Camera camera = nerf::cameraForScene(scene->info(), 64, 64);
    core::RenderConfig cfg = core::RenderConfig::baseline(64, 64, 192);
    cfg.color_approx = state.range(0) > 1;
    cfg.approx_group = int(state.range(0));
    core::AsdrRenderer renderer(field, cfg);
    core::AsdrRenderer::RayWorkspace ws;
    core::WorkloadProfile profile;
    nerf::Ray ray = camera.ray(32.0f, 32.0f);
    for (auto _ : state) {
        auto result = renderer.renderRay(ray, 192, false, ws, profile,
                                         nullptr);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() * 192);
}
BENCHMARK(BM_RenderRay)->Arg(1)->Arg(2)->Arg(4);

} // namespace

BENCHMARK_MAIN();

/**
 * @file
 * Tests for the DirectVoxGO-style field (Table 5 / §8.1): dense-grid
 * reads, lookup structure, training, and ASDR pipeline compatibility.
 */

#include <gtest/gtest.h>

#include "core/renderer.hpp"
#include "image/metrics.hpp"
#include "nerf/dvgo.hpp"
#include "nerf/sh_encoding.hpp"
#include "scene/scene_library.hpp"
#include "sim/accelerator.hpp"
#include "util/rng.hpp"

using namespace asdr;
using namespace asdr::nerf;

namespace {

DvgoConfig
tinyDvgo()
{
    DvgoConfig cfg;
    cfg.resolutions = {8, 16};
    cfg.density_resolution = 16;
    cfg.color_hidden = {16};
    return cfg;
}

class CollectSink : public LookupSink
{
  public:
    std::vector<VertexLookup> lookups;
    void
    onPointLookups(const VertexLookup *lu, size_t count) override
    {
        lookups.assign(lu, lu + count);
    }
};

} // namespace

TEST(Dvgo, OutputsFiniteAndBounded)
{
    DvgoField field(tinyDvgo(), 1);
    Rng rng(2);
    for (int i = 0; i < 100; ++i) {
        Vec3 pos = rng.nextVec3();
        DensityOutput den = field.density(pos);
        EXPECT_TRUE(std::isfinite(den.sigma));
        EXPECT_GE(den.sigma, 0.0f);
        Vec3 c = field.color(pos, rng.nextDirection(), den);
        for (int ch = 0; ch < 3; ++ch) {
            EXPECT_GT(c[ch], 0.0f);
            EXPECT_LT(c[ch], 1.0f);
        }
    }
}

TEST(Dvgo, RejectsColorInputPastBound)
{
    // 16 grids x 2 features + 16 SH = kMaxColorInput fits; one more
    // grid would overrun the per-point color-input rows.
    DvgoConfig cfg = tinyDvgo();
    cfg.resolutions.assign(16, 4);
    ASSERT_EQ(cfg.features_per_level * 16 + kShCoeffs, kMaxColorInput);
    DvgoField widest(cfg, 3);
    EXPECT_TRUE(std::isfinite(
        widest.color({0.5f, 0.5f, 0.5f}, {0.0f, 0.0f, 1.0f}, {}).x));
    cfg.resolutions.push_back(4);
    EXPECT_DEATH({ DvgoField field(cfg, 3); }, "kMaxColorInput");
}

TEST(Dvgo, LookupStructureMatchesSchema)
{
    DvgoField field(tinyDvgo(), 3);
    CollectSink sink;
    field.traceLookups({0.3f, 0.6f, 0.2f}, sink);
    // 2 feature grids + 1 density grid, 8 vertices each.
    EXPECT_EQ(sink.lookups.size(), 24u);
    EXPECT_EQ(field.costs().lookups_per_point, 24);

    TableSchema schema = field.tableSchema();
    ASSERT_EQ(schema.tables.size(), 3u);
    for (const auto &t : schema.tables)
        EXPECT_TRUE(t.dense); // DVGO never hashes
    for (const auto &lu : sink.lookups)
        EXPECT_LT(lu.index, schema.tables[lu.level].entries);
}

TEST(Dvgo, DensityIsViewIndependent)
{
    DvgoField field(tinyDvgo(), 4);
    Vec3 pos{0.4f, 0.5f, 0.6f};
    EXPECT_FLOAT_EQ(field.density(pos).sigma, field.density(pos).sigma);
}

TEST(Dvgo, TrainStepConvergesOnPoint)
{
    DvgoField field(tinyDvgo(), 5);
    InstantNgpField::TrainSample s;
    s.pos = {0.5f, 0.4f, 0.6f};
    s.dir = {1, 0, 0};
    s.sigma_target = 25.0f;
    s.color_target = {0.2f, 0.7f, 0.4f};
    float first = 0.0f, last = 0.0f;
    for (int i = 0; i < 300; ++i) {
        field.zeroGrads();
        float loss = field.trainStep(s);
        field.applyAdam(1e-2f);
        if (i == 0)
            first = loss;
        last = loss;
    }
    EXPECT_LT(last, first * 0.1f);
}

TEST(Dvgo, FitReducesLoss)
{
    auto scene = scene::createScene("Mic");
    DvgoField field(tinyDvgo(), 6);
    auto report = fitDvgo(field, *scene, 400, 32, 8e-3f);
    EXPECT_TRUE(std::isfinite(report.final_loss));
    EXPECT_LT(report.final_loss, 1.2);
}

TEST(Dvgo, RendersThroughAsdrPipeline)
{
    // The full ASDR pipeline (AS + RA + ET) must run unchanged on a
    // DVGO field -- the generalization claim of §8.1.
    auto scene = scene::createScene("Mic");
    DvgoField field(tinyDvgo(), 7);
    fitDvgo(field, *scene, 200, 32, 8e-3f);

    nerf::Camera cam = nerf::cameraForScene(scene->info(), 24, 24);
    core::RenderConfig base = core::RenderConfig::baseline(24, 24, 64);
    core::RenderConfig asdr = core::RenderConfig::asdr(24, 24, 64);

    core::RenderStats sb, sa;
    Image ib = core::AsdrRenderer(field, base).render(cam, &sb);
    Image ia = core::AsdrRenderer(field, asdr).render(cam, &sa);
    EXPECT_LT(sa.profile.points, sb.profile.points);
    EXPECT_GT(psnr(ia, ib), 28.0);
}

TEST(Dvgo, SimulatorAcceptsDvgoSchema)
{
    auto scene = scene::createScene("Lego");
    DvgoField field(DvgoConfig{}, 8);
    nerf::Camera cam = nerf::cameraForScene(scene->info(), 12, 12);
    sim::AsdrAccelerator accel(field.tableSchema(), field.costs(),
                               sim::AccelConfig::server(), false);
    core::RenderConfig cfg = core::RenderConfig::baseline(12, 12, 32);
    core::AsdrRenderer(field, cfg).render(cam, nullptr, &accel);
    EXPECT_GT(accel.report().total_cycles, 0u);
    EXPECT_GT(accel.report().enc.lookups, 0u);
}

/**
 * @file
 * Coverage of the runtime ISA dispatch (util/isa.hpp): every dispatch
 * target of Mlp::forwardBatch and HashGrid::encodeBatch is called
 * explicitly and checked bitwise against the scalar reference, and a
 * canary proves that no build fuses a*b + c into an FMA (which would
 * make targets round differently).
 *
 * The other bit-exactness gatekeepers run only the best target of the
 * host; this is the one test that also runs the narrower targets on
 * AVX2 and AVX-512 hosts. A target the CPU cannot run is skipped with
 * the reason.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/renderer.hpp"
#include "nerf/hash_grid.hpp"
#include "nerf/mlp.hpp"
#include "nerf/ngp_field.hpp"
#include "scene/scene_library.hpp"
#include "util/isa.hpp"
#include "util/rng.hpp"

using namespace asdr;
using namespace asdr::core;
using namespace asdr::nerf;

namespace asdr::isa {
// Readable parameter values in gtest failure messages.
void
PrintTo(Target t, std::ostream *os)
{
    *os << name(t);
}
} // namespace asdr::isa

namespace {

std::vector<float>
gaussians(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (auto &x : v)
        x = rng.nextGaussian();
    return v;
}

/** Random positions plus boundary and out-of-cube ones (clamp path). */
std::vector<Vec3>
positions(int count, uint64_t seed)
{
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<Vec3> pos = {
        {0.0f, 0.0f, 0.0f},  {1.0f, 1.0f, 1.0f},       {-0.2f, 0.5f, 1.3f},
        {2.0f, -1.0f, 0.5f}, {-0.0f, 1e-7f, 0.999999f}, {inf, -inf, 1e30f},
    };
    Rng rng(seed);
    while (int(pos.size()) < count)
        pos.push_back({rng.nextRange(0.0f, 1.0f), rng.nextRange(0.0f, 1.0f),
                       rng.nextRange(0.0f, 1.0f)});
    return pos;
}

/** The bits of `v`: unlike ==, tells -0 from +0. */
uint32_t
bitsOf(float v)
{
    uint32_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Point counts that straddle every target's MLP lane blocks: 16 on
 *  default and x86-64-v3; 32 on x86-64-v4, whose last <= 16 points run
 *  one 16-lane block. */
const std::vector<int> kMlpCounts = {1,  15, 16, 17, 31, 32, 33,
                                     47, 48, 49, 63, 64, 65, 256};

/** Bitwise equality of `n` floats (tells -0 from +0, unlike ==). */
bool
sameBits(const float *a, const float *b, size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/** encodeBatch == per-point encode(), bitwise. */
void
expectEncodeMatchesScalar(const HashGrid &grid, int count)
{
    const int fd = grid.featureDim();
    const std::vector<Vec3> pos = positions(count, uint64_t(count));
    std::vector<float> batch(size_t(count) * size_t(fd));
    grid.encodeBatch(pos.data(), count, batch.data(), fd);
    std::vector<float> ref(static_cast<size_t>(fd));
    for (int p = 0; p < count; ++p) {
        grid.encode(pos[size_t(p)], ref.data());
        for (int f = 0; f < fd; ++f)
            ASSERT_EQ(bitsOf(batch[size_t(p) * size_t(fd) + size_t(f)]),
                      bitsOf(ref[size_t(f)]))
                << "count " << count << " point " << p << " feature " << f;
    }
}

void
expectEncodeMatchesScalar(const HashGridConfig &cfg, int count)
{
    expectEncodeMatchesScalar(HashGrid(cfg, 0xD15), count);
}

/** x = 1 + 2^-12, y = 1 + 2^-11: x*x - y is 0 when the product is
 *  rounded on its own and 2^-24 when fused into an FMA. */
constexpr float kCanaryX = 1.0f + 0x1p-12f;
constexpr float kCanaryY = 1.0f + 0x1p-11f;

class IsaDispatch : public ::testing::TestWithParam<isa::Target>
{
  protected:
    void
    SetUp() override
    {
        if (!isa::runs(GetParam()))
            GTEST_SKIP() << isa::name(GetParam())
                         << " not runnable here: the CPU lacks its ISA "
                            "level or the toolchain does not build it";
        pin_ = std::make_unique<isa::ScopedTarget>(GetParam());
    }

    void TearDown() override { pin_.reset(); }

  private:
    std::unique_ptr<isa::ScopedTarget> pin_;
};

} // namespace

TEST(IsaBest, IsTheWidestRunnableTarget)
{
    // Printed so a CI log shows which targets this runner exercises.
    std::cout << "best ISA target: " << isa::name(isa::best()) << "\n";
    EXPECT_TRUE(isa::runs(isa::best()));
    for (int t = int(isa::best()) + 1; t <= int(isa::Target::X86_64_V4); ++t)
        EXPECT_FALSE(isa::runs(isa::Target(t)))
            << isa::name(isa::Target(t)) << " runs but is not best()";
}

TEST_P(IsaDispatch, PinsTheActiveTarget)
{
    EXPECT_EQ(isa::active(), GetParam());
}

TEST_P(IsaDispatch, MlpForwardBatchMatchesScalar)
{
    // The second shape's widths are not multiples of the 4-row block,
    // so every layer also runs the one-row remainder path.
    const MlpConfig cases[] = {{32, {64, 64}, 16}, {31, {45, 7}, 3}};
    for (const MlpConfig &cfg : cases) {
        Mlp mlp(cfg, 7);
        const int in_dim = cfg.input, out_dim = cfg.output;
        for (int count : kMlpCounts) {
            const std::vector<float> in =
                gaussians(size_t(count) * size_t(in_dim), 8);
            std::vector<float> batch(size_t(count) * size_t(out_dim));
            mlp.forwardBatch(in.data(), count, in_dim, batch.data(),
                             out_dim);
            std::vector<float> ref(batch.size());
            for (int p = 0; p < count; ++p)
                mlp.forward(in.data() + size_t(p) * size_t(in_dim),
                            ref.data() + size_t(p) * size_t(out_dim));
            ASSERT_TRUE(sameBits(batch.data(), ref.data(), batch.size()))
                << "input " << in_dim << " count " << count;
        }
    }
}

TEST_P(IsaDispatch, MlpForwardBatchStridedOutput)
{
    Mlp mlp({8, {16}, 4}, 9);
    const int in_stride = 10, stride = 11;
    for (int count : kMlpCounts) {
        const std::vector<float> in =
            gaussians(size_t(count) * in_stride, 10);
        std::vector<float> out(size_t(count) * size_t(stride), -1.0f);
        mlp.forwardBatch(in.data(), count, in_stride, out.data(), stride);
        // The reference writes the same rows into a same-shaped buffer,
        // so one compare also proves the gaps were left alone.
        std::vector<float> ref(out.size(), -1.0f);
        for (int p = 0; p < count; ++p)
            mlp.forward(in.data() + size_t(p) * in_stride,
                        ref.data() + size_t(p) * size_t(stride));
        ASSERT_TRUE(sameBits(out.data(), ref.data(), out.size()))
            << "count " << count;
    }
}

TEST_P(IsaDispatch, MlpTrainingForwardBatchMatchesScalar)
{
    // As above: the second shape runs the one-row remainder path.
    const MlpConfig cases[] = {{12, {24, 20}, 5}, {31, {45, 7}, 3}};
    for (const MlpConfig &cfg : cases) {
        Mlp mlp(cfg, 11);
        const int in_dim = cfg.input, out_dim = cfg.output;
        for (int count : kMlpCounts) {
            const std::vector<float> in =
                gaussians(size_t(count) * size_t(in_dim), 12);
            std::vector<float> batch(size_t(count) * size_t(out_dim));
            MlpBatchWorkspace bws;
            mlp.forwardBatch(in.data(), count, in_dim, batch.data(),
                             out_dim, bws);
            ASSERT_EQ(bws.count, count);
            std::vector<float> ref(batch.size());
            for (int p = 0; p < count; ++p) {
                MlpWorkspace ws;
                mlp.forward(in.data() + size_t(p) * size_t(in_dim),
                            ref.data() + size_t(p) * size_t(out_dim), ws);
                // Every retained activation, so backward replays
                // exactly.
                for (size_t li = 1; li < ws.acts.size(); ++li) {
                    const size_t width = ws.acts[li].size();
                    ASSERT_TRUE(sameBits(bws.acts[li].data() +
                                             size_t(p) * width,
                                         ws.acts[li].data(), width))
                        << "input " << in_dim << " count " << count
                        << " point " << p << " layer " << li;
                }
            }
            ASSERT_TRUE(sameBits(batch.data(), ref.data(), batch.size()))
                << "input " << in_dim << " count " << count;
        }
    }
}

TEST_P(IsaDispatch, HashGridEncodeF2MatchesScalar)
{
    // Dense lower levels and hashed upper ones; counts straddle the
    // v3 target's 4-point gather step, the 8-float vector width, the
    // default target's register block (64) and the setup slice (512).
    HashGridConfig cfg;
    cfg.levels = 10;
    cfg.log2_table_size = 12;
    cfg.base_resolution = 4;
    cfg.max_resolution = 256;
    ASSERT_EQ(cfg.features_per_level, 2);
    for (int count : {1, 3, 4, 7, 8, 9, 63, 65, 511, 513, 600})
        expectEncodeMatchesScalar(cfg, count);

    // All entries -0: every corner product is -0, so the scalar sum
    // 0 + -0 + ... is +0 while an accumulator seeded with corner 0's
    // product would end at -0 (the bitwise compare tells them apart).
    HashGrid zeros(cfg, 0xD15);
    std::fill(zeros.params().begin(), zeros.params().end(), -0.0f);
    for (int count : {3, 8, 9})
        expectEncodeMatchesScalar(zeros, count);

    // A dense 129^3 level and a hashed level over a 2^22 entry table:
    // entry offsets up to 2^23 floats pin the 32-bit gather index
    // arithmetic.
    HashGridConfig large;
    large.levels = 2;
    large.log2_table_size = 22;
    large.base_resolution = 128;
    large.max_resolution = 2048;
    const GridGeometry geom(large);
    ASSERT_TRUE(geom.level(0).dense);
    ASSERT_FALSE(geom.level(1).dense);
    for (int count : {9, 600})
        expectEncodeMatchesScalar(large, count);
}

TEST_P(IsaDispatch, HashGridEncodeGenericFMatchesScalar)
{
    for (int features : {1, 4}) {
        HashGridConfig cfg;
        cfg.levels = 6;
        cfg.log2_table_size = 11;
        cfg.features_per_level = features;
        cfg.base_resolution = 4;
        cfg.max_resolution = 128;
        for (int count : {7, 130})
            expectEncodeMatchesScalar(cfg, count);
    }
}

TEST_P(IsaDispatch, NgpFieldFrameMatchesScalar)
{
    InstantNgpField ngp(NgpModelConfig::fast(), 33);
    auto scene = scene::createScene("Lego");
    Camera camera = cameraForScene(scene->info(), 12, 12);

    RenderConfig cfg = RenderConfig::asdr(12, 12, 32);
    cfg.num_threads = 1;
    cfg.eval_batch = 1; // the scalar path: never dispatches
    const Image scalar = AsdrRenderer(ngp, cfg).render(camera);
    cfg.eval_batch = 16;
    cfg.num_threads = 3;
    const Image batched = AsdrRenderer(ngp, cfg).render(camera);

    ASSERT_EQ(scalar.pixels(), batched.pixels());
    for (size_t i = 0; i < scalar.pixels(); ++i)
        ASSERT_EQ(scalar.data()[i], batched.data()[i]) << "pixel " << i;
}

TEST_P(IsaDispatch, LibraryKernelsDoNotFuseMultiplyAdd)
{
    // One linear unit: out = b + w * in with w = in = x and b = -y.
    // 48 points run a 32-lane and a 16-lane block on x86-64-v4.
    Mlp mlp({1, {}, 1}, 1);
    mlp.deserializeParams({kCanaryX, -kCanaryY});
    constexpr int kCount = 48;
    const std::vector<float> in(kCount, kCanaryX);
    float ref = -1.0f;
    mlp.forward(in.data(), &ref);
    EXPECT_EQ(ref, 0.0f) << "scalar forward() fused a*b + c";
    std::vector<float> out(kCount, -1.0f);
    mlp.forwardBatch(in.data(), kCount, 1, out.data(), 1);
    MlpBatchWorkspace ws;
    std::vector<float> train_out(kCount, -1.0f);
    mlp.forwardBatch(in.data(), kCount, 1, train_out.data(), 1, ws);
    for (int p = 0; p < kCount; ++p) {
        EXPECT_EQ(out[size_t(p)], 0.0f) << "forwardBatch fused, lane " << p;
        EXPECT_EQ(train_out[size_t(p)], 0.0f)
            << "training forwardBatch fused, lane " << p;
    }
}

TEST_P(IsaDispatch, CompilerFlagsDoNotFuseMultiplyAdd)
{
    // Through volatile so the expression is evaluated at run time, and
    // through the dispatch macro so it is compiled for this target too
    // (the v3 and v4 targets have FMA; fusion would show there first).
    volatile float vx = kCanaryX;
    volatile float vy = kCanaryY;
    const float x = vx;
    const float y = vy;
    float r = -1.0f;
    ASDR_ISA_DISPATCH(T, r = x * x - y);
    EXPECT_EQ(r, 0.0f) << "x*x - y was contracted into an FMA";
}

INSTANTIATE_TEST_SUITE_P(
    Targets, IsaDispatch,
    ::testing::Values(isa::Target::Default, isa::Target::X86_64_V3,
                      isa::Target::X86_64_V4),
    [](const ::testing::TestParamInfo<isa::Target> &info) {
        std::string n = isa::name(info.param);
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

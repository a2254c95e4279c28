/**
 * @file
 * The closed-loop render workloads: one viewer renders frames one at a
 * time through core::AsdrRenderer::render along a seeded Lego orbit.
 *
 *   render_asdr      RenderConfig::asdr(64, 64, 128): Phase I probes,
 *                    planning, short per-ray color batches and color
 *                    approximation do nearly all the work.
 *   render_baseline  RenderConfig::baseline(64, 64, 128) with early
 *                    termination (Instant-NGP as shipped): no Phase I,
 *                    no approximation, full-length color batches and
 *                    about 4x the points -- the same layers used
 *                    differently, so a change tuned to ASDR's short
 *                    batches that costs long ones shows here.
 */

#include <algorithm>
#include <stdexcept>

#include "core/renderer.hpp"
#include "image/metrics.hpp"
#include "layers.hpp"
#include "net/frame_codec.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace asdr;

namespace {

constexpr int kWidth = 64, kHeight = 64, kSamples = 128;
/** Orbit pose checked bitwise against the scalar reference (a scalar
 *  baseline frame costs seconds, so one per run). */
constexpr int kScalarChecked = 0;
/** Every sixth pose is scored against a full-sample render. */
constexpr int kPsnrStride = 6;
/** Serial ledger frames of a traced run. */
constexpr int kLedgerFrames = 3;
constexpr int kSetupReps = 5;

core::RenderConfig
workloadConfig(const std::string &workload, int threads)
{
    core::RenderConfig cfg;
    if (workload == "render_asdr") {
        cfg = core::RenderConfig::asdr(kWidth, kHeight, kSamples);
    } else {
        cfg = core::RenderConfig::baseline(kWidth, kHeight, kSamples);
        cfg.early_termination = true;
    }
    cfg.num_threads = threads;
    return cfg;
}

/** Loaded field + renderer: what set-up builds and the loop renders. */
struct RenderStack
{
    std::unique_ptr<nerf::InstantNgpField> field;
    std::unique_ptr<core::AsdrRenderer> renderer;
};

/**
 * Load the fitted field, build the renderer and render the warm-up
 * frame. A field whose ASDR budgets collapse to the floor is rejected:
 * random weights do that (and never trigger early termination), which
 * would benchmark a degenerate workload.
 */
RenderStack
setUp(const Options &o, const core::RenderConfig &cfg,
      const nerf::Camera &warm)
{
    RenderStack s;
    s.field = loadFitted(o, "Lego");
    s.renderer = std::make_unique<core::AsdrRenderer>(*s.field, cfg);
    core::RenderStats stats;
    s.renderer->render(warm, &stats);
    if (cfg.adaptive_sampling &&
        stats.avg_points_per_pixel < 1.5 * double(cfg.min_samples))
        throw std::runtime_error(
            "degenerate field: ASDR budgets collapsed to min_samples");
    return s;
}

struct Loop
{
    std::vector<double> frame_ms;
    std::vector<Image> first_pass; ///< image of each orbit pose, once
    double wall_s = 0.0;
};

/** Render the orbit round-robin for `seconds` (at least one orbit is
 *  kept for the correctness checks; poses not reached are rendered
 *  after the clock stops). */
Loop
timedLoop(const core::AsdrRenderer &r, const std::vector<nerf::Camera> &cams,
          double seconds, SpanLog *spans)
{
    Loop loop;
    loop.first_pass.resize(cams.size());
    const auto start = Clock::now();
    const auto stop = start + std::chrono::duration<double>(seconds);
    size_t n = 0;
    for (; Clock::now() < stop || n == 0; ++n) {
        const size_t idx = n % cams.size();
        const auto t0 = Clock::now();
        Image img = r.render(cams[idx]);
        const auto t1 = Clock::now();
        loop.frame_ms.push_back(secondsBetween(t0, t1) * 1e3);
        if (spans)
            spans->add("render.frame", t0, t1, spans->newId(), 0, n, 0);
        if (n < cams.size())
            loop.first_pass[idx] = std::move(img);
    }
    loop.wall_s = secondsBetween(start, Clock::now());
    for (size_t i = n; i < cams.size(); ++i)
        loop.first_pass[i] = r.render(cams[i]);
    return loop;
}

/** Sampled frames must equal the scalar reference (eval_batch = 1, one
 *  thread) bitwise. */
void
checkScalar(Result &res, const nerf::RadianceField &field,
            const core::RenderConfig &cfg,
            const std::vector<nerf::Camera> &cams,
            const std::vector<Image> &frames)
{
    core::RenderConfig scalar = cfg;
    scalar.eval_batch = 1;
    scalar.num_threads = 1;
    core::AsdrRenderer ref(field, scalar);
    res.attempt();
    if (!sameBits(ref.render(cams[kScalarChecked]), frames[kScalarChecked]))
        res.fail("frame " + std::to_string(kScalarChecked) +
                 " differs from the scalar reference");
}

/** PSNR of sampled frames against the full-sample render (baseline,
 *  no early termination, no approximation). */
std::vector<double>
psnrVsFull(const nerf::RadianceField &field, int threads,
           const std::vector<nerf::Camera> &cams,
           const std::vector<Image> &frames)
{
    core::RenderConfig full =
        core::RenderConfig::baseline(kWidth, kHeight, kSamples);
    full.num_threads = threads;
    core::AsdrRenderer ref(field, full);
    std::vector<double> out;
    for (size_t i = 0; i < cams.size(); i += kPsnrStride)
        out.push_back(psnr(frames[i], ref.render(cams[i])));
    return out;
}

std::vector<nerf::Camera>
cameras(uint64_t seed)
{
    std::vector<nerf::Camera> cams;
    for (const auto &cs :
         orbitPath("Lego", kWidth, kHeight, kRenderPathFrames, seed))
        cams.push_back(cs.toCamera());
    return cams;
}

void
runUntraced(const Options &o, Result &res)
{
    const int threads = hostThreads();
    const core::RenderConfig cfg = workloadConfig(o.workload, threads);
    const std::vector<nerf::Camera> cams = cameras(o.seed);

    // Set-up, repeated: the median is the metric, the last stack runs.
    std::vector<double> setup_s;
    RenderStack stack;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        stack.renderer.reset(); // before the field it renders
        stack.field.reset();
        const auto t0 = Clock::now();
        stack = setUp(o, cfg, cams[0]);
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }

    Loop loop = timedLoop(*stack.renderer, cams, o.seconds, nullptr);
    const double rss = peakRssMb();
    res.attempt(loop.frame_ms.size());

    checkScalar(res, *stack.field, cfg, cams, loop.first_pass);
    const std::vector<double> psnrs =
        psnrVsFull(*stack.field, threads, cams, loop.first_pass);

    const size_t n = loop.frame_ms.size();
    res.add("setup_s", median(setup_s), "s", setup_s.size());
    res.add("peak_rss_mb", rss, "MB", 1);
    res.add("frames_per_s", double(n) / loop.wall_s, "1/s", n);
    res.add("frame_ms_p50", quantile(loop.frame_ms, 0.5), "ms", n);
    res.add("frame_ms_p90", quantile(loop.frame_ms, 0.9), "ms", n);
    // The single closed-loop viewer is the interactive class.
    res.add("interactive_ms_p90", quantile(loop.frame_ms, 0.9), "ms", n);
    // Closed loop: every frame asked for is delivered, no limit applies.
    res.add("on_time_share", 1.0, "share", n);
    res.add("psnr_db", median(psnrs), "dB", psnrs.size());
    // Delivered in process: the frame's own float RGB buffer.
    res.add("wire_bytes_per_frame", double(net::rawFrameBytes(kWidth, kHeight)),
            "B", n);
}

void
runTraced(const Options &o, Result &res)
{
    const int threads = hostThreads();
    const core::RenderConfig cfg = workloadConfig(o.workload, threads);
    const std::vector<nerf::Camera> cams = cameras(o.seed);
    SpanLog spans;

    // Untraced half, then the same frames through the timing decorator:
    // the fps ratio is the tracing overhead, and the frames must match.
    RenderStack stack = setUp(o, cfg, cams[0]);
    const Loop plain = timedLoop(*stack.renderer, cams, o.seconds / 2, nullptr);

    TimedField timed(*stack.field);
    core::AsdrRenderer traced_renderer(timed, cfg);
    traced_renderer.render(cams[0]);
    const NerfTotals before = timed.totals();
    const Loop traced = timedLoop(traced_renderer, cams, o.seconds / 2, &spans);
    const TracedLoop loop{timed.totals() - before, traced.frame_ms.size(),
                          traced.wall_s, threads};
    res.attempt(plain.frame_ms.size() + traced.frame_ms.size());
    for (size_t i = 0; i < cams.size(); ++i) {
        res.attempt();
        if (!sameBits(plain.first_pass[i], traced.first_pass[i]))
            res.fail("traced frame " + std::to_string(i) +
                     " differs from the untraced one");
    }

    std::vector<nerf::Camera> ledger_cams;
    for (int f = 0; f < kLedgerFrames; ++f)
        ledger_cams.push_back(
            cams[size_t(f * kRenderPathFrames / kLedgerFrames)]);
    measureRenderLayers(res, traced_renderer, timed, *stack.field,
                        ledger_cams, threads, loop, o.seed, spans);
    emitServeLayers(res, ServeLayers{});
    const double fps_plain = double(plain.frame_ms.size()) / plain.wall_s;
    const double fps_traced = double(traced.frame_ms.size()) / traced.wall_s;
    res.add("bench.trace_overhead", fps_traced / fps_plain, "ratio",
            traced.frame_ms.size());

    if (!o.trace_out.empty() && !spans.writeJson(o.trace_out))
        res.fail("could not write the trace to " + o.trace_out);
}

} // namespace

void
runRender(const Options &o, Result &res)
{
    if (o.trace)
        runTraced(o, res);
    else
        runUntraced(o, res);
}

} // namespace perfbench

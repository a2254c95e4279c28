#include "layers.hpp"

#include <algorithm>
#include <functional>

#include "sim/accelerator.hpp"

namespace perfbench {

using namespace asdr;

namespace {

enum Stage
{
    kSetup,
    kPhase1,
    kPlan,
    kPhase2,
    kFinalize,
    kStages
};

struct LedgerFrame
{
    double wall_s = 0.0;          ///< serial frame, first to last stage
    double stage_s[kStages] = {}; ///< stage wall time
    double nerf_s[kStages] = {};  ///< nerf time inside the stage
    Image image;
    core::RenderStats stats;
};

struct Ledger
{
    std::vector<LedgerFrame> frames;
    NerfTotals nerf; ///< nerf counters over the whole pass
};

/** Density-batch positions of one serial frame, in call order. */
struct CapturedBatches
{
    std::vector<Vec3> positions;
    std::vector<int> sizes;
};

struct SimFrame
{
    double cycles = 0.0;
    double host_s = 0.0;
};

const char *const kStageSpan[kStages] = {"core.setup", "core.phase1.row",
                                         "core.plan", "core.phase2.job",
                                         "core.finalize"};

/** Drive one frame through the stage API; `stage` wraps every call. */
void
serialFrame(const core::AsdrRenderer &r, core::FrameState &fs,
            core::RenderStats *stats,
            const std::function<void(Stage, const std::function<void()> &)>
                &stage)
{
    fs.shape = r.frameShape(fs.camera.width(), fs.camera.height());
    stage(kSetup, [&] { r.beginFrame(fs); });
    if (fs.shape.adaptive)
        for (int gy = 0; gy < fs.shape.gh; ++gy)
            stage(kPhase1, [&] { r.probeRow(fs, gy); });
    stage(kPlan, [&] { r.planBudgets(fs); });
    for (int j = 0; j < fs.shape.jobs; ++j)
        stage(kPhase2, [&] { r.phase2Job(fs, j); });
    stage(kFinalize, [&] { r.finalizeFrame(fs, stats); });
}

double
ratio(uint64_t num, uint64_t den)
{
    return den ? double(num) / double(den) : 0.0;
}

/** Render each camera serially through the stage API, timing every
 *  stage and the nerf time inside it. Stage spans are recorded after
 *  their frame ends and no nerf batch records one, so span bookkeeping
 *  stays out of both the stage times and the frame wall time. */
Ledger
runLedger(const core::AsdrRenderer &renderer, const TimedField &timed,
          const std::vector<nerf::Camera> &cams, SpanLog &spans)
{
    struct StageSpan
    {
        Stage stage;
        Clock::time_point t0, t1;
    };
    Ledger out;
    const NerfTotals start = timed.totals();
    std::vector<StageSpan> stage_spans;
    stage_spans.reserve(1024);
    for (size_t f = 0; f < cams.size(); ++f) {
        LedgerFrame lf;
        core::FrameState fs(cams[f]);
        stage_spans.clear();
        const auto t_frame = Clock::now();
        serialFrame(renderer, fs, &lf.stats,
                    [&](Stage s, const std::function<void()> &call) {
                        const NerfTotals before = timed.totals();
                        const auto t0 = Clock::now();
                        call();
                        const auto t1 = Clock::now();
                        lf.stage_s[s] += secondsBetween(t0, t1);
                        lf.nerf_s[s] +=
                            double((timed.totals() - before).busyNs()) / 1e9;
                        stage_spans.push_back({s, t0, t1});
                    });
        const auto t_end = Clock::now();
        const uint64_t frame_id = spans.newId();
        spans.add("ledger.frame", t_frame, t_end, frame_id, 0, f, 0);
        for (const StageSpan &ss : stage_spans)
            spans.add(kStageSpan[ss.stage], ss.t0, ss.t1, spans.newId(),
                      frame_id, f, 0);
        lf.wall_s = secondsBetween(t_frame, t_end);
        lf.image = std::move(fs.img);
        out.frames.push_back(std::move(lf));
    }
    out.nerf = timed.totals() - start;
    return out;
}

/**
 * One more serial frame, untimed, that captures its density batches'
 * positions and records a span per stage and per nerf batch. Doing
 * either inside the ledger would inflate its self times.
 */
CapturedBatches
captureDensityBatches(const core::AsdrRenderer &renderer, TimedField &timed,
                      const nerf::Camera &cam, SpanLog &spans)
{
    CapturedBatches cb;
    timed.attachLedger(&cb.positions, &cb.sizes, &spans);
    core::FrameState fs(cam);
    const uint64_t frame_id = spans.newId();
    const auto t_frame = Clock::now();
    serialFrame(renderer, fs, nullptr,
                [&](Stage s, const std::function<void()> &call) {
                    const uint64_t id = spans.newId();
                    timed.setSpanParent(id, 0);
                    const auto t0 = Clock::now();
                    call();
                    spans.add(kStageSpan[s], t0, Clock::now(), id, frame_id,
                              0, 0);
                });
    spans.add("ledger.detail_frame", t_frame, Clock::now(), frame_id, 0, 0,
              0);
    timed.attachLedger(nullptr, nullptr, nullptr);
    return cb;
}

/** Replay captured batches through HashGrid::encodeBatch; median
 *  ns/point over three replays. */
double
encodeNsPerPoint(const nerf::InstantNgpField &field,
                 const CapturedBatches &batches)
{
    constexpr int reps = 3;
    if (batches.sizes.empty())
        return 0.0;
    const int fd = field.grid().featureDim();
    const int max_batch =
        *std::max_element(batches.sizes.begin(), batches.sizes.end());
    std::vector<float> out(size_t(max_batch) * size_t(fd));
    std::vector<double> per_point;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        size_t offset = 0;
        for (int n : batches.sizes) {
            field.grid().encodeBatch(batches.positions.data() + offset, n,
                                     out.data(), fd);
            offset += size_t(n);
        }
        per_point.push_back(secondsBetween(t0, Clock::now()) * 1e9 /
                            double(offset));
    }
    return median(per_point);
}

/** The first render_asdr frame (64x64, 128 samples) of `seed`'s orbit
 *  through sim::AsdrAccelerator as the renderer's trace sink. */
SimFrame
simulateFirstAsdrFrame(const nerf::RadianceField &lego, uint64_t seed)
{
    const nerf::Camera cam =
        orbitPath("Lego", 64, 64, kRenderPathFrames, seed)[0].toCamera();
    sim::AsdrAccelerator accel(lego.tableSchema(), lego.costs(),
                               sim::AccelConfig::server(), false);
    core::AsdrRenderer renderer(lego, core::RenderConfig::asdr(64, 64, 128));
    const auto t0 = Clock::now();
    renderer.render(cam, nullptr, &accel);
    SimFrame s;
    s.host_s = secondsBetween(t0, Clock::now());
    s.cycles = double(accel.report().total_cycles);
    return s;
}

void
emitRenderLayers(Result &res, const core::AsdrRenderer &renderer,
                 const nerf::Camera &cam, const Ledger &ledger,
                 const std::vector<double> &render_wall_s,
                 int render_threads, const TracedLoop &traced,
                 double encode_ns_per_point, const SimFrame &sim)
{
    const NerfTotals &loop = traced.nerf;
    const NerfTotals &serial = ledger.nerf;
    const size_t nl = ledger.frames.size();
    std::vector<double> self[kStages];
    double budget = 0.0, actual = 0.0, probes = 0.0, approx = 0.0,
           colors = 0.0, pixels = 0.0;
    double min_coverage = 1e9;
    for (const LedgerFrame &lf : ledger.frames) {
        double staged = 0.0;
        for (int s = 0; s < kStages; ++s) {
            self[s].push_back(lf.stage_s[s] - lf.nerf_s[s]);
            staged += lf.stage_s[s];
        }
        min_coverage = std::min(min_coverage, staged / lf.wall_s);
        const double px = double(lf.stats.sample_count_map.size());
        pixels += px;
        budget += lf.stats.avg_points_per_pixel * px;
        actual += lf.stats.avg_actual_points_per_pixel * px;
        probes += double(lf.stats.profile.probe_rays);
        approx += double(lf.stats.profile.approx_colors);
        colors += double(lf.stats.profile.color_execs);
    }

    res.add("nerf.density.busy_s", ratio(loop.density_ns, traced.frames) / 1e9,
            "s", traced.frames);
    const double density_ns_pt =
        ratio(serial.density_ns, serial.density_points);
    res.add("nerf.density.ns_per_point", density_ns_pt, "ns",
            serial.density_calls);
    res.add("nerf.density.mean_batch",
            ratio(loop.density_points, loop.density_calls), "points",
            loop.density_calls);
    res.add("nerf.encode.ns_per_point", encode_ns_per_point, "ns", 3);
    res.add("nerf.density_mlp.ns_per_point",
            density_ns_pt - encode_ns_per_point, "ns", serial.density_calls);
    res.add("nerf.color.busy_s", ratio(loop.color_ns, traced.frames) / 1e9,
            "s", traced.frames);
    res.add("nerf.color.ns_per_point",
            ratio(serial.color_ns, serial.color_points), "ns",
            serial.color_calls);
    res.add("nerf.color.mean_batch", ratio(loop.color_points, loop.color_calls),
            "points", loop.color_calls);
    res.add("nerf.color.short_batch_share",
            ratio(loop.color_short_points, loop.color_points), "share",
            loop.color_calls);

    res.add("core.setup.self_s", median(self[kSetup]), "s", nl);
    res.add("core.phase1.self_s", median(self[kPhase1]), "s", nl);
    res.add("core.plan.self_s", median(self[kPlan]), "s", nl);
    res.add("core.phase2.self_s", median(self[kPhase2]), "s", nl);
    res.add("core.finalize.self_s", median(self[kFinalize]), "s", nl);
    res.add("core.points_per_pixel", pixels ? actual / pixels : 0.0,
            "points", nl);
    res.add("core.budget_per_pixel", pixels ? budget / pixels : 0.0,
            "points", nl);
    res.add("core.probe_rays", nl ? probes / double(nl) : 0.0, "count", nl);
    res.add("core.approx_share",
            approx + colors > 0 ? approx / (approx + colors) : 0.0, "share",
            nl);
    res.add("core.et_cut_share", budget > 0 ? 1.0 - actual / budget : 0.0,
            "share", nl);

    const core::FrameShape shape =
        renderer.frameShape(cam.width(), cam.height());
    const int tasks =
        1 + (shape.adaptive ? shape.gh : 0) + 1 + shape.jobs + 1;
    std::vector<double> eff, overhead;
    for (size_t f = 0; f < nl; ++f) {
        const double capacity = double(render_threads) * render_wall_s[f];
        eff.push_back(ledger.frames[f].wall_s / capacity);
        overhead.push_back((capacity - ledger.frames[f].wall_s) /
                           double(tasks) * 1e6);
    }
    res.add("engine.tasks_per_frame", double(tasks), "count", 1);
    res.add("engine.parallel_efficiency", median(eff), "share", eff.size());
    res.add("engine.overhead_us_per_task", median(overhead), "us",
            overhead.size());
    res.add("engine.worker_busy_share",
            double(loop.busyNs()) / 1e9 /
                (double(traced.workers) * traced.wall_s),
            "share", traced.frames);

    res.add("sim.cycles_per_frame", sim.cycles, "cycles", 1);
    res.add("sim.host_s_per_frame", sim.host_s, "s", 1);
    res.add("bench.ledger_coverage", nl ? min_coverage : 0.0, "share", nl);
}

} // namespace

void
measureRenderLayers(Result &res, const core::AsdrRenderer &renderer,
                    TimedField &timed, const nerf::InstantNgpField &field,
                    const std::vector<nerf::Camera> &cams, int threads,
                    const TracedLoop &loop, uint64_t seed, SpanLog &spans)
{
    const Ledger ledger = runLedger(renderer, timed, cams, spans);
    std::vector<double> render_wall;
    for (size_t f = 0; f < cams.size(); ++f) {
        std::vector<double> reps;
        Image img;
        for (int r = 0; r < 3; ++r) {
            const auto t0 = Clock::now();
            img = renderer.render(cams[f]);
            reps.push_back(secondsBetween(t0, Clock::now()));
        }
        render_wall.push_back(median(reps));
        res.attempt();
        if (!sameBits(img, ledger.frames[f].image))
            res.fail("ledger frame " + std::to_string(f) +
                     " differs from render()");
    }
    const CapturedBatches batches =
        captureDensityBatches(renderer, timed, cams[0], spans);
    emitRenderLayers(res, renderer, cams[0], ledger, render_wall, threads,
                     loop, encodeNsPerPoint(field, batches),
                     simulateFirstAsdrFrame(field, seed));
}

void
emitServeLayers(Result &res, const ServeLayers &s)
{
    res.add("server.queue_wait_ms_mean", s.queue_wait_ms_mean, "ms",
            s.frames);
    res.add("server.latency_ms_p50", s.latency_ms_p50, "ms", s.frames);
    res.add("server.latency_ms_p90", s.latency_ms_p90, "ms", s.frames);
    res.add("server.dropped_share", s.dropped_share, "share", s.frames);
    res.add("server.expired_share", s.expired_share, "share", s.frames);
    res.add("server.degraded_share", s.degraded_share, "share", s.frames);
    res.add("net.overhead_ms_p50", s.net_overhead_ms_p50, "ms", s.frames);
    res.add("net.submit_ack_us_p50", s.submit_ack_us_p50, "us", s.frames);
    res.add("net.encode_us_per_frame", s.encode_us_per_frame, "us",
            s.frames);
    res.add("net.decode_us_per_frame", s.decode_us_per_frame, "us",
            s.frames);
    res.add("net.payload_bytes_per_frame", s.payload_bytes_per_frame, "B",
            s.frames);
    res.add("bench.generator_late_ms_p90", s.generator_late_ms_p90, "ms",
            s.frames);
}

} // namespace perfbench

/**
 * @file
 * serve_wire: an open loop over loopback TCP -- net::RenderService over
 * server::FrameServer (2 shards), driven by net::Client. Six viewers
 * submit on a fixed per-viewer frame clock at mixed QoS: four share the
 * Lego field (cross-tenant reuse is possible), two view Chair.
 * Interactive sessions use DeltaPrev, the others Raw. This is the only
 * workload that queues: QoS admission, cross-frame pipelining, many
 * small pool tasks and wire encode/flush do real work, while each
 * frame's kernel work is small.
 *
 * The generator uses at most one thread and connection per core, with
 * sessions multiplexed over them. net::Client is blocking, so a
 * connection thread waiting for a result can submit its next frame
 * late; latency is therefore timed from each frame's due time (a stall
 * cannot hide), and the lateness is reported.
 */

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/renderer.hpp"
#include "image/metrics.hpp"
#include "layers.hpp"
#include "net/client.hpp"
#include "net/frame_codec.hpp"
#include "net/render_service.hpp"
#include "scene/scene_library.hpp"
#include "server/frame_server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace asdr;

namespace {

constexpr int kWidth = 32, kHeight = 32, kSamples = 64;
constexpr int kPathFrames = 24;
/** Offered rate per viewer, frames/s (the base rate). */
constexpr double kViewerFps = 4.0;
/** A frame later than this after its due time misses. */
constexpr double kLatencyLimitMs = 100.0;
constexpr int kSetupReps = 5;
constexpr int kLedgerFrames = 3;

const char *const kScenes[] = {"Lego", "Chair"};

struct ViewerSpec
{
    int scene; ///< index into kScenes
    server::QosClass qos;
    net::FrameEncoding encoding;
};

const ViewerSpec kViewers[] = {
    {0, server::QosClass::Interactive, net::FrameEncoding::DeltaPrev},
    {0, server::QosClass::Interactive, net::FrameEncoding::DeltaPrev},
    {0, server::QosClass::Standard, net::FrameEncoding::Raw},
    {0, server::QosClass::Batch, net::FrameEncoding::Raw},
    {1, server::QosClass::Interactive, net::FrameEncoding::DeltaPrev},
    {1, server::QosClass::Standard, net::FrameEncoding::Raw},
};
constexpr int kViewerCount = int(sizeof kViewers / sizeof kViewers[0]);

core::RenderConfig
serveConfig(int threads)
{
    core::RenderConfig cfg =
        core::RenderConfig::asdr(kWidth, kHeight, kSamples);
    cfg.num_threads = threads;
    return cfg;
}

/** Viewer v's k-th pose: each viewer starts at its own orbit offset. */
int
poseOf(int v, uint64_t k)
{
    return int((uint64_t(v) * 5 + k) % uint64_t(kPathFrames));
}

/** Everything set-up builds; members are torn down in reverse order
 *  (clients, service, server, registry, fields). */
struct ServeStack
{
    std::unique_ptr<nerf::InstantNgpField> fields[2];
    std::unique_ptr<TimedField> timed[2]; ///< traced stacks only
    std::unique_ptr<server::SceneRegistry> registry;
    std::unique_ptr<server::FrameServer> server;
    std::unique_ptr<net::RenderService> service;
    std::vector<net::Client> clients;
    std::vector<uint64_t> sessions; ///< per viewer
    int workers = 0;

    net::Client &clientOf(int v) { return clients[size_t(v) % clients.size()]; }
};

using Paths = std::vector<std::vector<net::CameraSpec>>; // per scene

std::unique_ptr<ServeStack>
setUp(const Options &o, bool traced, const Paths &paths)
{
    const int threads = hostThreads();
    auto s = std::make_unique<ServeStack>();
    s->registry = std::make_unique<server::SceneRegistry>();
    const int per_shard = std::max(1, threads / 2);
    for (int i = 0; i < 2; ++i) {
        s->fields[i] = loadFitted(o, kScenes[i]);
        const nerf::RadianceField *field = s->fields[i].get();
        if (traced) {
            s->timed[i] = std::make_unique<TimedField>(*s->fields[i]);
            field = s->timed[i].get();
        }
        s->registry->addShared(kScenes[i], *field, serveConfig(per_shard),
                               scene::sceneInfo(kScenes[i]));
    }
    server::ServerConfig sc;
    sc.shards = 2;
    sc.threads_per_shard = per_shard;
    s->workers = sc.shards * per_shard;
    s->server = std::make_unique<server::FrameServer>(*s->registry, sc);
    s->service = std::make_unique<net::RenderService>(*s->server);
    std::string err;
    if (!s->service->start(&err))
        throw std::runtime_error("service start: " + err);

    const int conns = std::min(threads, kViewerCount);
    s->clients.resize(size_t(conns));
    for (auto &c : s->clients)
        if (!c.connect("127.0.0.1", s->service->port(), &err))
            throw std::runtime_error("connect: " + err);
    for (int v = 0; v < kViewerCount; ++v) {
        const uint64_t session = s->clientOf(v).openSession(
            kScenes[kViewers[v].scene], kViewers[v].qos, kViewers[v].encoding,
            &err);
        if (!session)
            throw std::runtime_error("open session: " + err);
        s->sessions.push_back(session);
    }
    // Warm-up: one frame per session, round trip.
    for (int v = 0; v < kViewerCount; ++v) {
        net::Client &c = s->clientOf(v);
        net::ClientFrame frame;
        if (!c.submitFrame(s->sessions[size_t(v)],
                           paths[size_t(kViewers[v].scene)]
                                [size_t(poseOf(v, 0))],
                           &err) ||
            !c.nextFrame(frame, &err) || !frame.ok())
            throw std::runtime_error("warm-up frame failed: " + err);
    }
    return s;
}

/** One submitted frame, as the generator saw it. */
struct FrameRec
{
    int viewer = 0;
    int pose = 0;
    uint64_t ticket = 0;
    Clock::time_point due, call, ack, done;
    bool delivered = false;
    net::ClientFrame frame;
};

struct OpenLoop
{
    std::vector<FrameRec> recs;
    std::vector<std::string> errors;
    Clock::time_point start, end;
};

/**
 * Drive every viewer on its frame clock for `seconds`, then drain.
 * Viewer v is due at start + (v / kViewerCount + k) / kViewerFps.
 */
OpenLoop
runOpenLoop(ServeStack &s, const Paths &paths, double seconds, SpanLog *spans)
{
    OpenLoop out;
    const auto period = std::chrono::duration<double>(1.0 / kViewerFps);
    out.start = Clock::now() + std::chrono::milliseconds(20);
    const auto stop = out.start + std::chrono::duration<double>(seconds);
    std::mutex m;

    auto drive = [&](size_t conn) {
        net::Client &client = s.clients[conn];
        std::vector<int> mine;
        for (int v = 0; v < kViewerCount; ++v)
            if (size_t(v) % s.clients.size() == conn)
                mine.push_back(v);
        std::vector<uint64_t> next(mine.size(), 0);
        auto dueOf = [&](size_t i) {
            const double slot =
                double(mine[i]) / double(kViewerCount) + double(next[i]);
            return out.start + std::chrono::duration_cast<Clock::duration>(
                                   period * slot);
        };
        std::vector<FrameRec> recs;
        std::unordered_map<uint64_t, size_t> by_ticket;
        std::vector<std::string> errors;
        size_t outstanding = 0;
        std::string err;
        for (;;) {
            size_t pick = mine.size();
            for (size_t i = 0; i < mine.size(); ++i)
                if (dueOf(i) < stop &&
                    (pick == mine.size() || dueOf(i) < dueOf(pick)))
                    pick = i;
            const auto now = Clock::now();
            if (pick < mine.size() && dueOf(pick) <= now) {
                FrameRec r;
                r.viewer = mine[pick];
                r.pose = poseOf(r.viewer, next[pick] + 1);
                r.due = dueOf(pick);
                ++next[pick];
                const int scene = kViewers[r.viewer].scene;
                r.call = Clock::now();
                r.ticket = client.submitFrame(
                    s.sessions[size_t(r.viewer)],
                    paths[size_t(scene)][size_t(r.pose)], &err);
                r.ack = Clock::now();
                if (!r.ticket) {
                    errors.push_back("submit refused: " + err);
                    if (!client.connected())
                        break;
                } else {
                    by_ticket[r.ticket] = recs.size();
                    ++outstanding;
                }
                recs.push_back(std::move(r));
            } else if (outstanding > 0) {
                net::ClientFrame f;
                if (!client.nextFrame(f, &err)) {
                    errors.push_back("nextFrame: " + err);
                    break;
                }
                const auto done = Clock::now();
                auto it = by_ticket.find(f.ticket);
                if (it == by_ticket.end() || recs[it->second].delivered) {
                    errors.push_back("unexpected or duplicate ticket " +
                                     std::to_string(f.ticket));
                    continue;
                }
                FrameRec &r = recs[it->second];
                r.done = done;
                r.delivered = true;
                r.frame = std::move(f);
                --outstanding;
            } else if (pick < mine.size()) {
                std::this_thread::sleep_until(dueOf(pick));
            } else {
                break;
            }
        }
        for (const FrameRec &r : recs)
            if (r.ticket && !r.delivered)
                errors.push_back("ticket " + std::to_string(r.ticket) +
                                 " got no result");
        std::lock_guard<std::mutex> lock(m);
        for (FrameRec &r : recs)
            out.recs.push_back(std::move(r));
        out.errors.insert(out.errors.end(), errors.begin(), errors.end());
    };

    std::vector<std::thread> threads;
    for (size_t c = 0; c < s.clients.size(); ++c)
        threads.emplace_back(drive, c);
    for (auto &t : threads)
        t.join();
    out.end = out.start;
    for (const FrameRec &r : out.recs)
        if (r.delivered)
            out.end = std::max(out.end, r.done);
    if (spans)
        for (const FrameRec &r : out.recs) {
            if (!r.delivered)
                continue;
            const uint64_t id = spans->newId();
            spans->add("serve.frame", r.due, r.done, id, 0, r.ticket,
                       r.viewer + 1);
            spans->add("net.submit", r.call, r.ack, spans->newId(), id,
                       r.ticket, r.viewer + 1);
        }
    return out;
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return secondsBetween(a, b) * 1e3;
}

bool
onTime(const FrameRec &r)
{
    return r.delivered && r.frame.ok() &&
           msBetween(r.due, r.done) <= kLatencyLimitMs;
}

/** Served-within-limit frames per wall second of the run. */
double
onTimeFps(const OpenLoop &run)
{
    size_t n = 0;
    for (const FrameRec &r : run.recs)
        n += onTime(r) ? 1 : 0;
    return double(n) / secondsBetween(run.start, run.end);
}

/**
 * Count the run's outcomes and check every delivered frame: exactly one
 * result per ticket, no Failed frame (the server's render threw), and Ok
 * full-rung frames equal to an in-process render() of the same pose
 * bitwise. Returns the PSNRs of all Ok frames, degraded rungs included,
 * against that full-quality render.
 */
std::vector<double>
checkRun(Result &res, const OpenLoop &run, const ServeStack &s,
         const Paths &paths, int threads)
{
    res.attempt(run.recs.size());
    for (const std::string &e : run.errors)
        res.fail(e);
    std::vector<std::unique_ptr<core::AsdrRenderer>> refs;
    for (int i = 0; i < 2; ++i)
        refs.push_back(std::make_unique<core::AsdrRenderer>(
            *s.fields[i], serveConfig(threads)));
    std::map<std::pair<int, int>, Image> cache;
    std::vector<double> psnrs;
    for (const FrameRec &r : run.recs) {
        if (!r.delivered)
            continue;
        if (r.frame.status == net::FrameStatus::Failed) {
            res.fail("ticket " + std::to_string(r.ticket) +
                     " failed: " + r.frame.error);
            continue;
        }
        if (!r.frame.ok())
            continue; // dropped, shed or expired: a miss, not an error
        const int scene = kViewers[r.viewer].scene;
        Image &ref = cache[{scene, r.pose}];
        if (ref.empty())
            ref = refs[size_t(scene)]->render(
                paths[size_t(scene)][size_t(r.pose)].toCamera());
        if (r.frame.rung == server::QualityRung::Full) {
            res.attempt();
            if (!sameBits(r.frame.image, ref))
                res.fail("ticket " + std::to_string(r.ticket) +
                         " decoded differently from the in-process render");
        }
        psnrs.push_back(psnr(r.frame.image, ref));
    }
    return psnrs;
}

Paths
makePaths(uint64_t seed)
{
    Paths p;
    for (const char *scene : kScenes)
        p.push_back(orbitPath(scene, kWidth, kHeight, kPathFrames, seed));
    return p;
}

net::StatsReplyMsg
fetchStats(ServeStack &s)
{
    net::StatsReplyMsg reply;
    std::string err;
    if (!s.clients[0].fetchStats(reply, &err))
        throw std::runtime_error("fetchStats: " + err);
    return reply;
}

void
runUntraced(const Options &o, Result &res)
{
    const Paths paths = makePaths(o.seed);
    std::vector<double> setup_s;
    std::unique_ptr<ServeStack> stack;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        stack.reset();
        const auto t0 = Clock::now();
        stack = setUp(o, false, paths);
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }
    const OpenLoop run = runOpenLoop(*stack, paths, o.seconds, nullptr);
    const double rss = peakRssMb();
    const std::vector<double> psnrs =
        checkRun(res, run, *stack, paths, hostThreads());

    std::vector<double> lat, inter;
    double bytes = 0.0;
    size_t ok = 0, on_time = 0;
    for (const FrameRec &r : run.recs) {
        on_time += onTime(r) ? 1 : 0;
        if (!r.delivered || !r.frame.ok())
            continue;
        ++ok;
        bytes += double(r.frame.payload_bytes);
        lat.push_back(msBetween(r.due, r.done));
        if (kViewers[r.viewer].qos == server::QosClass::Interactive)
            inter.push_back(lat.back());
    }
    const size_t n = run.recs.size();
    res.add("setup_s", median(setup_s), "s", setup_s.size());
    res.add("peak_rss_mb", rss, "MB", 1);
    res.add("frames_per_s", onTimeFps(run), "1/s", on_time);
    res.add("frame_ms_p50", quantile(lat, 0.5), "ms", lat.size());
    res.add("frame_ms_p90", quantile(lat, 0.9), "ms", lat.size());
    res.add("interactive_ms_p90", quantile(inter, 0.9), "ms", inter.size());
    res.add("on_time_share", n ? double(on_time) / double(n) : 0.0, "share",
            n);
    res.add("psnr_db", median(psnrs), "dB", psnrs.size());
    res.add("wire_bytes_per_frame", ok ? bytes / double(ok) : 0.0, "B", ok);
}

/** Server-side deltas over the traced run (stats are cumulative). */
void
fillServerLayers(ServeLayers &sl, const net::StatsReplyMsg &before,
                 const net::StatsReplyMsg &after)
{
    const auto &bi = before.server.cls[int(server::QosClass::Interactive)];
    const auto &ai = after.server.cls[int(server::QosClass::Interactive)];
    const double admitted = double(ai.admitted - bi.admitted);
    if (admitted > 0)
        sl.queue_wait_ms_mean = (ai.mean_queue_ms * double(ai.admitted) -
                                 bi.mean_queue_ms * double(bi.admitted)) /
                                admitted;
    double submitted = 0, dropped = 0, expired = 0, degraded = 0;
    for (int c = 0; c < server::kQosClasses; ++c) {
        const auto &b = before.server.cls[c];
        const auto &a = after.server.cls[c];
        submitted += double(a.submitted - b.submitted);
        dropped += double(a.dropped - b.dropped);
        expired += double(a.expired - b.expired);
        degraded += double(a.degraded - b.degraded);
    }
    if (submitted > 0) {
        sl.dropped_share = dropped / submitted;
        sl.expired_share = expired / submitted;
        sl.degraded_share = degraded / submitted;
    }
}

/** Replay each viewer's delivered frames through the frame codec with
 *  its encoding; every round trip must be lossless. */
void
replayCodec(Result &res, ServeLayers &sl, const OpenLoop &run)
{
    std::vector<std::vector<const FrameRec *>> per_viewer(kViewerCount);
    for (const FrameRec &r : run.recs)
        if (r.delivered && r.frame.ok())
            per_viewer[size_t(r.viewer)].push_back(&r);
    double enc_s = 0.0, dec_s = 0.0;
    size_t frames = 0;
    for (int v = 0; v < kViewerCount; ++v) {
        auto &recs = per_viewer[size_t(v)];
        std::sort(recs.begin(), recs.end(),
                  [](const FrameRec *a, const FrameRec *b) {
                      return a->ticket < b->ticket;
                  });
        const Image *prev = nullptr;
        for (const FrameRec *r : recs) {
            const Image &img = r->frame.image;
            Image decoded;
            std::string err;
            const auto t0 = Clock::now();
            const std::vector<uint8_t> payload =
                net::encodeFramePayload(img, kViewers[v].encoding, prev);
            const auto t1 = Clock::now();
            const bool ok = net::decodeFramePayload(
                payload.data(), payload.size(), kViewers[v].encoding,
                img.width(), img.height(), prev, decoded, &err);
            const auto t2 = Clock::now();
            res.attempt();
            if (!ok || !sameBits(decoded, img))
                res.fail("codec replay not lossless: " + err);
            enc_s += secondsBetween(t0, t1);
            dec_s += secondsBetween(t1, t2);
            ++frames;
            prev = &img;
        }
    }
    if (frames) {
        sl.encode_us_per_frame = enc_s / double(frames) * 1e6;
        sl.decode_us_per_frame = dec_s / double(frames) * 1e6;
    }
}

void
runTraced(const Options &o, Result &res)
{
    const Paths paths = makePaths(o.seed);
    const int threads = hostThreads();
    SpanLog spans;

    // Untraced half, then a stack whose fields are timed.
    double fps_plain = 0.0;
    {
        auto plain = setUp(o, false, paths);
        const OpenLoop run = runOpenLoop(*plain, paths, o.seconds / 2, nullptr);
        checkRun(res, run, *plain, paths, threads);
        fps_plain = onTimeFps(run);
    }
    auto stack = setUp(o, true, paths);
    const net::StatsReplyMsg before = fetchStats(*stack);
    const NerfTotals lego_before = stack->timed[0]->totals();
    const NerfTotals chair_before = stack->timed[1]->totals();
    const OpenLoop run = runOpenLoop(*stack, paths, o.seconds / 2, &spans);
    const net::StatsReplyMsg after = fetchStats(*stack);
    const NerfTotals nerf = (stack->timed[0]->totals() - lego_before) +
                            (stack->timed[1]->totals() - chair_before);
    checkRun(res, run, *stack, paths, threads);

    ServeLayers sl;
    fillServerLayers(sl, before, after);
    std::vector<double> server_ms, overhead_ms, ack_us, late_ms;
    double bytes = 0.0;
    for (const FrameRec &r : run.recs) {
        late_ms.push_back(msBetween(r.due, r.call));
        if (!r.delivered || !r.frame.ok())
            continue;
        server_ms.push_back(r.frame.latency_ms);
        overhead_ms.push_back(msBetween(r.call, r.done) - r.frame.latency_ms);
        ack_us.push_back(msBetween(r.call, r.ack) * 1e3);
        bytes += double(r.frame.payload_bytes);
    }
    sl.frames = server_ms.size();
    sl.latency_ms_p50 = quantile(server_ms, 0.5);
    sl.latency_ms_p90 = quantile(server_ms, 0.9);
    sl.net_overhead_ms_p50 = quantile(overhead_ms, 0.5);
    sl.submit_ack_us_p50 = quantile(ack_us, 0.5);
    sl.payload_bytes_per_frame = sl.frames ? bytes / double(sl.frames) : 0.0;
    sl.generator_late_ms_p90 = quantile(late_ms, 0.9);
    replayCodec(res, sl, run);

    // Render layers on the serving frame config, Lego, one shard's
    // worth of threads.
    const int per_shard = std::max(1, threads / 2);
    core::AsdrRenderer renderer(*stack->timed[0], serveConfig(per_shard));
    std::vector<nerf::Camera> cams;
    for (int f = 0; f < kLedgerFrames; ++f)
        cams.push_back(
            paths[0][size_t(f * kPathFrames / kLedgerFrames)].toCamera());
    const TracedLoop loop{nerf, sl.frames,
                          secondsBetween(run.start, run.end), stack->workers};
    measureRenderLayers(res, renderer, *stack->timed[0], *stack->fields[0],
                        cams, per_shard, loop, o.seed, spans);
    emitServeLayers(res, sl);
    res.add("bench.trace_overhead",
            fps_plain > 0 ? onTimeFps(run) / fps_plain : 0.0, "ratio",
            sl.frames);

    if (!o.trace_out.empty() && !spans.writeJson(o.trace_out))
        res.fail("could not write the trace to " + o.trace_out);
}

} // namespace

void
runServe(const Options &o, Result &res)
{
    if (o.trace)
        runTraced(o, res);
    else
        runUntraced(o, res);
}

} // namespace perfbench

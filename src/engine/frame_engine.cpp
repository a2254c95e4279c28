#include "engine/frame_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "engine/frame_graph.hpp"
#include "engine/render_session.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/telemetry.hpp"

namespace asdr::engine {

/** One admitted frame: request, state, stage graph, and the renderer
 *  executing its stages. Lives in FrameEngine::frames_ until the
 *  graph's on_done erases it. */
struct FrameEngine::InFlight
{
    InFlight(FrameRequest r, uint64_t frame_id)
        : req(std::move(r)), fs(req.camera), id(frame_id)
    {
    }

    FrameRequest req;
    core::FrameState fs;
    std::unique_ptr<core::AsdrRenderer> owned_renderer;
    const core::AsdrRenderer *renderer = nullptr;
    FrameGraph graph;
    std::promise<Frame> promise;
    uint64_t id;
    bool async = false; ///< deliver via callback/completed queue, no promise
    bool fresh_probes = false; ///< update the session cache on completion
    bool ran_probes = false;   ///< a fresh Phase I ran (session stats)
    uint64_t session_epoch = 0; ///< session probe epoch at admission
    std::chrono::steady_clock::time_point started_at; ///< admission time
    std::atomic<bool> delivered{false}; ///< outcome handed to a consumer
};

FrameEngine::FrameEngine(const EngineConfig &cfg) : cfg_(cfg)
{
    ASDR_ASSERT(cfg.max_frames_in_flight >= 1,
                "need at least one pipeline slot");
    pool_.start(std::max(1, core::resolveThreadCount(cfg.num_threads)));
}

FrameEngine::~FrameEngine()
{
    drain();
    pool_.stop();
}

std::future<Frame>
FrameEngine::submit(FrameRequest req)
{
    return enqueue(std::move(req), /*async=*/false);
}

uint64_t
FrameEngine::submitAsync(FrameRequest req)
{
    ASDR_ASSERT(req.on_complete || req.collect,
                "async submission needs a callback or collect");
    uint64_t id = 0;
    enqueue(std::move(req), /*async=*/true, &id);
    return id;
}

std::future<Frame>
FrameEngine::enqueue(FrameRequest req, bool async, uint64_t *id_out)
{
    ASDR_ASSERT(req.renderer != nullptr || req.field != nullptr,
                "request needs a renderer or a field");
    std::future<Frame> fut;
    std::vector<std::unique_ptr<InFlight>> failed;
    {
        std::lock_guard<std::mutex> lock(m_);
        const uint64_t id = next_id_++;
        if (id_out)
            *id_out = id;
        auto inf = std::make_unique<InFlight>(std::move(req), id);
        inf->async = async;
        // Wall clock starts at submission: time queued behind other
        // frames counts toward the frame's reported latency.
        inf->fs.start = std::chrono::steady_clock::now();
        if (!async)
            fut = inf->promise.get_future();
        frames_.emplace(id, std::move(inf));
        queue_.push_back(id);
        pumpLocked(failed);
        undelivered_ += int(failed.size());
    }
    // Admission failures are delivered outside m_: the consumer may be
    // a callback that submits again (which takes m_).
    if (!failed.empty()) {
        for (auto &f : failed)
            deliver(f.get(), Frame{}, f->graph.error());
        std::lock_guard<std::mutex> lock(m_);
        undelivered_ -= int(failed.size());
        idle_cv_.notify_all();
    }
    return fut;
}

std::future<Frame>
FrameEngine::submit(RenderSession &session, const nerf::Camera &camera)
{
    FrameRequest req(camera);
    req.renderer = &session.renderer();
    req.session = &session;
    return submit(std::move(req));
}

bool
FrameEngine::poll(FrameOutcome &out)
{
    std::lock_guard<std::mutex> lock(done_m_);
    if (done_.empty())
        return false;
    out = std::move(done_.front());
    done_.pop_front();
    return true;
}

size_t
FrameEngine::drainCompleted(std::vector<FrameOutcome> &out)
{
    std::lock_guard<std::mutex> lock(done_m_);
    const size_t n = done_.size();
    out.reserve(out.size() + n);
    for (auto &o : done_)
        out.push_back(std::move(o));
    done_.clear();
    return n;
}

size_t
FrameEngine::completedCount() const
{
    std::lock_guard<std::mutex> lock(done_m_);
    return done_.size();
}

void
FrameEngine::drain()
{
    std::unique_lock<std::mutex> lock(m_);
    idle_cv_.wait(lock, [&] {
        return queue_.empty() && in_flight_ == 0 && undelivered_ == 0;
    });
}

void
FrameEngine::deliver(InFlight *f, Frame &&frame, std::exception_ptr err)
{
    frame.id = f->id;
    frame.submitted_at = f->fs.start;
    frame.started_at = f->started_at;
    if (frame.finished_at == std::chrono::steady_clock::time_point())
        frame.finished_at = std::chrono::steady_clock::now();
    f->delivered.store(true, std::memory_order_release);
    if (!f->async) {
        if (err)
            f->promise.set_exception(err);
        else
            f->promise.set_value(std::move(frame));
        return;
    }
    if (f->req.on_complete) {
        f->req.on_complete(std::move(frame), err);
        return;
    }
    FrameOutcome out;
    out.frame = std::move(frame);
    out.error = err;
    std::lock_guard<std::mutex> lock(done_m_);
    done_.push_back(std::move(out));
}

void
FrameEngine::pumpLocked(std::vector<std::unique_ptr<InFlight>> &failed)
{
    while (in_flight_ < cfg_.max_frames_in_flight && !queue_.empty()) {
        const uint64_t id = queue_.front();
        queue_.pop_front();
        ++in_flight_;
        InFlight *f = frames_.at(id).get();
        try {
            launchLocked(f);
        } catch (...) {
            // Admission failed (e.g. allocation) before any task was
            // queued: hand the frame to the caller to fail outside the
            // lock, and free its slot instead of wedging the queue.
            auto it = frames_.find(id);
            it->second->graph.setError(std::current_exception());
            failed.push_back(std::move(it->second));
            frames_.erase(it);
            --in_flight_;
            continue;
        }
        // Execution priority: QoS class first, frame id second
        // (ThreadPool::composeKey) -- a lower class's ready stages
        // always outrank a higher class's in the worker scan, and
        // within a class older frames drain first, so pipelining fills
        // idle workers without inverting the pipeline. A throw mid-run
        // would leave queued tasks referencing a frame we can no longer
        // safely discard, so treat it as fatal rather than wedging the
        // engine (it only throws under allocation failure).
        try {
            f->graph.run(pool_, [this, id] { frameDone(id); },
                         ThreadPool::composeKey(f->req.priority, id));
        } catch (...) {
            panic("frame graph submission failed mid-run");
        }
    }
}

void
FrameEngine::launchLocked(InFlight *f)
{
    if (f->req.renderer) {
        f->renderer = f->req.renderer;
    } else {
        f->owned_renderer = std::make_unique<core::AsdrRenderer>(
            *f->req.field, f->req.config);
        f->renderer = f->owned_renderer.get();
    }
    f->started_at = std::chrono::steady_clock::now();
    const core::AsdrRenderer *r = f->renderer;
    // Derive the stage-graph shape once and store it: the graph below
    // is sized from it and beginFrame reads the stored copy instead of
    // deriving it again. frameShape depends only on the renderer's
    // config and the frame size.
    const core::FrameShape shape =
        r->frameShape(f->req.camera.width(), f->req.camera.height());
    f->fs.shape = shape;

    RenderSession *session = f->req.session;
    if (session) {
        if (!f->req.bypass_probe_cache)
            session->tryReuseProbes(shape, f->fs);
        f->ran_probes = shape.adaptive && !f->fs.probes_reused;
        f->fresh_probes = f->ran_probes && !f->req.bypass_probe_cache &&
                          session->sessionConfig().reuse_probes;
        f->session_epoch = session->probeEpoch();
    }

    // ---- the frame's stage graph ----
    FrameGraph &g = f->graph;
    // The fault sites fire once per frame (first stage), so a seeded
    // injector maps deterministically onto a frame sequence: a stall
    // models a stuck stage for the watchdog, a throw a compute fault
    // surfacing through the one-result-per-ticket path.
    // Every stage task records a telemetry span (one relaxed load when
    // tracing is off); multi-task nodes record one span per task, so a
    // trace shows the per-lane spread of probe rows and tiles.
    const int setup = g.addNode("ray setup", 1, [f, r](int) {
        telemetry::ScopedQos qc(uint8_t(f->req.priority));
        telemetry::ScopedSpan sp(telemetry::kSpanRaySetup, f->id,
                                 f->req.ticket);
        fault::fire(fault::kEngineStageStall); // sleeps when armed
        if (fault::fire(fault::kEngineStageThrow))
            throw std::runtime_error("injected: engine stage fault");
        r->beginFrame(f->fs);
    });
    int prev = setup;
    if (shape.adaptive && !f->fs.probes_reused) {
        const int probe =
            g.addNode("phase1 probes", shape.gh, [f, r](int gy) {
                telemetry::ScopedQos qc(uint8_t(f->req.priority));
                telemetry::ScopedSpan sp(telemetry::kSpanProbes, f->id,
                                         f->req.ticket);
                r->probeRow(f->fs, gy);
            });
        g.addEdge(setup, probe);
        prev = probe;
    }
    const int plan = g.addNode("sample planning", 1, [f, r](int) {
        telemetry::ScopedQos qc(uint8_t(f->req.priority));
        telemetry::ScopedSpan sp(telemetry::kSpanPlanning, f->id,
                                 f->req.ticket);
        r->planBudgets(f->fs);
    });
    g.addEdge(prev, plan);
    const int phase2 = g.addNode("phase2 tiles", shape.jobs, [f, r](int j) {
        telemetry::ScopedQos qc(uint8_t(f->req.priority));
        telemetry::ScopedSpan sp(telemetry::kSpanTiles, f->id,
                                 f->req.ticket);
        r->phase2Job(f->fs, j);
    });
    g.addEdge(plan, phase2);
    const int fin = g.addNode("finalize", 1, [this, f, r](int) {
        Frame frame;
        {
            // Scoped so the span is recorded before deliver() runs the
            // consumer callback -- a slow-frame dump collecting this
            // ticket's spans from inside on_complete must see it.
            telemetry::ScopedQos qc(uint8_t(f->req.priority));
            telemetry::ScopedSpan sp(telemetry::kSpanFinalize, f->id,
                                     f->req.ticket);
            RenderSession *s = f->req.session;
            if (s) {
                if (f->fresh_probes)
                    s->storeProbeCache(f->fs, f->id, f->session_epoch);
                s->onFrameDone(f->ran_probes, f->fs.probes_reused);
            }
            r->finalizeFrame(f->fs, &frame.stats);
            frame.image = std::move(f->fs.img);
            frame.finished_at = std::chrono::steady_clock::now();
        }
        deliver(f, std::move(frame), nullptr);
    });
    g.addEdge(phase2, fin);
    // The caller (pumpLocked) starts the graph once this throwing
    // preparation phase is over.
}

void
FrameEngine::frameDone(uint64_t id)
{
    std::unique_ptr<InFlight> dead;
    std::vector<std::unique_ptr<InFlight>> failed;
    bool dead_needs_delivery = false;
    {
        std::lock_guard<std::mutex> lock(m_);
        auto it = frames_.find(id);
        dead = std::move(it->second);
        frames_.erase(it);
        --in_flight_;
        pumpLocked(failed);
        // Claim the post-unlock deliveries while still inside m_ so a
        // concurrent drain() cannot observe the engine idle between
        // the slot release and the outcome reaching its consumer.
        dead_needs_delivery =
            !dead->delivered.load(std::memory_order_acquire);
        undelivered_ += int(failed.size()) + (dead_needs_delivery ? 1 : 0);
    }
    // A stage threw: the finalize node was skipped (nothing delivered),
    // so hand the error to the consumer.
    int delivered_now = 0;
    if (dead_needs_delivery) {
        std::exception_ptr err = dead->graph.error();
        deliver(dead.get(), Frame{},
                err ? err
                    : std::make_exception_ptr(
                          std::runtime_error("frame abandoned")));
        ++delivered_now;
    }
    for (auto &f : failed) {
        deliver(f.get(), Frame{}, f->graph.error());
        ++delivered_now;
    }
    if (delivered_now) {
        std::lock_guard<std::mutex> lock(m_);
        undelivered_ -= delivered_now;
    }
    idle_cv_.notify_all();
    // `dead` (graph included) is destroyed here, on the worker that ran
    // the graph's final task; the executing on_done closure was moved
    // out of the graph before the call, so this is safe.
}

} // namespace asdr::engine

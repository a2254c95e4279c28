/**
 * @file
 * Per-layer measurement shared by the traced runs of every workload:
 * the serial stage ledger over the renderer's public stage API, the
 * hash-encode replay, the accelerator-model frame, and the emission of
 * the nerf/core/engine/sim/server/net metrics.
 */

#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <vector>

#include "common.hpp"
#include "core/renderer.hpp"
#include "spans.hpp"
#include "timed_field.hpp"

namespace perfbench {

/** What the traced timed loop saw: nerf counter delta over `frames`
 *  frames in `wall_s` seconds on `workers` workers. */
struct TracedLoop
{
    NerfTotals nerf;
    size_t frames = 0;
    double wall_s = 0.0;
    int workers = 0;
};

/**
 * Run the serial ledger on `cams` (beginFrame -> probeRow* ->
 * planBudgets -> phase2Job* -> finalizeFrame on this thread, timing
 * every stage and the nerf batches inside it), time render() on the
 * same cameras with `threads` workers, replay the ledger's density
 * batches through HashGrid::encodeBatch and simulate the seed's first
 * render_asdr frame; then emit the nerf, core, engine and sim metrics.
 * Per-point costs come from the serial ledger, where one thread owns
 * the caches; busy time and batch shapes from `loop`. Ledger frames
 * must equal render()'s bitwise (checked). `renderer` must evaluate
 * through `timed`, which wraps `field`.
 */
void measureRenderLayers(Result &res, const asdr::core::AsdrRenderer &renderer,
                         TimedField &timed,
                         const asdr::nerf::InstantNgpField &field,
                         const std::vector<asdr::nerf::Camera> &cams,
                         int threads, const TracedLoop &loop, uint64_t seed,
                         SpanLog &spans);

/** Layer metrics of the serving path, zero on workloads without one. */
struct ServeLayers
{
    double queue_wait_ms_mean = 0.0, latency_ms_p50 = 0.0,
           latency_ms_p90 = 0.0;
    double dropped_share = 0.0, expired_share = 0.0, degraded_share = 0.0;
    double net_overhead_ms_p50 = 0.0, submit_ack_us_p50 = 0.0;
    double encode_us_per_frame = 0.0, decode_us_per_frame = 0.0,
           payload_bytes_per_frame = 0.0;
    double generator_late_ms_p90 = 0.0;
    size_t frames = 0;
};

void emitServeLayers(Result &res, const ServeLayers &s);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP

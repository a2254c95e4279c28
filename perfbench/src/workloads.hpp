/**
 * @file
 * Workload entry points. Each fills `res` with the end-to-end metrics
 * (untraced run) or the per-layer metrics (traced run).
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "common.hpp"

namespace perfbench {

/** render_asdr and render_baseline. */
void runRender(const Options &o, Result &res);

/** serve_wire. */
void runServe(const Options &o, Result &res);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP

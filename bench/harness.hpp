/**
 * @file
 * Shared support for the benchmark binaries that regenerate the paper's
 * tables and figures. Each bench builds scenarios from this harness and
 * prints rows in the paper's format; EXPERIMENTS.md records the
 * paper-vs-measured comparison for every artifact.
 */

#ifndef ASDR_BENCH_HARNESS_HPP
#define ASDR_BENCH_HARNESS_HPP

#include <memory>
#include <string>

#include "baseline/gpu_model.hpp"
#include "baseline/neurex.hpp"
#include "core/field_cache.hpp"
#include "core/ground_truth.hpp"
#include "core/presets.hpp"
#include "core/renderer.hpp"
#include "image/metrics.hpp"
#include "nerf/procedural_field.hpp"
#include "scene/scene_library.hpp"
#include "sim/accelerator.hpp"
#include "util/table.hpp"

namespace asdr::bench {

/** The NGP model each platform class serves (DESIGN.md §5: the edge
 *  accelerator's 2 MB memory holds a T=2^15 table set). */
nerf::NgpModelConfig platformModel(bool edge);

/** One scene's performance scenario on one platform class. */
struct PerfScenario
{
    std::string scene_name;
    bool edge = false;
    /** Hardware point for the ASDR accelerator. */
    sim::AccelConfig hw;
    /** Renderer settings for the ASDR system (default: full ASDR). */
    core::RenderConfig asdr_render;
    /** Renderer settings for the GPU/NeuRex baselines (default: fixed
     *  sampling + early termination, as Instant-NGP ships). */
    core::RenderConfig baseline_render;
    bool configured = false;

    static PerfScenario standard(const std::string &scene, bool edge);
};

/** Everything a performance row needs. */
struct PerfResult
{
    core::WorkloadProfile baseline_profile;
    core::WorkloadProfile asdr_profile;
    core::RenderStats asdr_stats;
    baseline::GpuReport gpu;
    baseline::NeurexReport neurex;
    sim::SimReport asdr;
    nerf::FieldCosts costs;

    double speedupVsGpu() const { return gpu.seconds / asdr.seconds; }
    double speedupNeurexVsGpu() const
    {
        return gpu.seconds / neurex.seconds;
    }
    double speedupVsNeurex() const { return neurex.seconds / asdr.seconds; }
    double energyEffVsGpu() const { return gpu.energy_j / asdr.energy_j; }
    double energyEffNeurexVsGpu() const
    {
        return gpu.energy_j / neurex.energy_j;
    }
};

/** Render both workloads for a scenario and run all platform models. */
PerfResult runPerfScenario(const PerfScenario &scenario);

/** Geometric mean over positive values. */
double geomean(const std::vector<double> &values);

/** Standard banner + reproduction note for a paper artifact. */
void benchHeader(const std::string &artifact, const std::string &note);

/**
 * One machine-readable result line: {"bench": <name>, "isa": <target>,
 * ...} printed on its own line so the perf-trajectory harness can grep
 * and parse results across PRs. `isa` is the kernel dispatch target the
 * row ran with ("x86-64-v3" or "default", util/isa.hpp), so rows from
 * different hosts or builds can be told apart. Values are escaped
 * minimally (quotes/backslash).
 */
class JsonLine
{
  public:
    explicit JsonLine(const std::string &bench);
    JsonLine &field(const std::string &key, const std::string &value);
    JsonLine &field(const std::string &key, const char *value);
    JsonLine &field(const std::string &key, double value);
    JsonLine &field(const std::string &key, int value);
    /** Print `{...}` followed by a newline. */
    void emit(std::ostream &os) const;

  private:
    std::string body_;
};

} // namespace asdr::bench

#endif // ASDR_BENCH_HARNESS_HPP

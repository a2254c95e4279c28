/**
 * @file
 * Shared pieces of the benchmark: options, the result line, order
 * statistics, fitted-field loading and the camera paths every workload
 * draws from its seed.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "image/image.hpp"
#include "net/protocol.hpp"
#include "nerf/ngp_field.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Poses per orbit of the render workloads (one orbit is 24 steps of
 *  15 degrees; a timed loop cycles it, so every run sees every view). */
constexpr int kRenderPathFrames = 24;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory holding the fitted fields (`fit` writes them). */
    std::string fields_dir = "perfbench/fields";
    /** Perfetto trace written by traced runs ("" = none). */
    std::string trace_out;
};

/** Order statistic with linear interpolation; 0 for an empty sample. */
double quantile(std::vector<double> v, double q);
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * The run's result: every metric with its unit and sample count, plus
 * the attempted/failed tally the correctness checks feed. Failures
 * carry a reason each so a failed run says what broke.
 */
class Result
{
  public:
    void add(const std::string &name, double value, const std::string &unit,
             size_t samples);
    void attempt(size_t n = 1) { attempted_ += n; }
    /** Record a failed operation or correctness check. */
    void fail(const std::string &why);
    bool correct() const { return failed_ == 0; }

    /** Detail line (sample counts, failure reasons), then the result
     *  line -- always the last line of standard output. */
    void print() const;

  private:
    struct Metric
    {
        std::string name, unit;
        double value = 0.0;
        size_t samples = 0;
    };
    std::vector<Metric> metrics_;
    std::vector<std::string> failures_;
    uint64_t attempted_ = 0, failed_ = 0;
};

/**
 * Fitted fields per scene: the field is fitted from `seed % 4`, so the
 * runs of any seed set need at most four fits per scene (fitting takes
 * longer than a run's set-up); the camera paths use the whole seed.
 */
constexpr uint64_t kFieldVariants = 4;

/** Training steps of every fitted field (the quality preset's). */
constexpr int kFitSteps = 2500;

inline uint64_t
fieldSeed(uint64_t seed)
{
    return seed % kFieldVariants;
}

/** Canonical path of a fitted field: keyed by scene, field seed and
 *  training steps. */
std::string fieldPath(const Options &o, const std::string &scene);

/** Load a fitted field; throws when the file is missing or does not
 *  match the model shape (random weights are never substituted). */
std::unique_ptr<asdr::nerf::InstantNgpField>
loadFitted(const Options &o, const std::string &scene);

/**
 * One full orbit of `frames` poses around `scene`, starting at an
 * angle drawn from `seed` (each viewer offsets its own start).
 */
std::vector<asdr::net::CameraSpec> orbitPath(const std::string &scene,
                                             int width, int height,
                                             int frames, uint64_t seed);

bool sameBits(const asdr::Image &a, const asdr::Image &b);

/** Peak resident set of this process so far, MB. */
double peakRssMb();

/** Worker threads: the CPUs this process may run on (its affinity). */
int hostThreads();

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP

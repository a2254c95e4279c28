/**
 * @file
 * Forwarding RadianceField decorator that times the batched density
 * and color networks. Every virtual forwards to the wrapped field, so
 * frames rendered through it are bitwise identical to frames rendered
 * through the field itself; the wrapper only observes.
 */

#ifndef PERFBENCH_TIMED_FIELD_HPP
#define PERFBENCH_TIMED_FIELD_HPP

#include <atomic>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "nerf/field.hpp"
#include "spans.hpp"

namespace perfbench {

/** Color batches shorter than this count as short (fixed overhead
 *  dominates them; ASDR's anchor batches are mostly short). */
constexpr int kShortColorBatch = 16;

/** Plain copy of the decorator's counters. */
struct NerfTotals
{
    uint64_t density_ns = 0, density_points = 0, density_calls = 0;
    uint64_t color_ns = 0, color_points = 0, color_calls = 0;
    uint64_t color_short_points = 0;

    NerfTotals operator-(const NerfTotals &o) const;
    NerfTotals operator+(const NerfTotals &o) const;
    uint64_t busyNs() const { return density_ns + color_ns; }
};

class TimedField final : public asdr::nerf::RadianceField
{
  public:
    explicit TimedField(const asdr::nerf::RadianceField &inner)
        : inner_(inner)
    {
    }

    asdr::nerf::DensityOutput density(const asdr::Vec3 &pos) const override
    {
        return inner_.density(pos);
    }
    asdr::Vec3 color(const asdr::Vec3 &pos, const asdr::Vec3 &dir,
                     const asdr::nerf::DensityOutput &den) const override
    {
        return inner_.color(pos, dir, den);
    }
    void densityBatch(const asdr::Vec3 *pos, int count,
                      asdr::nerf::DensityOutput *out) const override;
    void colorBatch(const asdr::Vec3 *pos, const asdr::Vec3 &dir,
                    const asdr::nerf::DensityOutput *den, int count,
                    asdr::Vec3 *out) const override;
    void traceLookups(const asdr::Vec3 &pos,
                      asdr::nerf::LookupSink &sink) const override
    {
        inner_.traceLookups(pos, sink);
    }
    asdr::nerf::TableSchema tableSchema() const override
    {
        return inner_.tableSchema();
    }
    asdr::nerf::FieldCosts costs() const override { return inner_.costs(); }
    std::string describe() const override { return inner_.describe(); }

    NerfTotals totals() const;

    /**
     * Single-threaded hooks of the untimed serial detail pass: while
     * attached, every density batch's positions are appended to
     * `capture` (replayed later through HashGrid::encodeBatch) and
     * every batch records a span under `parent`. Attach only while no
     * pool renders through this field.
     */
    void attachLedger(std::vector<asdr::Vec3> *capture,
                      std::vector<int> *capture_sizes, SpanLog *spans)
    {
        capture_ = capture;
        capture_sizes_ = capture_sizes;
        spans_ = spans;
    }
    void setSpanParent(uint64_t parent, uint64_t frame)
    {
        parent_ = parent;
        frame_ = frame;
    }

  private:
    const asdr::nerf::RadianceField &inner_;
    mutable std::atomic<uint64_t> density_ns_{0}, density_points_{0},
        density_calls_{0};
    mutable std::atomic<uint64_t> color_ns_{0}, color_points_{0},
        color_calls_{0}, color_short_points_{0};

    std::vector<asdr::Vec3> *capture_ = nullptr;
    std::vector<int> *capture_sizes_ = nullptr;
    SpanLog *spans_ = nullptr;
    uint64_t parent_ = 0, frame_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_FIELD_HPP

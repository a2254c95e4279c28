#include "timed_field.hpp"

namespace perfbench {

using namespace asdr;

NerfTotals
NerfTotals::operator-(const NerfTotals &o) const
{
    NerfTotals d;
    d.density_ns = density_ns - o.density_ns;
    d.density_points = density_points - o.density_points;
    d.density_calls = density_calls - o.density_calls;
    d.color_ns = color_ns - o.color_ns;
    d.color_points = color_points - o.color_points;
    d.color_calls = color_calls - o.color_calls;
    d.color_short_points = color_short_points - o.color_short_points;
    return d;
}

NerfTotals
NerfTotals::operator+(const NerfTotals &o) const
{
    NerfTotals d;
    d.density_ns = density_ns + o.density_ns;
    d.density_points = density_points + o.density_points;
    d.density_calls = density_calls + o.density_calls;
    d.color_ns = color_ns + o.color_ns;
    d.color_points = color_points + o.color_points;
    d.color_calls = color_calls + o.color_calls;
    d.color_short_points = color_short_points + o.color_short_points;
    return d;
}

namespace {

uint64_t
elapsedNs(Clock::time_point a, Clock::time_point b)
{
    return uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

} // namespace

void
TimedField::densityBatch(const Vec3 *pos, int count,
                         nerf::DensityOutput *out) const
{
    const auto t0 = Clock::now();
    inner_.densityBatch(pos, count, out);
    const auto t1 = Clock::now();
    density_ns_.fetch_add(elapsedNs(t0, t1), std::memory_order_relaxed);
    density_points_.fetch_add(uint64_t(count), std::memory_order_relaxed);
    density_calls_.fetch_add(1, std::memory_order_relaxed);
    if (capture_) {
        capture_->insert(capture_->end(), pos, pos + count);
        capture_sizes_->push_back(count);
    }
    if (spans_)
        spans_->add("nerf.density", t0, t1, spans_->newId(), parent_, frame_,
                    0);
}

void
TimedField::colorBatch(const Vec3 *pos, const Vec3 &dir,
                       const nerf::DensityOutput *den, int count,
                       Vec3 *out) const
{
    const auto t0 = Clock::now();
    inner_.colorBatch(pos, dir, den, count, out);
    const auto t1 = Clock::now();
    color_ns_.fetch_add(elapsedNs(t0, t1), std::memory_order_relaxed);
    color_points_.fetch_add(uint64_t(count), std::memory_order_relaxed);
    color_calls_.fetch_add(1, std::memory_order_relaxed);
    if (count < kShortColorBatch)
        color_short_points_.fetch_add(uint64_t(count),
                                      std::memory_order_relaxed);
    if (spans_)
        spans_->add("nerf.color", t0, t1, spans_->newId(), parent_, frame_,
                    0);
}

NerfTotals
TimedField::totals() const
{
    NerfTotals t;
    t.density_ns = density_ns_.load(std::memory_order_relaxed);
    t.density_points = density_points_.load(std::memory_order_relaxed);
    t.density_calls = density_calls_.load(std::memory_order_relaxed);
    t.color_ns = color_ns_.load(std::memory_order_relaxed);
    t.color_points = color_points_.load(std::memory_order_relaxed);
    t.color_calls = color_calls_.load(std::memory_order_relaxed);
    t.color_short_points =
        color_short_points_.load(std::memory_order_relaxed);
    return t;
}

} // namespace perfbench

/**
 * @file
 * In-memory span log of the traced run, written out as Chrome
 * trace_event JSON (loadable in Perfetto / chrome://tracing) when the
 * run ends. Spans are recorded by the benchmark around its calls into
 * the library, never inside it.
 */

#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class SpanLog
{
  public:
    /** Spans past this many are counted but not kept. */
    static constexpr size_t kMaxSpans = 400000;

    SpanLog() : origin_(Clock::now()) {}

    /** A fresh span id (ids are allocated when a span opens, so a
     *  child can name its parent before either closes). */
    uint64_t newId() { return next_id_.fetch_add(1) + 1; }

    /** Record a closed span. `name` must be a string literal. */
    void add(const char *name, Clock::time_point start,
             Clock::time_point end, uint64_t id, uint64_t parent,
             uint64_t frame, int lane);

    /** Write {"traceEvents": [...]}; false on an I/O error. */
    bool writeJson(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        int64_t start_ns, end_ns;
        uint64_t id, parent, frame;
        int lane;
    };
    const Clock::time_point origin_;
    std::atomic<uint64_t> next_id_{0};
    mutable std::mutex m_;
    std::vector<Span> spans_; // guarded by m_
    uint64_t dropped_ = 0;    // guarded by m_
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP

#include "spans.hpp"

#include <cstdio>

namespace perfbench {

void
SpanLog::add(const char *name, Clock::time_point start, Clock::time_point end,
             uint64_t id, uint64_t parent, uint64_t frame, int lane)
{
    const auto ns = [this](Clock::time_point t) {
        return int64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
                .count());
    };
    std::lock_guard<std::mutex> lock(m_);
    if (spans_.size() >= kMaxSpans) {
        ++dropped_;
        return;
    }
    spans_.push_back({name, ns(start), ns(end), id, parent, frame, lane});
}

bool
SpanLog::writeJson(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(m_);
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": "
                    "{\"dropped_spans\": %llu}, \"traceEvents\": [\n",
                 (unsigned long long)dropped_);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": "
                     "\"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": "
                     "%.3f, \"args\": {\"id\": %llu, \"parent\": %llu, "
                     "\"frame\": %llu}}\n",
                     i ? "," : "", s.name, s.lane, double(s.start_ns) / 1e3,
                     double(s.end_ns - s.start_ns) / 1e3,
                     (unsigned long long)s.id, (unsigned long long)s.parent,
                     (unsigned long long)s.frame);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench

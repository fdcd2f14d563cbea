#include <algorithm>
#include <unordered_map>

#include "bench_logic.hpp"

namespace perfbench {

std::uint64_t covered_ns(
    std::uint64_t begin, std::uint64_t end,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals) {
  for (auto& [b, e] : intervals) {
    b = std::clamp(b, begin, end);
    e = std::clamp(e, begin, end);
  }
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = begin;  // end of the union walked so far
  for (const auto& [b, e] : intervals) {
    const std::uint64_t from = std::max(b, reach);
    if (e > from) {
      covered += e - from;
      reach = e;
    }
  }
  return covered;
}

std::map<std::uint64_t, std::uint64_t> self_times_ns(
    const std::vector<avd::obs::SpanRecord>& spans) {
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const avd::obs::SpanRecord& s : spans)
    if (s.parent_span_id != 0)
      children[s.parent_span_id].emplace_back(s.begin_ns, s.end_ns);

  std::map<std::uint64_t, std::uint64_t> out;
  for (const avd::obs::SpanRecord& s : spans) {
    if (s.span_id == 0) continue;
    const std::uint64_t duration = s.end_ns - s.begin_ns;
    const auto it = children.find(s.span_id);
    out[s.span_id] =
        it == children.end()
            ? duration
            : duration - covered_ns(s.begin_ns, s.end_ns, it->second);
  }
  return out;
}

std::map<std::string, SpanAggregate> aggregate_by_name(
    const std::vector<avd::obs::SpanRecord>& spans) {
  const std::map<std::uint64_t, std::uint64_t> self = self_times_ns(spans);
  std::map<std::string, SpanAggregate> out;
  for (const avd::obs::SpanRecord& s : spans) {
    SpanAggregate& a = out[s.name];
    const auto duration = static_cast<double>(s.end_ns - s.begin_ns);
    a.total_ms += duration / 1e6;
    const auto it = self.find(s.span_id);
    a.self_ms += (it != self.end() ? static_cast<double>(it->second) : duration) / 1e6;
    ++a.count;
  }
  return out;
}

}  // namespace perfbench

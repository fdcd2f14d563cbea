// Pure logic of the benchmark, kept free of the pipeline so it can be tested
// on hand-built inputs: the percentile rule, the paced source's due-time
// schedule and the ledger's self-time computation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "avd/obs/trace.hpp"

namespace perfbench {

// --- percentiles -----------------------------------------------------------

/// Value at quantile q (0..1) of `values`, linearly interpolated between the
/// closest ranks. Throws on an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile: no samples");
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// The highest percentile of {99.9, 99, 90, 50} that keeps at least `beyond`
/// samples above it in a sample of `n`: a percentile backed by fewer than
/// ten samples past it is noise. Returns 0 when not even the median
/// qualifies.
[[nodiscard]] inline double highest_supported_percentile(std::size_t n,
                                                         std::size_t beyond = 10) {
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    // Samples strictly past the p-th percentile: n * (1 - p/100), rounded
    // down so a sample of 100 supports p90 (exactly ten past it).
    const auto past = static_cast<std::size_t>(
        std::floor(static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9));
    if (past >= beyond) return p;
  }
  return 0.0;
}

// --- paced (open-loop) source schedule -------------------------------------

/// Due times of an open-loop camera: frame k of stream s is due at
/// origin + phase(s) + k / fps, where the phases spread the streams evenly
/// over one frame period so the aggregate arrivals are evenly spaced.
struct PacedSchedule {
  double fps = 5.0;
  int streams = 1;

  /// Seconds after the origin at which frame `k` of stream `s` is due.
  [[nodiscard]] double due_s(int s, int k) const {
    return (static_cast<double>(s) / static_cast<double>(streams) +
            static_cast<double>(k)) /
           fps;
  }
  /// How late a pull at `pulled_s` (seconds after the origin) delivers
  /// frame `k` of stream `s`: 0 when the source had to wait for the due
  /// time, otherwise the time past it.
  [[nodiscard]] double lateness_s(int s, int k, double pulled_s) const {
    return std::max(0.0, pulled_s - due_s(s, k));
  }
};

// --- ledger ----------------------------------------------------------------

/// Length of the part of [begin, end) that the union of `intervals` covers
/// (each interval clipped to [begin, end) first; overlaps count once).
[[nodiscard]] std::uint64_t covered_ns(
    std::uint64_t begin, std::uint64_t end,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals);

/// Self time of every span: its duration minus the part of it that its
/// direct children (spans whose parent_span_id is its span_id) cover.
/// Children running concurrently on other threads overlap and count once.
/// Result keyed by span_id.
[[nodiscard]] std::map<std::uint64_t, std::uint64_t> self_times_ns(
    const std::vector<avd::obs::SpanRecord>& spans);

/// Aggregates of named spans: total duration, total self time and count.
struct SpanAggregate {
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::size_t count = 0;
};

/// Per-name totals over a span set (self time from self_times_ns).
[[nodiscard]] std::map<std::string, SpanAggregate> aggregate_by_name(
    const std::vector<avd::obs::SpanRecord>& spans);

}  // namespace perfbench

// The benchmark's three workloads (see perfbench/README.md for why each
// exists and which layers it stresses).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_logic.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// One row of the per-layer table: a metric's value, the number of samples
/// it was computed from and where the number comes from.
struct LedgerRow {
  double value = 0.0;
  std::size_t samples = 0;
  std::string source;
};

struct RunResult {
  std::int64_t attempted = 0;
  /// Frames that threw, went missing or failed the reference check.
  std::int64_t failed = 0;
  /// Checks beyond per-frame failures (sample counts, replay equivalence).
  std::vector<std::string> check_failures;
  std::vector<Metric> end_to_end;               ///< untraced runs
  std::map<std::string, LedgerRow> ledger;      ///< traced runs
  std::vector<avd::obs::SpanRecord> spans;      ///< traced runs, written at exit
  std::vector<std::string> notes;               ///< human-readable lines

  [[nodiscard]] bool correct() const {
    return failed == 0 && check_failures.empty() && attempted > 0;
  }
};

/// The per-layer metrics every traced run reports, in table order, with
/// their units. A workload that does not exercise a layer reports it as 0
/// with 0 samples.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

[[nodiscard]] RunResult run_drive_hd(const RunOptions& options);
[[nodiscard]] RunResult run_night_hd(const RunOptions& options);
[[nodiscard]] RunResult run_serve_640(const RunOptions& options);

}  // namespace perfbench

// perfbench: the repository benchmark's workload runner.
//
//   perfbench --workload drive_hd|night_hd|serve_640 --seed N --seconds S
//             --trace 0|1
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// ledger and writes the traced run's spans to .bench_out/ when it ends.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "avd/soc/trace_export.hpp"
#include "workloads.hpp"

namespace {

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "drive_hd|night_hd|serve_640 --seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (!have_workload || argc % 2 != 1) return usage("missing arguments");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  perfbench::RunResult result;
  try {
    if (options.workload == "drive_hd")
      result = perfbench::run_drive_hd(options);
    else if (options.workload == "night_hd")
      result = perfbench::run_night_hd(options);
    else if (options.workload == "serve_640")
      result = perfbench::run_serve_640(options);
    else
      return usage(("unknown workload " + options.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : result.notes)
    std::printf("  %s\n", note.c_str());
  for (const std::string& failure : result.check_failures)
    std::printf("  CHECK FAILED: %s\n", failure.c_str());
  std::printf("  frames attempted %lld, failed %lld, failed_frac %g "
              "(reference check against AdaptiveSystem::evaluate_frame / "
              "run())\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              result.attempted > 0 ? static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted)
                                   : 1.0);

  std::vector<perfbench::Metric> entries;
  if (options.trace) {
    std::printf("\nper-layer ledger (%s)\n", options.workload.c_str());
    std::printf("  %-30s %8s %14s %8s  %s\n", "metric", "unit", "value",
                "samples", "source");
    for (const auto& [name, unit] : perfbench::per_layer_metrics()) {
      const auto it = result.ledger.find(name);
      const bool have = it != result.ledger.end();
      const double value = have ? it->second.value : 0.0;
      std::printf("  %-30s %8s %14.4f %8zu  %s\n", name.c_str(), unit.c_str(),
                  value, have ? it->second.samples : 0,
                  have ? it->second.source.c_str() : "not exercised");
      entries.push_back({name, unit, value});
    }
    std::printf("\nspan self time (span minus the part its children cover)\n");
    std::printf("  %-26s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto& [name, agg] : perfbench::aggregate_by_name(result.spans))
      std::printf("  %-26s %8zu %12.2f %12.2f\n", name.c_str(), agg.count,
                  agg.total_ms, agg.self_ms);
    // Spans stay in memory during the run and are written out only now.
    const std::filesystem::path dir = ".bench_out";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / (options.workload + "-seed" +
                                     std::to_string(options.seed) +
                                     ".trace.json"))
                                 .string();
    avd::soc::write_chrome_trace(avd::soc::EventLog{}, result.spans, path);
    std::printf("\nwrote %zu spans to %s\n", result.spans.size(), path.c_str());
  } else {
    std::printf("\nend-to-end metrics (%s)\n", options.workload.c_str());
    for (const perfbench::Metric& m : result.end_to_end) {
      std::printf("  %-22s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
      entries.push_back({m.name, m.unit, m.value});
    }
  }

  bool correct = result.correct();
  std::string json = "{\"metrics\": {";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!std::isfinite(entries[i].value)) {
      correct = false;
      entries[i].value = 0.0;
    }
    json += (i ? ", \"" : "\"") + entries[i].name + "\": {\"value\": " +
            number(entries[i].value) + ", \"unit\": \"" + entries[i].unit +
            "\"}";
  }
  json += "}, \"correct\": " + std::string(correct ? "true" : "false") +
          ", \"attempted\": " + std::to_string(result.attempted) +
          ", \"failed\": " + std::to_string(result.failed) + "}";
  std::printf("%s\n", json.c_str());
  return 0;
}

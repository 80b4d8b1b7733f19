#pragma once

// The three benchmark workloads. Each drives the library only through its
// public entry points, times those calls from here, checks every output,
// and reports end-to-end metrics (untraced run) or per-layer metrics
// (traced run).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics of the untraced run, reported on every workload.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Metrics of the traced run, reported on every workload (0 where the
/// workload never enters the layer).
const std::vector<MetricSpec>& per_layer_metrics();
const std::vector<std::string>& workload_names();

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_dir;  ///< traced runs write their spans here
};

struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, double> metrics;  ///< by MetricSpec name
  std::vector<std::string> errors;        ///< correctness failures
  std::vector<std::string> notes;         ///< human-readable summary lines
};

/// Runs one workload; throws std::invalid_argument for an unknown name.
RunResult run_workload(const RunConfig& config);

}  // namespace perfbench

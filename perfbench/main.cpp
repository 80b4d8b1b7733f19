// gridroute benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--span-dir <dir>]
//   perfbench --list-metrics
//   perfbench --self-test
//
// Prints human-readable notes, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <regex>
#include <set>
#include <string>

#include "inputs.hpp"
#include "stats.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

void print_json_string(const std::string& s) {
  std::cout << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') std::cout << '\\';
    std::cout << c;
  }
  std::cout << '"';
}

int list_metrics() {
  auto list = [](const std::vector<MetricSpec>& specs) {
    std::cout << '[';
    for (std::size_t i = 0; i < specs.size(); ++i)
      std::cout << (i ? "," : "") << "[\"" << specs[i].name << "\",\"" << specs[i].unit
                << "\"]";
    std::cout << ']';
  };
  std::cout << "{\"end_to_end\":";
  list(end_to_end_metrics());
  std::cout << ",\"per_layer\":";
  list(per_layer_metrics());
  std::cout << ",\"workloads\":[";
  for (std::size_t i = 0; i < workload_names().size(); ++i) {
    std::cout << (i ? "," : "");
    print_json_string(workload_names()[i]);
  }
  std::cout << "]}\n";
  return 0;
}

int self_test() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << '\n';
    failures += ok ? 0 : 1;
  };

  // The percentile rule: the highest percentile with >= 10 samples beyond.
  expect(samples_beyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  expect(tail_rule_percentile(1000) == 99, "p99 needs 1000 samples");
  expect(tail_rule_percentile(999) == 95, "999 samples fall back to p95");
  expect(tail_rule_percentile(10000) == 99.9, "p99.9 needs 10000 samples");
  expect(tail_rule_percentile(200) == 95, "p95 needs 200 samples");
  expect(tail_rule_percentile(100) == 90 && tail_rule_percentile(99) == 75,
         "p90 needs 100 samples");
  expect(tail_rule_percentile(20) == 50 && tail_rule_percentile(19) == 0,
         "no percentile below 20 samples");
  std::vector<double> ramp;
  for (int i = 1; i <= 100; ++i) ramp.push_back(i);
  expect(percentile(ramp, 50) == 50 && percentile(ramp, 90) == 90 &&
             percentile(ramp, 99) == 99 && percentile(ramp, 100) == 100,
         "nearest-rank percentiles of 1..100");

  // Generator determinism: the same seed gives byte-identical inputs,
  // another seed different ones.
  for (const std::uint64_t seed : {1ull, 77ull}) {
    const std::string s = std::to_string(seed);
    expect(fingerprint(sparse_corpus(seed, 6)) == fingerprint(sparse_corpus(seed, 6)),
           "route-sparse inputs repeat for seed " + s);
    expect(fingerprint(eco_inputs(seed, 500)) == fingerprint(eco_inputs(seed, 500)),
           "eco-stream inputs repeat for seed " + s);
    expect(fingerprint(service_inputs(seed, 400, 2, 0.25, 32)) ==
               fingerprint(service_inputs(seed, 400, 2, 0.25, 32)),
           "service-mix inputs repeat for seed " + s);
  }
  expect(fingerprint(sparse_corpus(1, 6)) != fingerprint(sparse_corpus(2, 6)) &&
             fingerprint(eco_inputs(1, 500)) != fingerprint(eco_inputs(2, 500)) &&
             fingerprint(service_inputs(1, 400, 2, 0.25, 32)) !=
                 fingerprint(service_inputs(2, 400, 2, 0.25, 32)),
         "another seed gives other inputs");

  // Metric names and units.
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  bool names_ok = true;
  for (const auto* specs : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const MetricSpec& m : *specs) {
      const bool ok = std::regex_match(m.name, name_re) &&
                      std::regex_match(m.unit, unit_re) && seen.insert(m.name).second;
      if (!ok) std::cout << "  bad metric name or unit: " << m.name << '\n';
      names_ok &= ok;
    }
  expect(names_ok, "metric names match [A-Za-z0-9_.-], units are valid, no repeats");

  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED") << '\n';
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--span-dir <dir>]\n"
               "       perfbench --list-metrics | --self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") return list_metrics();
    if (arg == "--self-test") return self_test();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--span-dir") {
      config.span_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || config.seconds <= 0) return usage();

  RunResult result;
  try {
    result = run_workload(config);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }

  if (result.attempted == 0) {  // set-up itself failed: one failed operation
    result.attempted = 1;
    result.failed = 1;
    result.correct = false;
  }
  std::cout << "workload=" << config.workload << " seed=" << config.seed
            << " trace=" << (config.trace ? 1 : 0) << " attempted=" << result.attempted
            << " failed=" << result.failed << '\n';
  for (const std::string& note : result.notes) std::cout << note << '\n';
  for (const std::string& error : result.errors) std::cout << "CHECK FAILED: " << error << '\n';

  const auto& specs = config.trace ? per_layer_metrics() : end_to_end_metrics();
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    double v = result.metrics.count(specs[i].name) ? result.metrics.at(specs[i].name) : 0;
    if (!std::isfinite(v)) v = 0;
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", v);
    std::cout << (i ? ", " : "") << '"' << specs[i].name << "\": {\"value\": " << value
              << ", \"unit\": \"" << specs[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

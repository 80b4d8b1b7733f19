#pragma once

// Seeded input generation for the benchmark workloads. Everything here is
// owned by the benchmark: problems are written straight to the library's
// plain-text problem format, so the program under test receives only text
// (or, for the ECO stream, ProblemEdits) and a change to the library's own
// generators or writers can never change what is measured.

#include <cstdint>
#include <string>
#include <vector>

#include "core/delta.hpp"

namespace perfbench {

/// splitmix64: small, fast, and fixed here so inputs never depend on the
/// library's RNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int uniform(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// FNV-1a, folded incrementally over every generated input.
struct Fingerprint {
  std::uint64_t value = 1469598103934665603ull;
  void add(const std::string& bytes);
  std::string hex() const;
};

/// One problem of a route corpus: its family label and its text.
struct CorpusItem {
  std::string family;
  std::string text;
};

/// route-sparse: 100x64 tiled boards of 80 short three-pin nets each.
std::vector<CorpusItem> sparse_corpus(std::uint64_t seed, int count);

/// eco-stream: a routed-board base problem plus a chain of single-op local
/// edits (pin moves and 1x1 obstacles near a pin), each valid against the
/// problem left by the edits before it.
struct EcoInputs {
  std::string base_text;
  std::vector<gridroute::ProblemEdit> edits;
  std::vector<std::string> edit_lines;  ///< one text line per edit
};
EcoInputs eco_inputs(std::uint64_t seed, int edit_count);

/// service-mix: a hot set the result cache holds, a pool of fresh misses
/// from bounded-cost families, and a Poisson arrival schedule.
struct Arrival {
  double due_ms = 0;   ///< offset from the start of the schedule
  bool hit = false;    ///< drawn from the hot set
  int index = 0;       ///< into hot or misses
};
struct ServiceInputs {
  std::vector<std::string> hot;
  std::vector<std::string> misses;
  std::vector<Arrival> arrivals;
};
/// `rate_per_s` Poisson arrivals over `seconds`, `miss_share` of them
/// fresh misses.
ServiceInputs service_inputs(std::uint64_t seed, double rate_per_s,
                             double seconds, double miss_share, int hot_count);

/// Folds every input of a workload into one fingerprint.
std::string fingerprint(const std::vector<CorpusItem>& corpus);
std::string fingerprint(const EcoInputs& inputs);
std::string fingerprint(const ServiceInputs& inputs);

}  // namespace perfbench

#include "stats.hpp"

#include <cmath>
#include <numeric>

namespace perfbench {

namespace {
int rank(int n, double q) {  // 1-based nearest rank
  const int r = static_cast<int>(std::ceil(q / 100.0 * n - 1e-9));
  return r < 1 ? 1 : (r > n ? n : r);
}
}  // namespace

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[static_cast<std::size_t>(rank(static_cast<int>(sorted.size()), q) - 1)];
}

int samples_beyond(int n, double q) { return n <= 0 ? 0 : n - rank(n, q); }

double tail_rule_percentile(int n) {
  for (const double q : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
    if (samples_beyond(n, q) >= kMinBeyond) return q;
  return 0;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace perfbench

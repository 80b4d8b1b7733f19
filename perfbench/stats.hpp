#pragma once

// Order statistics for latency samples, and the tail-percentile rule: a
// percentile is reported only when at least kMinBeyond samples lie beyond
// it.

#include <vector>

namespace perfbench {

inline constexpr int kMinBeyond = 10;

/// Nearest-rank percentile (q in [0, 100]) of an ascending-sorted sample;
/// 0 for an empty sample.
double percentile(const std::vector<double>& sorted, double q);

/// Samples strictly beyond the nearest-rank q-th percentile of n samples.
int samples_beyond(int n, double q);

/// Highest of 99.9, 99, 95, 90, 75 and 50 with at least kMinBeyond of n
/// samples beyond it; 0 when even the median has fewer.
double tail_rule_percentile(int n);

double mean(const std::vector<double>& values);

}  // namespace perfbench

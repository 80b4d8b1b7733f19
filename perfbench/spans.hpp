#pragma once

// In-memory span log for the traced run. The benchmark opens a span around
// each public library call it makes (and records the service's lifecycle
// intervals from its own trace sink), keeps them all in memory, and writes
// them out once at exit. Single-threaded: only the benchmark's driving
// thread records.

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two time points.
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  const char* name = "";
  double start_ms = 0;  ///< since the log's epoch
  double end_ms = 0;
  int parent = -1;      ///< index of the enclosing span, -1 for a root
  long long request = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), epoch_(Clock::now()) {}

  bool on() const { return on_; }
  double since_epoch(Clock::time_point t) const { return ms_between(epoch_, t); }

  /// Opens a span now; -1 (and nothing recorded) when the log is off.
  int open(const char* name, int parent, long long request);
  void close(int id);
  /// Records a finished span with known bounds.
  int add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent, long long request);

  /// Per span name: summed self time, the duration minus the part covered
  /// by child spans.
  std::map<std::string, double> self_ms() const;

  /// Writes one JSON object per span (name, start, end, parent, request).
  bool write_jsonl(const std::string& path) const;

 private:
  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, int parent, long long request)
      : log_(log), id_(log.open(name, parent, request)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace perfbench

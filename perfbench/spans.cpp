#include "spans.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

int SpanLog::open(const char* name, int parent, long long request) {
  if (!on_) return -1;
  const double now = since_epoch(Clock::now());
  spans_.push_back({name, now, now, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ms = since_epoch(Clock::now());
}

int SpanLog::add(const char* name, Clock::time_point start, Clock::time_point end,
                 int parent, long long request) {
  if (!on_) return -1;
  spans_.push_back({name, since_epoch(start), since_epoch(end), parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> SpanLog::self_ms() const {
  // Children of one span never overlap each other here (the driving thread
  // makes one call at a time), so the covered part is the sum of their
  // durations clipped to the parent.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    covered[static_cast<std::size_t>(s.parent)] +=
        std::max(0.0, std::min(s.end_ms, p.end_ms) - std::max(s.start_ms, p.start_ms));
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] +=
        std::max(0.0, spans_[i].end_ms - spans_[i].start_ms - covered[i]);
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  out.setf(std::ios::fixed);
  out.precision(4);
  for (const Span& s : spans_)
    out << "{\"name\":\"" << s.name << "\",\"start_ms\":" << s.start_ms
        << ",\"end_ms\":" << s.end_ms << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/api.hpp"
#include "core/delta.hpp"
#include "heap.hpp"
#include "inputs.hpp"
#include "io/solution_format.hpp"
#include "io/text_format.hpp"
#include "obs/trace.hpp"
#include "service/routing_service.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "verify/verify.hpp"

namespace perfbench {

using namespace gridroute;

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"jobs_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"slo_attainment", "share"},
      {"completion_rate", "share"},
      {"wire_nodes", "count"},
      {"vias", "count"},
      {"peak_heap_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"io.parse_ms", "ms"},
      {"io.serialize_ms", "ms"},
      {"io.bytes_out", "B"},
      {"problem.validate_ms", "ms"},
      {"problem.hash_ms", "ms"},
      {"core.route_ms", "ms"},
      {"core.run_ms", "ms"},
      {"core.improve_ms", "ms"},
      {"core.expansions", "count"},
      {"search.ns_per_expansion", "ns"},
      {"core.weak_attempts", "count"},
      {"core.weak_modifications", "count"},
      {"core.weak_success_ratio", "share"},
      {"core.strong_ripups", "count"},
      {"core.nets_failed", "count"},
      {"delta.route_delta_ms", "ms"},
      {"delta.apply_edit_ms", "ms"},
      {"delta.assess_ms", "ms"},
      {"delta.plan_ms", "ms"},
      {"delta.warm_route_ms", "ms"},
      {"delta.expansions", "count"},
      {"delta.rerouted_nets", "count"},
      {"delta.preserved_share", "share"},
      {"verify.ms", "ms"},
      {"verify.delta_equiv_ms", "ms"},
      {"service.submit_ms", "ms"},
      {"service.queue_wait_hit_ms", "ms"},
      {"service.queue_wait_miss_ms", "ms"},
      {"service.hit_latency_p50_ms", "ms"},
      {"service.miss_latency_p50_ms", "ms"},
      {"service.cache_hit_rate", "share"},
      {"service.peak_queue_depth", "count"},
      {"service.rejected", "count"},
      {"service.retried", "count"},
      {"service.browned_out", "count"},
      {"service.slo_max_rate_per_s", "1/s"},
      {"gen.late_ms_p99", "ms"},
      {"gen.late_ms_max", "ms"},
      {"trace.overhead_share", "share"},
  };
  return kMetrics;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "route-sparse", "eco-stream", "service-mix"};
  return kNames;
}

namespace {

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetups = 11;

RouterOptions bench_options() {
  RouterOptions options;  // library defaults, on one thread
  options.threads = 1;
  options.net_threads = 1;
  return options;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile(v, 50);
}

/// Runs `make` kSetups times, timing each; keeps the last product.
template <typename T>
T timed_setup(const std::function<T()>& make, std::vector<double>* seconds) {
  T product{};
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    product = make();
    seconds->push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  return product;
}

/// Moves the calling thread to the next CPU it may run on at each pass of a
/// closed loop, and restores its CPU set when destroyed. On the host the
/// benchmark was tuned on (4 vCPUs, shared) one vCPU can run the same work
/// 1.7 times slower than another for a minute or more, and a lone busy
/// thread stays on one vCPU, so without this a whole run could inherit the
/// slowest one.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next_pass() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[pass_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t pass_ = 0;
};

/// Everything a run accumulates toward its end-to-end metrics.
///
/// Closed-loop workloads visit a fixed list of operations in passes until
/// the time is up and keep each operation's fastest run. On the tuning host
/// outside contention slows all work by up to 60% for seconds or minutes at
/// a time -- one route of one instance took 90 to 146 ms within a single
/// process, with thread CPU time equal to wall time -- and a typical run of
/// an operation was 1.3 to 1.7 times its fastest. The lists are short
/// enough that each operation runs 20 times or more, on every CPU in turn
/// (CpuRotation), so its fastest run falls in one of the quiet moments.
/// Quality sums count each operation once.
struct Tally {
  long long attempted = 0;  ///< runs
  long long failed = 0;     ///< runs that did not complete
  std::vector<double> best;  ///< per operation: fastest completed run, ms; -1 none
  long long routed = 0, routable = 0;
  double wire = 0, vias = 0;
  long long solutions = 0;

  void visit(std::size_t op) {
    if (op >= best.size()) best.resize(op + 1, -1);
  }
  void record(std::size_t op, double ms) {
    visit(op);
    best[op] = best[op] < 0 ? ms : std::min(best[op], ms);
  }
  std::vector<double> sorted_latencies() const {
    std::vector<double> v;
    for (const double ms : best)
      if (ms >= 0) v.push_back(ms);
    std::sort(v.begin(), v.end());
    return v;
  }
  /// Completed operations per second of their summed (fastest) run time.
  double closed_loop_rate() const {
    double busy = 0;
    long long done = 0;
    for (const double ms : best)
      if (ms >= 0) busy += ms, ++done;
    return busy > 0 ? done * 1000.0 / busy : 0;
  }
  void add_solution(const VerifyReport& report) {
    routed += report.completed_net_count;
    routable += report.routable_net_count;
    wire += report.total_wire_nodes;
    vias += report.total_vias;
    ++solutions;
  }
};

struct Shape {
  double slo_ms;   ///< latency limit for slo_attainment
  double tail_q;   ///< latency_tail_ms percentile
};

void fill_end_to_end(RunResult& out, const Tally& t, const Shape& shape,
                     const std::vector<double>& setup_s, double jobs_per_s) {
  const std::vector<double> lat = t.sorted_latencies();
  const int n = static_cast<int>(lat.size());
  const auto within = std::upper_bound(lat.begin(), lat.end(), shape.slo_ms) - lat.begin();
  out.metrics["setup_s"] = median_of(setup_s);
  out.metrics["jobs_per_s"] = jobs_per_s;
  out.metrics["latency_p50_ms"] = percentile(lat, 50);
  out.metrics["latency_p90_ms"] = percentile(lat, 90);
  out.metrics["latency_tail_ms"] = percentile(lat, shape.tail_q);
  // Operations that failed or never completed count as misses.
  out.metrics["slo_attainment"] =
      t.best.empty() ? 0 : static_cast<double>(within) / static_cast<double>(t.best.size());
  out.metrics["completion_rate"] =
      t.routable == 0 ? 0 : static_cast<double>(t.routed) / t.routable;
  out.metrics["wire_nodes"] = t.solutions == 0 ? 0 : t.wire / t.solutions;
  out.metrics["vias"] = t.solutions == 0 ? 0 : t.vias / t.solutions;
  out.metrics["peak_heap_mb"] = static_cast<double>(heap_peak_bytes()) / (1 << 20);
  char line[200];
  std::snprintf(line, sizeof line,
                "operations=%zu runs=%lld samples=%d tail=p%g (%d beyond; rule "
                "allows up to p%g) slo_limit_ms=%g",
                t.best.size(), t.attempted, n, shape.tail_q,
                samples_beyond(n, shape.tail_q), tail_rule_percentile(n), shape.slo_ms);
  out.notes.emplace_back(line);
  if (samples_beyond(n, shape.tail_q) < kMinBeyond)
    out.notes.emplace_back("warning: fewer than 10 samples beyond the tail "
                           "percentile; latency_tail_ms is unsupported");
}

void fail_check(RunResult& out, const std::string& what) {
  out.correct = false;
  if (out.errors.size() < 20) out.errors.push_back(what);
}

/// Multi-pin nets the verifier found not routed-ok, sorted.
std::vector<NetId> unrouted(const Problem& problem, const VerifyReport& report) {
  std::vector<NetId> ids;
  for (const NetReport& net : report.nets)
    if (problem.net(net.id).pins.size() >= 2 && !problem.net(net.id).fixed &&
        !net.ok())
      ids.push_back(net.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool same_wire(const RoutingGrid& a, const RoutingGrid& b, int nets) {
  for (NetId id = 0; id < nets; ++id)
    if (net_wire_fingerprint(a, id) != net_wire_fingerprint(b, id)) return false;
  return true;
}

/// Per-layer values that are means over operations.
struct LayerSums {
  std::map<std::string, double> sum;
  long long ops = 0;
  long long core_runs = 0;  ///< route() runs whose counters were added
  void add(const std::string& name, double v) { sum[name] += v; }
  double per_op(const std::string& name) const {
    const auto it = sum.find(name);
    return ops == 0 || it == sum.end() ? 0 : it->second / ops;
  }
  double total(const std::string& name) const {
    const auto it = sum.find(name);
    return it == sum.end() ? 0 : it->second;
  }
  /// The core layer's counters from one route() run, whether the workload
  /// called route() itself or route_delta or the service did.
  void add_core(const RouteResult& result) {
    const RouteStats& st = result.stats;
    ++core_runs;
    add("core.run_ms", st.run_ms);
    add("core.improve_ms", st.improve_ms);
    add("core.expansions", static_cast<double>(st.expansions));
    add("core.weak_attempts", st.weak_attempts);
    add("core.weak_modifications", st.weak_modifications);
    add("core.strong_ripups", st.strong_ripups);
    add("core.nets_failed", static_cast<double>(result.failed.size()));
  }
  void put_core(RunResult& out) const {
    for (const char* name : {"core.run_ms", "core.improve_ms", "core.expansions",
                             "core.weak_attempts", "core.weak_modifications",
                             "core.strong_ripups", "core.nets_failed"})
      out.metrics[name] = core_runs == 0 ? 0 : total(name) / core_runs;
    const double expansions = total("core.expansions");
    out.metrics["search.ns_per_expansion"] =
        expansions > 0 ? total("core.run_ms") * 1e6 / expansions : 0;
    const double attempts = total("core.weak_attempts");
    out.metrics["core.weak_success_ratio"] =
        attempts > 0 ? total("core.weak_modifications") / attempts : 0;
  }
};

void put_span_means(RunResult& out, const SpanLog& log, long long ops,
                    const std::vector<std::pair<const char*, const char*>>& map) {
  const auto self_ms = log.self_ms();
  for (const auto& [span, metric] : map) {
    const auto it = self_ms.find(span);
    out.metrics[metric] = it == self_ms.end() || ops == 0 ? 0 : it->second / ops;
  }
}

/// Self-time share per layer (span-name prefix before the first '.').
void note_layer_shares(RunResult& out, const SpanLog& log) {
  std::map<std::string, double> by_layer;
  double total = 0;
  for (const auto& [name, ms] : log.self_ms()) {
    by_layer[name.substr(0, name.find('.'))] += ms;
    total += ms;
  }
  std::string line = "self time by layer:";
  for (const auto& [layer, ms] : by_layer) {
    char part[64];
    std::snprintf(part, sizeof part, " %s=%.1f%%", layer.c_str(),
                  total > 0 ? 100.0 * ms / total : 0.0);
    line += part;
  }
  out.notes.push_back(line);
}

void write_spans(RunResult& out, const SpanLog& log, const RunConfig& config) {
  if (config.span_dir.empty()) return;
  const std::string path = config.span_dir + "/spans-" + config.workload + "-" +
                           std::to_string(config.seed) + ".jsonl";
  if (log.write_jsonl(path))
    out.notes.push_back("spans written to " + path);
  else
    out.notes.push_back("warning: could not write spans to " + path);
}

// ---------------------------------------------------------------------------
// route-sparse: parse -> validate -> hash -> route -> verify -> serialize,
// one closed-loop client.
// ---------------------------------------------------------------------------

struct RouteJob {
  std::string error;  ///< non-empty when the job did not complete
  Problem problem;
  RouteResult result;
  VerifyReport report;
  std::string solution;
  double ms = 0;
};

RouteJob route_job(const std::string& text, SpanLog& log, long long request) {
  RouteJob job;
  const auto t0 = Clock::now();
  {
    Scope root(log, "job", -1, request);
    StatusOr<Problem> parsed = [&] {
      Scope s(log, "io.parse", root.id(), request);
      return try_parse_problem_string(text);
    }();
    if (!parsed.ok()) {
      job.error = "parse: " + parsed.status().to_string();
      return job;
    }
    job.problem = *std::move(parsed);
    {
      Scope s(log, "problem.validate", root.id(), request);
      if (!job.problem.validate_status().empty()) job.error = "validate";
    }
    if (!job.error.empty()) return job;
    {
      Scope s(log, "problem.hash", root.id(), request);
      volatile std::uint64_t hash = job.problem.canonical_hash();
      (void)hash;
    }
    {
      Scope s(log, "core.route", root.id(), request);
      RouteRequest rr;
      rr.problem = &job.problem;
      rr.options = bench_options();
      job.result = route(rr);
    }
    {
      Scope s(log, "verify", root.id(), request);
      job.report = verify(job.problem, job.result.grid);
    }
    {
      Scope s(log, "io.serialize", root.id(), request);
      job.solution = solution_to_string(job.problem, job.result.grid);
    }
  }
  job.ms = ms_between(t0, Clock::now());
  if (!job.result.status.ok()) job.error = "route: " + job.result.status.to_string();
  return job;
}

std::uint64_t text_hash(const std::string& s) {
  Fingerprint f;
  f.add(s);
  return f.value;
}

/// Output checks of one route job (untimed).
void check_route_job(RunResult& out, const RouteJob& job, std::uint64_t* expected) {
  if (!job.report.drc_clean())
    fail_check(out, "verify: " + job.report.violations.front());
  std::vector<NetId> failed = job.result.failed;
  std::sort(failed.begin(), failed.end());
  if (failed != unrouted(job.problem, job.report))
    fail_check(out, "failed list differs from the verifier's");
  const std::uint64_t h = text_hash(job.solution);
  if (*expected != 0) {  // seen before: routing is deterministic
    if (h != *expected) fail_check(out, "solution text changed on a repeat");
    return;
  }
  *expected = h;
  StatusOr<RoutingGrid> back = try_parse_solution_string(job.solution, job.problem);
  if (!back.ok()) {
    fail_check(out, "solution does not parse back: " + back.status().to_string());
    return;
  }
  if (!same_wire(*back, job.result.grid, job.problem.net_count()))
    fail_check(out, "solution text does not round-trip to the routed wire");
}

RunResult run_route(const RunConfig& config) {
  RunResult out;
  // A pass over the 100 boards takes about a second on the tuning host, so
  // each board runs 30 or more times in a 40-second run. p90 is the highest
  // percentile the tail rule allows at this size.
  const Shape shape{50, 90};
  std::vector<double> setup_s;
  const auto corpus = timed_setup<std::vector<CorpusItem>>(
      [&] { return sparse_corpus(config.seed, 100); }, &setup_s);
  out.notes.push_back("inputs_fingerprint=" + fingerprint(corpus));

  std::vector<std::uint64_t> expected(corpus.size(), 0);
  SpanLog log(config.trace);
  SpanLog off(false);
  Tally tally;
  LayerSums layer;
  double traced_ms = 0, untraced_ms = 0;
  reset_heap_peak();
  CpuRotation cpus;
  const auto start = Clock::now();
  for (std::size_t i = 0; ms_between(start, Clock::now()) < config.seconds * 1000; ++i) {
    const std::size_t k = i % corpus.size();
    if (k == 0) cpus.next_pass();
    const CorpusItem& item = corpus[k];
    ++tally.attempted;
    tally.visit(k);
    RouteJob job;
    if (!config.trace) {
      job = route_job(item.text, off, static_cast<long long>(i));
    } else {
      // Same job untraced and traced, alternating which runs first.
      RouteJob plain;
      if (i % 2 == 0) plain = route_job(item.text, off, static_cast<long long>(i));
      job = route_job(item.text, log, static_cast<long long>(i));
      if (i % 2 == 1) plain = route_job(item.text, off, static_cast<long long>(i));
      untraced_ms += plain.ms;
      traced_ms += job.ms;
      if (plain.solution != job.solution)
        fail_check(out, "traced and untraced runs of one job differ");
    }
    if (!job.error.empty()) {
      ++tally.failed;
      fail_check(out, item.family + ": " + job.error);
      continue;
    }
    if (expected[k] == 0) tally.add_solution(job.report);
    check_route_job(out, job, &expected[k]);
    tally.record(k, job.ms);
    ++layer.ops;
    layer.add("io.bytes_out", static_cast<double>(job.solution.size()));
    layer.add_core(job.result);
  }

  out.attempted = tally.attempted;
  out.failed = tally.failed;
  if (!config.trace) {
    fill_end_to_end(out, tally, shape, setup_s, tally.closed_loop_rate());
    return out;
  }
  for (const MetricSpec& m : per_layer_metrics()) out.metrics[m.name] = 0;
  out.metrics["io.bytes_out"] = layer.per_op("io.bytes_out");
  layer.put_core(out);
  put_span_means(out, log, layer.ops,
                 {{"io.parse", "io.parse_ms"},
                  {"io.serialize", "io.serialize_ms"},
                  {"problem.validate", "problem.validate_ms"},
                  {"problem.hash", "problem.hash_ms"},
                  {"core.route", "core.route_ms"},
                  {"verify", "verify.ms"}});
  out.metrics["trace.overhead_share"] =
      untraced_ms > 0 ? traced_ms / untraced_ms - 1 : 0;
  note_layer_shares(out, log);
  write_spans(out, log, config);
  return out;
}

// ---------------------------------------------------------------------------
// eco-stream: a chain of committed single-op edits on a routed tile board,
// each routed by route_delta and signed off by verify_delta_equivalence.
// ---------------------------------------------------------------------------

struct EcoState {
  EcoInputs inputs;
  Problem problem;
  RoutingGrid layout;
};

/// Edits per pass of the chain: 20 or more passes per 40-second run on the
/// tuning host.
constexpr int kEcoChain = 100;

EcoState eco_setup(std::uint64_t seed, std::string* error) {
  EcoState state;
  state.inputs = eco_inputs(seed, kEcoChain);
  StatusOr<Problem> parsed = try_parse_problem_string(state.inputs.base_text);
  if (!parsed.ok()) {
    *error = "base parse: " + parsed.status().to_string();
    return state;
  }
  state.problem = *std::move(parsed);
  RouteRequest request;
  request.problem = &state.problem;
  request.options = bench_options();
  RouteResult base = route(request);
  if (!base.status.ok() || !base.failed.empty() ||
      !verify(state.problem, base.grid).all_ok())
    *error = "base board did not route clean";
  state.layout = std::move(base.grid);
  return state;
}

DeltaResult delta_op(const Problem& base, const RoutingGrid& layout,
                     const ProblemEdit& edit) {
  DeltaRequest request;
  request.base_problem = &base;
  request.base_layout = &layout;
  request.edit = edit;
  request.options = bench_options();
  return route_delta(request);
}

RunResult run_eco(const RunConfig& config) {
  RunResult out;
  const Shape shape{50, 90};
  std::vector<double> setup_s;
  std::string setup_error;
  EcoState state = timed_setup<EcoState>(
      [&] { return eco_setup(config.seed, &setup_error); }, &setup_s);
  if (!setup_error.empty()) {
    fail_check(out, setup_error);
    return out;
  }
  out.notes.push_back("inputs_fingerprint=" + fingerprint(state.inputs));
  const Problem base_problem = state.problem;
  const RoutingGrid base_layout = state.layout;

  SpanLog log(config.trace);
  Tally tally;
  LayerSums layer;
  std::vector<std::vector<NetId>> first_pass;
  double traced_ms = 0, untraced_ms = 0;
  reset_heap_peak();
  CpuRotation cpus;
  const auto start = Clock::now();
  for (std::size_t i = 0; ms_between(start, Clock::now()) < config.seconds * 1000; ++i) {
    const std::size_t k = i % state.inputs.edits.size();
    if (k == 0) cpus.next_pass();
    if (i > 0 && k == 0) {
      // Pass done: replay the chain from the routed base.
      state.problem = base_problem;
      state.layout = base_layout;
    }
    const ProblemEdit& edit = state.inputs.edits[k];
    const auto request = static_cast<long long>(i);
    ++tally.attempted;
    tally.visit(k);

    auto signed_off = [&](SpanLog& spans, double* ms) {
      const auto t0 = Clock::now();
      Scope root(spans, "edit", -1, request);
      DeltaResult delta = [&] {
        Scope s(spans, "delta.route_delta", root.id(), request);
        return delta_op(state.problem, state.layout, edit);
      }();
      DeltaEquivalenceReport eq = [&] {
        Scope s(spans, "verify.delta_equiv", root.id(), request);
        return verify_delta_equivalence(delta.edited, delta.result.grid,
                                        state.layout, delta.preserved);
      }();
      *ms = ms_between(t0, Clock::now());
      return std::make_pair(std::move(delta), std::move(eq));
    };
    double ms = 0;
    auto [delta, eq] = [&] {
      if (!config.trace) return signed_off(log, &ms);
      SpanLog off(false);
      double plain_ms = 0;
      if (i % 2 == 0) signed_off(off, &plain_ms);
      auto traced = signed_off(log, &ms);
      if (i % 2 == 1) signed_off(off, &plain_ms);
      untraced_ms += plain_ms;
      traced_ms += ms;
      return traced;
    }();

    if (!delta.result.status.ok() || delta.prescreen_rejected ||
        !delta.result.failed.empty()) {
      ++tally.failed;
      fail_check(out, "edit " + state.inputs.edit_lines[k] +
                          " did not complete: " + delta.result.status.to_string());
      if (i < state.inputs.edits.size()) first_pass.emplace_back();
      continue;
    }
    if (!eq.equivalent())
      fail_check(out, "delta broke equivalence at edit " + std::to_string(i));

    if (config.trace) {
      // The same edit through the staged entry points must reproduce
      // route_delta's grid exactly.
      Scope root(log, "split", -1, request);
      StatusOr<Problem> edited = [&] {
        Scope s(log, "delta.apply_edit", root.id(), request);
        return apply_edit(state.problem, edit);
      }();
      bool valid = edited.ok();
      if (valid) {
        Scope s(log, "problem.validate", root.id(), request);
        valid = edited->validate_status().empty();
      }
      if (!valid) {
        fail_check(out, "staged delta: edit did not apply");
      } else {
        {
          Scope s(log, "delta.assess", root.id(), request);
          if (assess_routability(*edited).provably_infeasible())
            fail_check(out, "staged delta: pre-screen rejected a routable edit");
        }
        const DeltaPlan plan = [&] {
          Scope s(log, "delta.plan", root.id(), request);
          return plan_delta(state.problem, state.layout, *edited, edit);
        }();
        const RouteResult warm = [&] {
          Scope s(log, "delta.warm_route", root.id(), request);
          RouteRequest rr;
          rr.problem = &plan.warm;
          rr.options = bench_options();
          return route(rr);
        }();
        if (plan.invalidated != delta.rerouted ||
            !same_wire(warm.grid, delta.result.grid, delta.edited.net_count()))
          fail_check(out, "staged delta differs from route_delta");
      }
    }

    // Every pass replays the same states, so it must reroute the same nets.
    if (i < state.inputs.edits.size()) {
      tally.add_solution(eq.delta);
      first_pass.push_back(delta.rerouted);
    } else if (delta.rerouted != first_pass[k]) {
      fail_check(out, "replayed edit " + std::to_string(k) + " rerouted other nets");
    }
    tally.record(k, ms);
    ++layer.ops;
    layer.add("delta.expansions", static_cast<double>(delta.result.stats.expansions));
    layer.add_core(delta.result);
    layer.add("delta.rerouted_nets", static_cast<double>(delta.rerouted.size()));
    layer.add("preserved", static_cast<double>(delta.preserved.size()));
    state.problem = std::move(delta.edited);
    state.layout = std::move(delta.result.grid);
  }

  out.attempted = tally.attempted;
  out.failed = tally.failed;
  if (!config.trace) {
    fill_end_to_end(out, tally, shape, setup_s, tally.closed_loop_rate());
    return out;
  }
  for (const MetricSpec& m : per_layer_metrics()) out.metrics[m.name] = 0;
  put_span_means(out, log, layer.ops,
                 {{"delta.route_delta", "delta.route_delta_ms"},
                  {"verify.delta_equiv", "verify.delta_equiv_ms"},
                  {"delta.apply_edit", "delta.apply_edit_ms"},
                  {"problem.validate", "problem.validate_ms"},
                  {"delta.assess", "delta.assess_ms"},
                  {"delta.plan", "delta.plan_ms"},
                  {"delta.warm_route", "delta.warm_route_ms"}});
  out.metrics["delta.expansions"] = layer.per_op("delta.expansions");
  layer.put_core(out);
  out.metrics["delta.rerouted_nets"] = layer.per_op("delta.rerouted_nets");
  const double moved = layer.total("preserved") + layer.total("delta.rerouted_nets");
  out.metrics["delta.preserved_share"] = moved > 0 ? layer.total("preserved") / moved : 0;
  out.metrics["trace.overhead_share"] =
      untraced_ms > 0 ? traced_ms / untraced_ms - 1 : 0;
  note_layer_shares(out, log);
  write_spans(out, log, config);
  return out;
}

// ---------------------------------------------------------------------------
// service-mix: open-loop Poisson arrivals from one generator thread into a
// two-worker RoutingService; hot-set cache hits mixed with fresh misses.
// ---------------------------------------------------------------------------

constexpr double kServiceRate = 400;     // requests per second
constexpr double kServiceMissShare = 0.4;
constexpr int kServiceHot = 32;
constexpr double kServiceSloMs = 20;
/// Untraced runs send one schedule of this length again and again, each time
/// into a fresh service (empty cache, hot set warmed), and count each
/// request at its fastest replay: an open loop cannot re-run one request,
/// but it can re-run the whole schedule. Two seconds is about 800 requests,
/// enough for p95 to leave 40 beyond it.
constexpr double kReplaySeconds = 2;
const double kLadder[] = {800, 1600, 2400, 3200, 4000};

/// Benchmark-owned lifecycle sink: stamps each job's admission, start and
/// terminal event with the benchmark's clock.
class LifecycleSink : public obs::TraceSink {
 public:
  struct Stamps {
    Clock::time_point admitted{}, started{}, terminal{};
    bool done = false;
  };
  void on_event(const obs::TraceEvent& e) override {
    const auto now = Clock::now();
    const auto id = static_cast<std::uint64_t>(e.value);
    const std::lock_guard<std::mutex> lock(mutex_);
    switch (e.kind) {
      case obs::EventKind::kJobAdmitted: stamps_[id].admitted = now; break;
      case obs::EventKind::kJobStarted: stamps_[id].started = now; break;
      case obs::EventKind::kJobCompleted:
      case obs::EventKind::kJobCancelled:
      case obs::EventKind::kJobQuarantined:
        stamps_[id].terminal = now;
        stamps_[id].done = true;
        terminal_.fetch_add(1, std::memory_order_relaxed);
        break;
      default: break;
    }
  }
  Stamps get(std::uint64_t id) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = stamps_.find(id);
    return it == stamps_.end() ? Stamps{} : it->second;
  }
  long long terminal() const { return terminal_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Stamps> stamps_;
  std::atomic<long long> terminal_{0};
};

struct ServiceState {
  ServiceInputs inputs;
  std::vector<std::shared_ptr<const Problem>> hot, misses;
  std::unique_ptr<LifecycleSink> sink;
  /// Declared after the sink it emits into, so it shuts down first.
  std::unique_ptr<service::RoutingService> service;
};

std::shared_ptr<const Problem> parse_shared(const std::string& text, std::string* error) {
  StatusOr<Problem> p = try_parse_problem_string(text);
  if (!p.ok()) {
    *error = p.status().to_string();
    return nullptr;
  }
  return std::make_shared<const Problem>(*std::move(p));
}

std::unique_ptr<ServiceState> service_setup(const ServiceInputs& inputs,
                                           std::string* error) {
  auto state = std::make_unique<ServiceState>();
  ServiceState& s = *state;
  s.inputs = inputs;
  for (const std::string& t : inputs.hot) s.hot.push_back(parse_shared(t, error));
  for (const std::string& t : inputs.misses) s.misses.push_back(parse_shared(t, error));
  s.sink = std::make_unique<LifecycleSink>();
  service::ServiceOptions options;
  options.workers = 2;
  options.cache_capacity = 128;
  options.trace = s.sink.get();
  s.service = std::make_unique<service::RoutingService>(options);
  // Fill the cache with the hot set, one job at a time.
  for (const auto& p : s.hot) {
    if (p == nullptr) continue;
    service::JobRequest request;
    request.problem = p;
    request.options = bench_options();
    const auto id = s.service->submit(request);
    if (!id.ok() || !s.service->wait(*id).ok()) *error = "hot-set warm-up failed";
  }
  return state;
}

/// One request as sent and as finished.
struct Sent {
  const Arrival* arrival = nullptr;
  Clock::time_point due{}, submit_start{}, submit_end{};
  std::uint64_t id = 0;  ///< 0 = rejected at admission
  bool traced = false;
  service::JobOutcome outcome;
  LifecycleSink::Stamps stamps;
  double latency_ms = -1;  ///< due -> terminal; -1 when not completed
};

/// Sends `arrivals` on their schedule (offsets from `start`), then waits
/// for every outcome. With `log` on, every second request is sent traced,
/// so traced and untraced requests meet the same load.
/// Samples the outstanding count every `sample_ms` into `backlog`.
std::vector<Sent> drive(ServiceState& s, const std::vector<Arrival>& arrivals,
                        const std::vector<std::shared_ptr<const Problem>>& misses,
                        Clock::time_point start, SpanLog& log, std::vector<long long>* backlog,
                        double sample_ms) {
  std::vector<Sent> sent(arrivals.size());
  long long submitted = 0;
  const long long terminal_before = s.sink->terminal();
  auto next_sample = start;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    Sent& r = sent[i];
    r.arrival = &arrivals[i];
    r.due = start + std::chrono::microseconds(
                        static_cast<long long>(arrivals[i].due_ms * 1000.0));
    // Sleep to just short of the due time, then spin: the sleep's wake-up
    // jitter would otherwise be most of a cache hit's latency.
    std::this_thread::sleep_until(r.due - std::chrono::microseconds(200));
    while (Clock::now() < r.due) {
    }
    while (backlog != nullptr && Clock::now() >= next_sample) {
      backlog->push_back(submitted - (s.sink->terminal() - terminal_before));
      next_sample += std::chrono::microseconds(static_cast<long long>(sample_ms * 1000));
    }
    r.traced = log.on() && i % 2 == 1;
    const auto& problem = arrivals[i].hit
                              ? s.hot[static_cast<std::size_t>(arrivals[i].index)]
                              : misses[static_cast<std::size_t>(arrivals[i].index)];
    r.submit_start = Clock::now();
    if (r.traced) {
      Scope h(log, "problem.hash", -1, static_cast<long long>(i));
      volatile std::uint64_t hash = problem->canonical_hash();
      (void)hash;
    }
    service::JobRequest request;
    request.problem = problem;
    request.options = bench_options();
    const auto id = s.service->submit(std::move(request));
    r.submit_end = Clock::now();
    if (id.ok()) {
      r.id = *id;
      ++submitted;
    }
  }
  for (Sent& r : sent) {
    if (r.id == 0) continue;
    auto outcome = s.service->wait(r.id);
    if (outcome.ok()) r.outcome = *std::move(outcome);
    // The service emits the terminal event just after waking waiters.
    const auto give_up = Clock::now() + std::chrono::seconds(1);
    while (!(r.stamps = s.sink->get(r.id)).done && Clock::now() < give_up)
      std::this_thread::yield();
    if (r.outcome.state == service::JobState::kCompleted && r.stamps.done)
      r.latency_ms = ms_between(r.due, r.stamps.terminal);
  }
  return sent;
}

RunResult run_service(const RunConfig& config) {
  RunResult out;
  const Shape shape{kServiceSloMs, 95};
  // Traced runs send the schedule once, spend two thirds of the time on it
  // (alternate requests traced) and the last third on the rate ladder.
  const int replays =
      config.trace ? 1 : std::max(1, static_cast<int>(config.seconds / kReplaySeconds));
  const double main_seconds =
      config.trace ? config.seconds * 2 / 3 : config.seconds / replays;
  const double rung_seconds = config.seconds / 3 / std::size(kLadder);
  std::vector<double> setup_s;
  std::string error;
  const auto make = [&] {
    return service_setup(
        service_inputs(config.seed, kServiceRate, main_seconds, kServiceMissShare, kServiceHot),
        &error);
  };
  std::unique_ptr<ServiceState> owned;

  SpanLog log(config.trace);
  Tally tally;
  std::vector<double> late, hit_lat, miss_lat, qwait_hit, qwait_miss, submit_ms;
  std::vector<double> lat_plain, lat_traced;
  double hit_split[4] = {0, 0, 0, 0};  ///< traced hits: late, submit, queue, execute
  LayerSums core;                      ///< traced misses' route() counters
  long long hits = 0, completed = 0, rejected = 0, peak_backlog = 0;
  long long last_completed = 0;  ///< in the last replay
  double busy_s = 0;  ///< summed schedule windows, first due to last terminal
  std::vector<Sent> sent;
  service::ServiceStats stats;
  reset_heap_peak();
  for (int replay = 0; replay < replays; ++replay) {
    // Each replay sets up a fresh service; setup_s is the median of these.
    owned.reset();
    const auto t0 = Clock::now();
    owned = make();
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    if (!error.empty()) {
      fail_check(out, "service setup: " + error);
      return out;
    }
    if (replay == 0) out.notes.push_back("inputs_fingerprint=" + fingerprint(owned->inputs));
    ServiceState& state = *owned;
    std::vector<long long> backlog;
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    sent = drive(state, state.inputs.arrivals, state.misses, start, log, &backlog, 50);
    stats = state.service->stats();
    for (const long long depth : backlog) peak_backlog = std::max(peak_backlog, depth);

    // Output checks: every distinct result verified.
    std::unordered_map<const RouteResult*, VerifyReport> verified;
    Clock::time_point last_terminal = start;
    last_completed = 0;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      const Sent& r = sent[i];
      ++tally.attempted;
      tally.visit(i);
      if (r.id == 0) ++rejected;
      if (r.latency_ms < 0) {
        ++tally.failed;
        continue;
      }
      const RouteResult& result = *r.outcome.result;
      auto [it, fresh] = verified.try_emplace(&result);
      if (fresh) {
        it->second = verify(*r.outcome.problem, result.grid);
        std::vector<NetId> failed = result.failed;
        std::sort(failed.begin(), failed.end());
        if (!it->second.drc_clean() ||
            failed != unrouted(*r.outcome.problem, it->second))
          fail_check(out, "service result fails verification");
      }
      if (replay == 0) tally.add_solution(it->second);
      ++completed;
      ++last_completed;
      hits += r.outcome.from_cache ? 1 : 0;
      last_terminal = std::max(last_terminal, r.stamps.terminal);
      (r.traced ? lat_traced : lat_plain).push_back(r.latency_ms);
      tally.record(i, r.latency_ms);
      late.push_back(ms_between(r.due, r.submit_start));
      if (!r.traced) continue;
      if (!r.outcome.from_cache) core.add_core(result);
      submit_ms.push_back(ms_between(r.submit_start, r.submit_end));
      const double qwait = ms_between(r.stamps.admitted, r.stamps.started);
      (r.outcome.from_cache ? qwait_hit : qwait_miss).push_back(qwait);
      (r.outcome.from_cache ? hit_lat : miss_lat).push_back(r.latency_ms);
      if (r.outcome.from_cache) {
        hit_split[0] += ms_between(r.due, r.submit_start);
        hit_split[1] += ms_between(r.submit_start, r.submit_end);
        hit_split[2] += ms_between(std::max(r.submit_end, r.stamps.admitted), r.stamps.started);
        hit_split[3] += ms_between(r.stamps.started, r.stamps.terminal);
      }
      const int root = log.add("request", r.due, r.stamps.terminal, -1,
                               static_cast<long long>(i));
      log.add("gen.late", r.due, r.submit_start, root, static_cast<long long>(i));
      log.add("service.submit", r.submit_start, r.submit_end, root,
              static_cast<long long>(i));
      log.add("service.queue", std::max(r.submit_end, r.stamps.admitted),
              r.stamps.started, root, static_cast<long long>(i));
      log.add("service.execute", r.stamps.started, r.stamps.terminal, root,
              static_cast<long long>(i));
    }
    busy_s += ms_between(start, last_terminal) / 1000.0;
  }
  ServiceState& state = *owned;
  // A seeded sample of the last replay's outcomes must match a direct
  // route() call byte for byte.
  Rng pick(config.seed ^ 0x5eedull);
  for (int k = 0; k < 16 && last_completed > 0; ++k) {
    const Sent* r = nullptr;
    while (r == nullptr || r->latency_ms < 0)
      r = &sent[pick.next() % sent.size()];
    RouteRequest direct;
    direct.problem = r->outcome.problem.get();
    direct.options = bench_options();
    const RouteResult fresh = route(direct);
    if (solution_to_string(*direct.problem, fresh.grid) !=
        solution_to_string(*direct.problem, r->outcome.result->grid))
      fail_check(out, "service outcome differs from a direct route() call");
  }
  out.attempted = tally.attempted;
  out.failed = tally.failed;

  if (!config.trace) {
    fill_end_to_end(out, tally, shape, setup_s,
                    busy_s > 0 ? static_cast<double>(completed) / busy_s : 0);
    char line[160];
    std::snprintf(line, sizeof line,
                  "offered=%.0f/s replays=%d sent=%zu per replay, cache_hits=%lld "
                  "peak_backlog=%lld",
                  kServiceRate, replays, sent.size(), hits, peak_backlog);
    out.notes.emplace_back(line);
    return out;
  }

  for (const MetricSpec& m : per_layer_metrics()) out.metrics[m.name] = 0;
  put_span_means(out, log, static_cast<long long>(submit_ms.size()),
                 {{"problem.hash", "problem.hash_ms"},
                  {"service.submit", "service.submit_ms"}});
  auto p50 = [](std::vector<double> v) { return median_of(std::move(v)); };
  core.put_core(out);
  out.metrics["service.queue_wait_hit_ms"] = mean(qwait_hit);
  out.metrics["service.queue_wait_miss_ms"] = mean(qwait_miss);
  out.metrics["service.hit_latency_p50_ms"] = p50(hit_lat);
  out.metrics["service.miss_latency_p50_ms"] = p50(miss_lat);
  out.metrics["service.cache_hit_rate"] =
      completed > 0 ? static_cast<double>(hits) / completed : 0;
  out.metrics["service.peak_queue_depth"] = static_cast<double>(stats.peak_queue_depth);
  out.metrics["service.rejected"] = static_cast<double>(rejected);
  out.metrics["service.retried"] = static_cast<double>(stats.retried);
  out.metrics["service.browned_out"] = static_cast<double>(stats.browned_out);
  std::sort(late.begin(), late.end());
  out.metrics["gen.late_ms_p99"] = percentile(late, 99);
  out.metrics["gen.late_ms_max"] = late.empty() ? 0 : late.back();
  const double plain = p50(lat_plain);
  out.metrics["trace.overhead_share"] = plain > 0 ? p50(lat_traced) / plain - 1 : 0;
  if (!hit_lat.empty()) {
    const double n = static_cast<double>(hit_lat.size());
    char line[200];
    std::snprintf(line, sizeof line,
                  "cache-hit latency, mean ms: generator late %.4f, submit %.4f, "
                  "queue %.4f, execute %.4f",
                  hit_split[0] / n, hit_split[1] / n, hit_split[2] / n, hit_split[3] / n);
    out.notes.emplace_back(line);
  }

  // Rate ladder: each rung a fresh schedule (fresh misses), drained before
  // the next. A rung meets the limit when its tail latency (by the
  // percentile rule) is within kServiceSloMs, nothing was rejected, and the
  // outstanding count did not keep growing.
  double best_rate = 0;
  SpanLog off(false);
  for (std::size_t k = 0; k < std::size(kLadder); ++k) {
    const ServiceInputs rung = service_inputs(config.seed * 31 + k + 1, kLadder[k],
                                              rung_seconds, kServiceMissShare, kServiceHot);
    std::vector<std::shared_ptr<const Problem>> misses;
    std::string parse_error;
    for (const std::string& t : rung.misses) misses.push_back(parse_shared(t, &parse_error));
    std::vector<long long> depth;
    const auto rung_start = Clock::now() + std::chrono::milliseconds(2);
    const std::vector<Sent> rs =
        drive(state, rung.arrivals, misses, rung_start, off, &depth, 20);
    std::vector<double> lat;
    long long missing = 0;
    for (const Sent& r : rs) {
      if (r.latency_ms < 0) ++missing;
      else lat.push_back(r.latency_ms);
    }
    std::sort(lat.begin(), lat.end());
    const double q = tail_rule_percentile(static_cast<int>(lat.size()));
    const double tail = percentile(lat, q);
    std::vector<long long> first(depth.begin(), depth.begin() + depth.size() / 2);
    std::sort(first.begin(), first.end());
    const long long base = first.empty() ? 0 : first[first.size() / 2];
    const bool growing = !depth.empty() && depth.back() > std::max(8LL, 2 * base);
    const bool met = missing == 0 && q > 0 && tail <= kServiceSloMs && !growing;
    if (met) best_rate = kLadder[k];
    char line[160];
    std::snprintf(line, sizeof line,
                  "ladder rate=%.0f/s sent=%zu tail=p%g %.2f ms backlog_end=%lld %s",
                  kLadder[k], rs.size(), q, tail, depth.empty() ? 0 : depth.back(),
                  met ? "meets" : "misses");
    out.notes.emplace_back(line);
    if (!met) break;
  }
  out.metrics["service.slo_max_rate_per_s"] = best_rate;
  note_layer_shares(out, log);
  write_spans(out, log, config);
  return out;
}

}  // namespace

RunResult run_workload(const RunConfig& config) {
  if (config.workload == "route-sparse") return run_route(config);
  if (config.workload == "eco-stream") return run_eco(config);
  if (config.workload == "service-mix") return run_service(config);
  throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

}  // namespace perfbench

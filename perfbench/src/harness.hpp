// Shared machinery of the benchmark: the per-pass result every workload
// returns, the span tracer of traced runs, and small statistics helpers.
//
// A *run* is one process invocation (one workload, one seed, one time
// budget). It repeats *passes* until the budget is spent; every pass
// rebuilds its inputs and memories from the seed, does the same fixed
// work, and checks it against a host oracle outside the timed region.
// Every pass of one seed repeats the same calls in the same order, so
// each call is measured once per pass; end-to-end timings come from each
// call's fastest repeat over the untraced passes (interference from a
// shared host only ever adds time), set-up time is the median over
// passes, and per-layer metrics come from the traced passes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// In-memory span recorder for traced passes. A span is one call into a
/// library layer (or a stretch of the benchmark's own work), named
/// `<layer>.<what>`, timed from outside the library. Spans nest through
/// `parent`; all spans of one pass are recorded on the thread that
/// drives the work, so children never overlap each other.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;  ///< relative to the tracer origin
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;   ///< index into spans(), -1: top level
    std::int64_t op = -1;       ///< op id the span served, -1: none
  };

  Tracer() : origin_(Clock::now()) {}

  /// Records a finished span; returns its index (a parent id).
  std::int32_t record(const char* name, Clock::time_point start,
                      Clock::time_point end, std::int64_t op = -1,
                      std::int32_t parent = -1) {
    spans_.push_back({name, ns_between(origin_, start),
                      ns_between(origin_, end), parent, op});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  /// Opens a span whose end is set by close().
  std::int32_t open(const char* name, Clock::time_point start,
                    std::int64_t op = -1, std::int32_t parent = -1) {
    return record(name, start, start, op, parent);
  }
  void close(std::int32_t id, Clock::time_point end) {
    spans_[static_cast<std::size_t>(id)].end_ns = ns_between(origin_, end);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of span durations per span name (children included).
  std::map<std::string, double> total_ns_by_name() const;
  /// Number of spans per span name.
  std::map<std::string, std::int64_t> count_by_name() const;
  /// Self time per layer (the name up to its first '.'): each span's
  /// duration minus the part covered by its direct children.
  std::map<std::string, double> self_ns_by_layer() const;

  /// Chrome trace-event JSON ("X" events; args carry id, parent, op).
  std::string chrome_json(const std::string& process) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times calls into a layer for one pass: every call yields a latency
/// sample and, in a traced pass, a span. `tracer` is null untraced.
class Probe {
 public:
  explicit Probe(Tracer* tracer) : tracer_(tracer) {}

  /// Runs `f` as one call into a layer; returns its duration in ns.
  template <typename F>
  std::int64_t call(const char* span, std::int64_t op, std::int32_t parent,
                    F&& f) {
    const Clock::time_point t0 = Clock::now();
    f();
    const Clock::time_point t1 = Clock::now();
    if (tracer_) tracer_->record(span, t0, t1, op, parent);
    return ns_between(t0, t1);
  }
  template <typename F>
  std::int64_t call(const char* span, std::int64_t op, F&& f) {
    return call(span, op, -1, static_cast<F&&>(f));
  }

  /// Parent span bracketing (no-ops untraced, where the id is -1).
  std::int32_t open(const char* span, std::int64_t op = -1,
                    std::int32_t parent = -1) {
    return tracer_ ? tracer_->open(span, Clock::now(), op, parent) : -1;
  }
  void close(std::int32_t id) {
    if (tracer_ && id >= 0) tracer_->close(id, Clock::now());
  }

 private:
  Tracer* tracer_;
};

/// What one pass of a workload did. `counts` are the modeled/layer
/// counts that must repeat exactly from pass to pass for one seed;
/// `layer` are the per-layer metrics of a traced pass.
struct PassResult {
  double setup_s = 0;      ///< build memories/LMem, make inputs, fill
  double work_s = 0;       ///< the timed region (traced wall in a traced pass)
  double accesses = 0;     ///< parallel accesses completed in work_s
  std::int64_t ops = 0;    ///< ops attempted (latency samples)
  std::int64_t failed = 0; ///< failed ops: oracle divergences, sheds, ...
  double modeled_cycles = 0;
  std::vector<std::int64_t> op_ns;    ///< one latency sample per op
  std::vector<std::int64_t> call_ns;  ///< other timed calls of the work
  /// The timed work is op_ns and call_ns run one after another on one
  /// thread (false: the ops overlap, as the service's requests do).
  bool serial = true;
  std::vector<std::pair<std::string, double>> counts;
  std::map<std::string, double> layer;
  int threads = 0;  ///< OS threads of the process seen during the work
  std::vector<std::string> errors;    ///< oracle/determinism messages
};

using PassFn = PassResult (*)(std::uint64_t seed, Tracer* tracer);

/// Exact percentile (nearest rank on a sorted copy); 0 when empty.
double percentile(std::vector<double> values, double pct);
inline double median(const std::vector<double>& values) {
  return percentile(values, 50);
}

/// Threads of this process right now (from /proc; 0 when unavailable).
int os_threads();
/// Peak resident set size of this process in MiB.
double peak_rss_mb();

}  // namespace perfbench

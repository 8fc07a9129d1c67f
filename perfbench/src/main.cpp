// perfbench — the repository benchmark (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// Repeats passes of one workload until the time budget is spent and
// prints, as its last stdout line, one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Op latencies and the throughput of serial work come from
// the fastest repeat of each timed call over the untraced passes (see
// harness.hpp). A traced run alternates untraced and traced passes so the
// tracing overhead is measured under the same conditions; `--spans`
// writes the first traced pass's spans as Chrome trace-event JSON.
// Exits 1 on any oracle divergence, any pass-to-pass difference in a
// modeled count, more threads than the host has, or (traced) a span
// reconciliation residual above 10%; 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/simd/dispatch.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  PassFn pass;
  unsigned threads;  ///< threads the workload is designed to use
};

constexpr Workload kWorkloads[] = {
    {"trace_incore", trace_incore_pass, 1},
    {"service_zipf", service_zipf_pass, 2},
    {"ooc_tiles", ooc_tiles_pass, 1},
    {"adaptive_phase", adaptive_phase_pass, 1},
};

using Metric = std::pair<const char*, const char*>;  // name, unit

/// The per-layer metrics of BENCHMARK.json, printed for every workload
/// (0 where the workload bypasses the layer).
const Metric kLayerMetrics[] = {
    {"sched.parse_ns_per_op", "ns"},
    {"core.read_batch_ns_per_acc", "ns"},
    {"core.write_batch_ns_per_acc", "ns"},
    {"core.fallback_ns_per_acc", "ns"},
    {"core.plan_cache_hit_frac", "frac"},
    {"core.batched_share", "frac"},
    {"cache.hit_rate", "frac"},
    {"cache.hit_call_ns", "ns"},
    {"cache.miss_call_ns", "ns"},
    {"cache.evictions", "count"},
    {"cache.writebacks", "count"},
    {"cache.prefetch_useful_frac", "frac"},
    {"cache.flush_ms", "ms"},
    {"cache.flush_runs", "count"},
    {"maxsim.lmem_s", "s"},
    {"maxsim.lmem_overlap_frac", "frac"},
    {"adapt.migrations", "count"},
    {"adapt.migrate_call_ms", "ms"},
    {"adapt.steady_ns_per_acc", "ns"},
    {"adapt.fallback_share", "frac"},
    {"adapt.windows_profiled", "count"},
    {"self_ms.bench", "ms"},
    {"self_ms.sched", "ms"},
    {"self_ms.core", "ms"},
    {"self_ms.cache", "ms"},
    {"self_ms.adapt", "ms"},
    {"trace.wall_ms", "ms"},
    {"trace.residual_frac", "frac"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans_per_pass", "count"},
    {"host.threads_used", "count"},
};

/// Printed by service_zipf only: that workload is not in BENCHMARK.json
/// (README.md says why), so the gated workloads do not carry them.
const Metric kServiceMetrics[] = {
    {"service.submit_ns", "ns"},
    {"service.mean_run_length", "count"},
    {"service.compiled_share", "frac"},
    {"service.shed_frac", "frac"},
    {"service.max_queue_depth", "count"},
    {"service.max_in_flight", "count"},
    {"service.clients", "count"},
    {"self_ms.service", "ms"},
};

constexpr double kMaxResidual = 0.10;

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && a.seconds > 0;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      a.trace = val == "1";
    } else if (key == "--spans") {
      a.spans = val;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || !have_seed || !have_seconds ||
      !have_trace)
    return std::nullopt;
  return a;
}

/// Median over passes of one per-pass quantity.
template <typename F>
double median_of(const std::vector<PassResult>& passes, F&& f) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(f(p));
  return median(v);
}

/// Folds one pass's call timings into the fastest repeat of each call
/// so far; false when the pass made a different number of calls.
bool fold_fastest(std::vector<std::int64_t>& fastest,
                  const std::vector<std::int64_t>& ns, bool first) {
  if (first) {
    fastest = ns;
    return true;
  }
  if (ns.size() != fastest.size()) return false;
  for (std::size_t k = 0; k < ns.size(); ++k)
    fastest[k] = std::min(fastest[k], ns[k]);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  const Workload* wl = nullptr;
  if (args)
    for (const Workload& w : kWorkloads)
      if (args->workload == w.name) wl = &w;
  if (!args || !wl) {
    std::cerr << "usage: perfbench --workload "
                 "<trace_incore|service_zipf|ooc_tiles|adaptive_phase> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans <file>]\n";
    return 2;
  }
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());

  std::cout << "{\"host\": {\"hardware_threads\": " << hw_threads
            << ", \"simd\": \""
            << polymem::core::simd::level_name(
                   polymem::core::simd::active_level())
            << "\", \"compiler\": \"" << PERFBENCH_COMPILER
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"seed\": " << args->seed << ", \"workload\": \""
            << wl->name << "\", \"workload_threads\": " << wl->threads;
  if (wl->pass == service_zipf_pass)
    std::cout << ", \"service_clients\": " << kServiceClients;
  std::cout << "}}\n";

  std::vector<PassResult> plain, traced;
  std::vector<double> residuals;
  std::map<std::string, std::vector<double>> self_ms;
  std::vector<double> spans_per_pass;
  std::optional<Tracer> kept;  // the first traced pass, written at the end
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, double>> reference;
  int max_threads = 0;
  // Fastest repeat of each op and of each other timed call over the
  // untraced passes.
  std::vector<std::int64_t> op_fastest, call_fastest;
  double rss_mb = 0;

  const Clock::time_point start = Clock::now();
  const std::size_t min_passes = 3;
  for (std::size_t pass = 0;; ++pass) {
    const bool tracing = args->trace && pass % 2 == 1;
    Tracer tracer;
    PassResult r = wl->pass(args->seed, tracing ? &tracer : nullptr);
    for (const std::string& e : r.errors)
      errors.push_back("pass " + std::to_string(pass) + ": " + e);
    max_threads = std::max(max_threads, r.threads);
    // Peak memory of one unit of work: later passes only add allocator
    // fragmentation, which would tie the figure to the pass count.
    if (pass == 0) rss_mb = peak_rss_mb();

    // Determinism: every modeled/layer count repeats exactly.
    if (reference.empty()) {
      reference = r.counts;
    } else if (r.counts != reference) {
      for (std::size_t k = 0; k < r.counts.size(); ++k)
        if (k >= reference.size() || r.counts[k] != reference[k])
          errors.push_back("pass " + std::to_string(pass) + ": " +
                           r.counts[k].first + " = " + num(r.counts[k].second) +
                           ", pass 0 had " +
                           (k < reference.size() ? num(reference[k].second)
                                                 : "nothing"));
    }

    if (tracing) {
      double sum = 0;
      for (const auto& [layer, ns] : tracer.self_ns_by_layer()) {
        self_ms[layer].push_back(ns / 1e6);
        sum += ns;
      }
      const double wall_ns = r.work_s * 1e9;
      residuals.push_back(std::abs(wall_ns - sum) / wall_ns);
      spans_per_pass.push_back(static_cast<double>(tracer.spans().size()));
      if (!kept) kept = std::move(tracer);
      r.op_ns = {};
      traced.push_back(std::move(r));
    } else {
      if (!fold_fastest(op_fastest, r.op_ns, plain.empty()) ||
          !fold_fastest(call_fastest, r.call_ns, plain.empty()))
        errors.push_back("pass " + std::to_string(pass) +
                         ": timed a different number of calls than pass 0");
      r.op_ns = {};
      r.call_ns = {};
      plain.push_back(std::move(r));
    }
    const bool enough = plain.size() >= min_passes &&
                        (!args->trace || traced.size() >= min_passes);
    if (enough && seconds_between(start, Clock::now()) >= args->seconds)
      break;
  }

  if (max_threads > static_cast<int>(hw_threads))
    errors.push_back("workload ran " + std::to_string(max_threads) +
                     " threads on a host with " + std::to_string(hw_threads));
  if (args->trace) {
    const double worst = *std::max_element(residuals.begin(), residuals.end());
    if (worst > kMaxResidual)
      errors.push_back("span self times miss the traced wall time by " +
                       num(worst * 100) + "%");
  }

  std::int64_t attempted = 0, failed = 0;
  for (const auto* set : {&plain, &traced})
    for (const PassResult& p : *set) {
      attempted += p.ops;
      failed += p.failed;
    }

  auto acc_per_s = [](const PassResult& p) { return p.accesses / p.work_s; };
  const double plain_acc = median_of(plain, acc_per_s);
  // Serial work: the accesses of one pass over the sum of its calls'
  // fastest repeats. Overlapping ops (service_zipf) have no such sum and
  // keep the median over passes of the timed region.
  double fastest_ns = 0;
  for (const auto* v : {&op_fastest, &call_fastest})
    for (const std::int64_t ns : *v) fastest_ns += static_cast<double>(ns);
  const double e2e_acc = plain.front().serial && fastest_ns > 0
                             ? plain.front().accesses / (fastest_ns / 1e9)
                             : plain_acc;
  const std::vector<double> op_ns(op_fastest.begin(), op_fastest.end());

  std::string metrics;
  auto add = [&](const std::string& name, double value, const char* unit) {
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + name +
               "\": {\"value\": " + num(value) + ", \"unit\": \"" + unit +
               "\"}";
  };
  if (!args->trace) {
    add("setup_s", median_of(plain, [](const PassResult& p) { return p.setup_s; }),
        "s");
    add("acc_per_s", e2e_acc, "1/s");
    add("op_p50_us", percentile(op_ns, 50) / 1e3, "us");
    add("op_p99_us", percentile(op_ns, 99) / 1e3, "us");
    add("modeled_cycles",
        median_of(plain, [](const PassResult& p) { return p.modeled_cycles; }),
        "cycles");
    add("ok_frac",
        attempted == 0 ? 0.0
                       : 1.0 - static_cast<double>(failed) /
                                   static_cast<double>(attempted),
        "frac");
    add("peak_rss_mb", rss_mb, "MiB");
  } else {
    std::vector<Metric> printed(std::begin(kLayerMetrics),
                                std::end(kLayerMetrics));
    if (wl->pass == service_zipf_pass)
      printed.insert(printed.end(), std::begin(kServiceMetrics),
                     std::end(kServiceMetrics));
    std::map<std::string, double> layer;
    for (const auto& [name, unit] : printed) layer[name] = 0;
    std::map<std::string, std::vector<double>> values;
    for (const PassResult& p : traced)
      for (const auto& [name, v] : p.layer) values[name].push_back(v);
    for (const auto& [name, v] : values) layer[name] = median(v);
    for (const auto& [name, v] : self_ms) layer["self_ms." + name] = median(v);
    layer["trace.wall_ms"] =
        median_of(traced, [](const PassResult& p) { return p.work_s * 1e3; });
    layer["trace.residual_frac"] = median(residuals);
    layer["trace.overhead_ratio"] =
        median_of(traced, acc_per_s) / plain_acc;
    layer["trace.spans_per_pass"] = median(spans_per_pass);
    layer["host.threads_used"] = max_threads;
    if (wl->pass == service_zipf_pass) layer["service.clients"] = kServiceClients;
    for (const auto& [name, unit] : printed) add(name, layer[name], unit);
    if (layer.size() != printed.size())
      errors.push_back("a workload reported a layer metric that is not printed");
    if (kept && !args->spans.empty()) {
      std::ofstream out(args->spans);
      out << kept->chrome_json(wl->name);
      if (!out) errors.push_back("cannot write spans to " + args->spans);
    }
  }

  const bool correct = errors.empty() && failed == 0;
  for (const std::string& e : errors) std::cerr << "perfbench: " << e << "\n";
  std::cout << "{\"passes\": " << plain.size() << ", \"traced_passes\": "
            << traced.size() << ", \"op_latency_samples\": " << op_fastest.size()
            << ", \"max_residual_frac\": "
            << num(residuals.empty()
                       ? 0.0
                       : *std::max_element(residuals.begin(), residuals.end()))
            << ", \"errors\": " << errors.size() << "}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}

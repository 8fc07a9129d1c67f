// adaptive_phase: the adapt layer (profiler, policy, live migration).
//
// An AdaptiveMatrix over a 128x128 space, 2x4 lanes, starting on ReRo,
// runs a seeded row -> column -> main-diagonal program (four rounds) with
// a quarter writes, issued op by op through read_batch/write_batch.
// Migrations run inline (no pool), so every decision and every count is
// deterministic; each migration is verified band by band before its
// epoch flip. Reads and the final image are checked against the host
// oracle of the canonical data model. One thread.
#include <vector>

#include "adapt/adaptive_matrix.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace polymem;
using sched::TraceOp;

namespace {

constexpr std::int64_t kSide = 128;
constexpr int kRounds = 4;
constexpr std::int64_t kAccessesPerPhase = 6144;
constexpr std::int64_t kWindow = 512;

}  // namespace

PassResult adaptive_phase_pass(std::uint64_t seed, Tracer* tracer) {
  PassResult r;
  Probe probe(tracer);

  // ---- set-up: program, payloads, matrix, canonical fill.
  const Clock::time_point s0 = Clock::now();
  const sched::RecordedTrace program =
      phase_program(seed, 2, 4, kSide, kRounds, kAccessesPerPhase);
  const auto payloads = write_payloads(program);
  std::vector<std::int64_t> offsets;
  std::vector<std::uint64_t> out(read_offsets(program, offsets));
  core::PolyMemConfig cfg;
  cfg.scheme = maf::Scheme::kReRo;
  cfg.p = program.p;
  cfg.q = program.q;
  cfg.height = kSide;
  cfg.width = kSide;
  adapt::AdaptiveOptions opts;
  opts.pool = nullptr;
  opts.verify_migrations = true;
  opts.profiler.window = kWindow;
  adapt::AdaptiveMatrix mat(cfg, opts);
  mat.fill_rect({0, 0}, kSide, kSide, canonical_image(program, kSide, kSide));
  r.setup_s = seconds_between(s0, Clock::now());

  // ---- timed work: the program, op by op.
  const unsigned lanes = mat.lanes();
  double steady_ns = 0, steady_acc = 0, migrate_ns = 0, migrate_calls = 0;
  r.op_ns.reserve(program.ops.size());
  const Clock::time_point w0 = Clock::now();
  const std::int32_t work_span = probe.open("bench.work");
  for (std::size_t k = 0; k < program.ops.size(); ++k) {
    const TraceOp& op = program.ops[k];
    const auto words = static_cast<std::size_t>(op.count) * lanes;
    const std::uint64_t epoch = mat.epoch();
    const std::int64_t ns =
        op.dir == TraceOp::Dir::kRead
            ? probe.call("adapt.read_batch", static_cast<std::int64_t>(k),
                         work_span, [&] {
                           mat.read_batch(
                               op.batch(),
                               std::span<std::uint64_t>(out).subspan(
                                   static_cast<std::size_t>(offsets[k]), words));
                         })
            : probe.call("adapt.write_batch", static_cast<std::int64_t>(k),
                         work_span,
                         [&] { mat.write_batch(op.batch(), payloads[k]); });
    r.op_ns.push_back(ns);
    if (mat.epoch() != epoch) {
      migrate_ns += static_cast<double>(ns);
      migrate_calls += 1;
    } else {
      steady_ns += static_cast<double>(ns);
      steady_acc += static_cast<double>(op.count);
    }
  }
  probe.close(work_span);
  const Clock::time_point w1 = Clock::now();
  r.work_s = seconds_between(w0, w1);
  r.threads = os_threads();
  const adapt::AdaptiveStats stats = mat.stats();

  // ---- oracle: read checksums + final image vs the host replay, and a
  // clean migration record.
  const sched::HostReplay oracle = sched::host_replay(program);
  std::vector<std::uint64_t> image(static_cast<std::size_t>(kSide * kSide));
  mat.dump_rect({0, 0}, kSide, kSide, image);
  const std::int64_t divergent =
      check_against_oracle(program, oracle, offsets, out, image);
  if (divergent > 0)
    r.errors.push_back(std::to_string(divergent) +
                       " ops diverged from the host oracle");
  if (stats.mismatched_words > 0 || stats.migrations_aborted > 0)
    r.errors.push_back(std::to_string(stats.migrations_aborted) +
                       " migrations aborted, " +
                       std::to_string(stats.mismatched_words) +
                       " migration words mismatched");
  r.failed = divergent + static_cast<std::int64_t>(stats.migrations_aborted);

  const std::uint64_t migration_cycles = 2 * kSide * kSide / lanes;
  r.ops = static_cast<std::int64_t>(program.ops.size());
  r.accesses = static_cast<double>(stats.reads + stats.writes);
  r.modeled_cycles = static_cast<double>(
      stats.batched_accesses + stats.fallback_accesses * lanes +
      stats.migrations_completed * migration_cycles);
  r.counts = {
      {"modeled_cycles", r.modeled_cycles},
      {"adapt.batched_accesses", static_cast<double>(stats.batched_accesses)},
      {"adapt.fallback_accesses", static_cast<double>(stats.fallback_accesses)},
      {"adapt.migrations", static_cast<double>(stats.migrations_completed)},
      {"adapt.windows_profiled", static_cast<double>(stats.windows_profiled)},
      {"adapt.final_scheme", static_cast<double>(stats.scheme)}};
  r.layer["adapt.migrations"] = static_cast<double>(stats.migrations_completed);
  r.layer["adapt.fallback_share"] =
      static_cast<double>(stats.fallback_accesses) /
      static_cast<double>(stats.batched_accesses + stats.fallback_accesses);
  r.layer["adapt.windows_profiled"] =
      static_cast<double>(stats.windows_profiled);
  if (tracer) {
    r.layer["adapt.migrate_call_ms"] =
        migrate_calls == 0 ? 0.0 : migrate_ns / migrate_calls / 1e6;
    r.layer["adapt.steady_ns_per_acc"] =
        steady_acc == 0 ? 0.0 : steady_ns / steady_acc;
  }
  return r;
}

}  // namespace perfbench

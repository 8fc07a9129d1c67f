// Google-benchmark microbenchmarks of the simulator's building blocks:
// how fast the host-side model itself runs (simulation throughput, not
// FPGA bandwidth). Useful for keeping the cycle-accurate STREAM runs and
// the DSE sweeps fast as the library evolves.
#include <benchmark/benchmark.h>

#include <numeric>

#include "core/cycle_polymem.hpp"
#include "core/polymem.hpp"
#include "hw/benes.hpp"
#include "hw/crossbar.hpp"
#include "maf/maf.hpp"
#include "sched/scheduler.hpp"

namespace {

using namespace polymem;

void BM_MafBank(benchmark::State& state) {
  const maf::Maf maf(static_cast<maf::Scheme>(state.range(0)), 2, 4);
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(maf.bank(i, i * 7 + 3));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MafBank)->DenseRange(0, 4)->ArgNames({"scheme"});

void BM_BenesRoute(benchmark::State& state) {
  // Route computation cost — the reason hardware uses crossbars.
  const unsigned lanes = static_cast<unsigned>(state.range(0));
  std::vector<unsigned> sel(lanes);
  std::iota(sel.rbegin(), sel.rend(), 0u);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hw::benes_route(sel));
  }
}
BENCHMARK(BM_BenesRoute)->Arg(8)->Arg(32);

void BM_Shuffle(benchmark::State& state) {
  const unsigned lanes = static_cast<unsigned>(state.range(0));
  std::vector<hw::Word> in(lanes), out(lanes);
  std::vector<unsigned> sel(lanes);
  std::iota(sel.rbegin(), sel.rend(), 0u);
  std::iota(in.begin(), in.end(), 0u);
  for (auto _ : state) {
    hw::shuffle<hw::Word>(in, sel, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * lanes);
}
BENCHMARK(BM_Shuffle)->Arg(8)->Arg(16)->Arg(32);

void BM_PolyMemParallelRead(benchmark::State& state) {
  auto cfg = core::PolyMemConfig::with_capacity(
      64 * KiB, static_cast<maf::Scheme>(state.range(0)), 2, 4);
  core::PolyMem mem(cfg);
  std::vector<core::Word> out(8);
  std::int64_t i = 0;
  const access::PatternKind kind =
      mem.supports(access::PatternKind::kRow) == maf::SupportLevel::kAny
          ? access::PatternKind::kRow
          : access::PatternKind::kRect;
  for (auto _ : state) {
    mem.read_into({kind, {i % (cfg.height - cfg.p), 0}}, 0, out);
    benchmark::DoNotOptimize(out.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_PolyMemParallelRead)->DenseRange(0, 4)->ArgNames({"scheme"});

void BM_PolyMemParallelWrite(benchmark::State& state) {
  auto cfg = core::PolyMemConfig::with_capacity(64 * KiB,
                                                maf::Scheme::kReRo, 2, 4);
  core::PolyMem mem(cfg);
  std::vector<core::Word> data(8, 42);
  std::int64_t i = 0;
  for (auto _ : state) {
    mem.write({access::PatternKind::kRow, {i % cfg.height, 0}}, data);
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_PolyMemParallelWrite);

void BM_CyclePolyMemTick(benchmark::State& state) {
  auto cfg = core::PolyMemConfig::with_capacity(64 * KiB,
                                                maf::Scheme::kReRo, 2, 4);
  core::CyclePolyMem mem(cfg);
  std::int64_t i = 0;
  for (auto _ : state) {
    mem.issue_read(0, {access::PatternKind::kRow, {i % cfg.height, 0}});
    mem.tick();
    benchmark::DoNotOptimize(mem.retire_read(0));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("simulated cycles/s");
}
BENCHMARK(BM_CyclePolyMemTick);

void BM_SchedulerExact(benchmark::State& state) {
  const auto trace = sched::AccessTrace::dense_block(
      {1, 1}, state.range(0), state.range(0));
  const sched::Scheduler scheduler(maf::Scheme::kReRo, 2, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheduler.schedule(trace, sched::SolverKind::kExact));
  }
}
BENCHMARK(BM_SchedulerExact)->Arg(4)->Arg(8)->ArgNames({"tile"});

void BM_ConflictProbe(benchmark::State& state) {
  // Uncached conflict verification cost (one full MAF-period sweep).
  const maf::Maf maf(maf::Scheme::kReRo, 2, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        maf::verify_conflict_free(maf, access::PatternKind::kMainDiag));
  }
}
BENCHMARK(BM_ConflictProbe);

}  // namespace

BENCHMARK_MAIN();

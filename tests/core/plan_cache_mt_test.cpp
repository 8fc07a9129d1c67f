// Concurrency regression tests for PlanCache (run under TSan in CI).
//
// PR 1 left the cache with a per-instance single-entry memo — mutable
// state shared by every caller, a data race the moment two threads
// looked up plans on the same PolyMem. The memo now lives with the
// caller (PlanCache::Memo, one per thread) and the template map sits
// behind a shared_mutex; these tests hammer the lookup path from many
// threads and cross-check every answer against a serial reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "core/exec_plan.hpp"
#include "core/plan_cache.hpp"
#include "core/polymem.hpp"
#include "runtime/thread_pool.hpp"

namespace polymem::core {
namespace {

using access::ParallelAccess;
using access::PatternKind;

PolyMemConfig test_config(maf::Scheme scheme, unsigned p, unsigned q) {
  return PolyMemConfig::with_capacity(64 * KiB, scheme, p, q);
}

struct Answer {
  bool served = false;
  std::vector<unsigned> bank;
  std::vector<std::int64_t> addr;  // addr0 + delta (the per-anchor truth)
};

Answer answer_for(PlanCache& cache, PlanCache::Memo& memo,
                  const ParallelAccess& acc) {
  Answer a;
  std::int64_t delta = 0;
  const PlanTemplate* t = cache.lookup(acc, delta, memo);
  if (t == nullptr) return a;
  a.served = true;
  a.bank = t->bank;
  a.addr = t->addr0;
  for (auto& v : a.addr) v += delta;
  return a;
}

TEST(PlanCacheMt, HammeredLookupsMatchSerialReference) {
  for (auto [scheme, p, q] : {std::tuple{maf::Scheme::kReRo, 2u, 4u},
                              std::tuple{maf::Scheme::kRoCo, 4u, 4u},
                              std::tuple{maf::Scheme::kReTr, 2u, 8u}}) {
    const PolyMemConfig cfg = test_config(scheme, p, q);
    PolyMem mem(cfg);
    PlanCache& cache = mem.plan_cache();

    // The anchor script every thread replays (mixed kinds, strided walk
    // cycling the residue classes, plus rejects: unsupported anchors and
    // out-of-bounds anchors must return null everywhere).
    std::vector<ParallelAccess> script;
    for (std::int64_t i = 0; i < 3 * cache.period_i(); ++i)
      for (std::int64_t j : {std::int64_t{0}, std::int64_t{q},
                             2 * cache.period_j(), cfg.width - q})
        for (PatternKind kind :
             {PatternKind::kRow, PatternKind::kRect, PatternKind::kCol})
          script.push_back({kind, {i, j}});
    script.push_back({PatternKind::kRow, {cfg.height + 5, 0}});

    // Serial reference, fresh memo.
    std::vector<Answer> expected;
    {
      PlanCache::Memo memo;
      for (const auto& acc : script)
        expected.push_back(answer_for(cache, memo, acc));
    }

    // Hammer: 8 threads replay the script 20 times each, all sharing the
    // cache but owning their memos. Every answer must equal the serial
    // reference (template pointers are stable, so the data must be too).
    constexpr int kThreads = 8;
    constexpr int kReps = 20;
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        PlanCache::Memo memo;
        for (int rep = 0; rep < kReps; ++rep)
          for (std::size_t s = 0; s < script.size(); ++s) {
            const Answer got = answer_for(cache, memo, script[s]);
            if (got.served != expected[s].served ||
                got.bank != expected[s].bank || got.addr != expected[s].addr)
              ++mismatches[t];
          }
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);

    // Each residue class was built exactly once despite 8 racing builders.
    const auto stats = cache.stats();
    EXPECT_EQ(stats.builds, stats.templates);
    EXPECT_GT(stats.hits, 0u);
  }
}

TEST(PlanCacheMt, ConcurrentLookupsDuringParallelBatchCompile) {
  // The integrated race: pool workers compile the same batch into their
  // own ExecPlans against one fresh cache (racing template builds) while
  // other tasks issue plain lookups; every plan must equal the serial one.
  const PolyMemConfig cfg = test_config(maf::Scheme::kReRo, 2, 4);
  const AccessBatch batch{PatternKind::kRow, {0, 0},
                          {0, 3},            cfg.width / 3 - 2,
                          {1, 0},            cfg.height};
  PolyMem reference(cfg);
  BankArray banks(cfg.lanes(), cfg.read_ports, cfg.words_per_bank());
  ExecPlan want;
  want.compile(batch, reference.plan_cache(), banks, cfg.lanes());

  runtime::ThreadPool pool(4);
  constexpr int kTasks = 8;
  for (int rep = 0; rep < 3; ++rep) {
    PolyMem mem(cfg);
    std::vector<ExecPlan> plans(kTasks);
    runtime::parallel_for(
        pool, 0, kTasks,
        [&](std::int64_t task, unsigned) {
          if (task % 2 == 0) {
            plans[static_cast<std::size_t>(task)].compile(
                batch, mem.plan_cache(), banks, cfg.lanes());
            return;
          }
          PlanCache::Memo memo;
          std::int64_t delta = 0;
          for (std::int64_t t = batch.count() - 1; t >= 0; t -= 5)
            mem.plan_cache().lookup(batch.access(t), delta, memo);
        },
        1);
    for (int task = 0; task < kTasks; task += 2) {
      const ExecPlan& got = plans[static_cast<std::size_t>(task)];
      ASSERT_EQ(got.count(), want.count());
      ASSERT_EQ(got.table_count(), want.table_count());
      for (std::int64_t t = 0; t < want.count(); ++t) {
        ASSERT_EQ(got.delta()[t], want.delta()[t]) << "rep " << rep;
        // Templates are per cache, so compare what they hold.
        const PlanTemplate& a = *got.table(got.tmpl_of()[t]).tmpl;
        const PlanTemplate& b = *want.table(want.tmpl_of()[t]).tmpl;
        ASSERT_EQ(a.bank, b.bank) << "rep " << rep << " access " << t;
        ASSERT_EQ(a.bank_addr0, b.bank_addr0);
      }
    }
    const auto stats = mem.plan_cache().stats();
    EXPECT_EQ(stats.builds, stats.templates);  // each class built once
  }
}

}  // namespace
}  // namespace polymem::core

// ExecPlan — a batch of parallel accesses compiled to flat SoA tables.
//
// The plan-template cache (core/plan_cache.hpp) already reduces one
// access to "permute through a residue-class table, add one delta per
// bank". What remained slow (BENCH_core.json: 75–130 ns/access) was the
// *execution*: per access, the engine still walked per-lane vectors,
// reset per-bank cycle state and crossed a function call per bank. The
// plan is a static permutation, so execution should be a gather, not a
// traversal.
//
// compile() turns a whole AccessBatch into structure-of-arrays form:
//
//   tmpl_of[t]  int32  — which residue-class table access t uses
//                        (strided walks cycle through a handful);
//   delta[t]    int64  — access t's word offset from the table's base
//                        addresses (the plan cache's per-anchor delta);
//   tables[m]          — one entry per distinct residue class touched:
//     lane_base / bank_base       pointer tables that fold the bank
//                                 select and base address into a single
//                                 uintptr per lane/bank — so executing
//                                 access t is the gather
//                                   out[k] = *(lane_base[k] + delta[t])
//                                 and, for writes, the mirrored scatter
//                                 through the template's lane_for_bank.
//
// PolyMem::exec_read / exec_write are that loop, in portable C++
// (docs/ARCHITECTURE.md, "Compiled execution engine").
//
// All arrays are cache-line aligned (simd/aligned.hpp) and resized in
// place: recompiling a plan of the same shape allocates nothing, which
// the batch heap-count test enforces. The pointer tables stay valid for
// the owning PolyMem's lifetime — bank storage is fixed at construction
// and plan templates are pinned — so a compiled plan can be memoized and
// replayed for every later call with an equal AccessBatch.
//
// The permutation baked into each table is safe to replay blindly: the
// capability oracle proves conflict-freedom for the scheme per residue
// class before the plan cache hands out a template, which makes its `bank` a
// permutation of [0, lanes) by construction (see plan_cache.hpp). That is
// why execution needs no per-cycle bank-conflict accounting.
#pragma once

#include <cstdint>
#include <vector>

#include "core/access_batch.hpp"
#include "core/banks.hpp"
#include "core/plan_cache.hpp"
#include "core/simd/aligned.hpp"

namespace polymem::core {

class ExecPlan {
 public:
  struct Tables {
    const PlanTemplate* tmpl = nullptr;
    // Gather table, [port][lane] flattened: replica `port`'s storage of
    // lane k's bank, pre-advanced by the lane's base address.
    simd::AlignedVec<std::uintptr_t> lane_base;
    // Scatter table, [replica][bank] flattened: every replica's storage
    // of bank b, pre-advanced by the bank's base address.
    simd::AlignedVec<std::uintptr_t> bank_base;
  };

  /// Compiles `batch` against the plan cache and bank storage. The batch
  /// must already be validated (PolyMem::validate_batch): every access then
  /// has a template, so compilation cannot fail. An access without one
  /// throws InvalidArgument. The table pool grows to the number of residue
  /// classes the batch spans and keeps that capacity for later compiles.
  void compile(const AccessBatch& batch, PlanCache& cache, BankArray& banks,
               unsigned lanes);

  std::int64_t count() const { return count_; }
  unsigned lanes() const { return lanes_; }
  unsigned ports() const { return ports_; }
  std::size_t table_count() const { return used_; }

  const Tables& table(std::size_t m) const { return tables_[m]; }
  const std::int32_t* tmpl_of() const { return tmpl_of_.data(); }
  const std::int64_t* delta() const { return delta_.data(); }

  /// Gather pointer table of table `m` as seen by read replica `port`.
  const std::uintptr_t* lane_base(std::size_t m, unsigned port) const {
    return tables_[m].lane_base.data() +
           static_cast<std::size_t>(port) * lanes_;
  }

 private:
  Tables& acquire_table(const PlanTemplate* tmpl, BankArray& banks);
  std::int32_t resolve_table(const PlanTemplate* tmpl, BankArray& banks);

  simd::AlignedVec<std::int32_t> tmpl_of_;
  simd::AlignedVec<std::int64_t> delta_;
  // Table pool. [0, used_) is the current batch's tables in first-use
  // order — the dense prefix tmpl_of_ indexes and uniform() relies on.
  // [used_, pool_size_) retains tables built by earlier compiles of the
  // same (banks, lanes) pairing: a drain loop recompiling run after run
  // cycles through the same few residue classes, and rebuilding their
  // pointer tables dominated recompile cost. Reuse swaps a retained
  // table into the live prefix instead of rebuilding it; the pool is
  // dropped whenever the bank storage, lane count or port count change.
  std::vector<Tables> tables_;
  std::size_t used_ = 0;
  std::size_t pool_size_ = 0;
  const void* pool_key_ = nullptr;  // BankArray the pool was built against
  std::int64_t count_ = 0;
  unsigned lanes_ = 0;
  unsigned ports_ = 0;
};

}  // namespace polymem::core

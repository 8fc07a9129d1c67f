// Plan-template cache — the fast path of the access engine.
//
// Every MAF in maf/maf.hpp is periodic per axis (Maf::period_i/period_j),
// and the addressing function A(i,j) = |i/p|*(W/q) + |j/q| decomposes over
// those periods: writing the anchor as a = A*P + r (P the axis period,
// r the residue), the bank of every element of the access depends only on
// (pattern, r), and its intra-bank address is an affine shift of the
// residue-anchor address:
//
//   bank(a + d)  = bank(r + d)
//   addr(a + d)  = addr0(r + d) + Ai*(Pi/p)*(W/q) + Aj*(Pj/q)
//
// So one *plan template* per (pattern, anchor-residue) class — the bank
// permutation, its inverse, and the per-lane/per-bank base addresses —
// replaces the per-lane MAF + addressing + shuffle work of the naive AGU
// path with one cache lookup and one add per bank. The templates sit in
// one dense table indexed by (pattern, ri, rj), like the hardware's ROM;
// each is built lazily on first use and reused for every later access in
// the same residue class (strided walks cycle through a handful of
// classes). The six pattern support levels are probed once, when the
// cache is built, and are the one support table of the owning PolyMem.
//
// Ownership: single-owner, like the PolyMem that holds it. One thread
// drives a PolyMem (and so its cache) at a time; lookup() builds templates
// and bumps plain counters without locks. support() is immutable after
// construction, so any thread may read it. Template pointers are stable
// for the cache's lifetime.
//
// Totality: a geometry is accepted only when every template it could ever
// need fits the key space and the template budget (fits()), so lookup()
// serves every access that PolyMem::validate_batch admits — the compiled
// engine never needs a fallback.
//
// Correctness rests on two machine-checked facts: the axis periods
// (tested against Maf::bank over multiple periods) and conflict-freeness
// (the capability oracle's exhaustive per-period proof, which also makes
// every template's bank vector a permutation by construction). The
// differential test suite (tests/core/plan_cache_test.cpp) additionally
// asserts bitwise equality of cached and naive plans and data for every
// scheme x pattern x an anchor sweep.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "access/pattern.hpp"
#include "core/config.hpp"
#include "maf/conflict.hpp"
#include "maf/maf.hpp"

namespace polymem::core {

/// The reusable part of an AccessPlan for one (pattern, anchor-residue)
/// class: the bank permutation in both directions and the base intra-bank
/// addresses. Per-anchor plans are `bank_addr0[b] + delta` with the O(1)
/// delta returned by PlanCache::lookup.
struct PlanTemplate {
  std::vector<unsigned> bank;           ///< lane k -> bank (permutation)
  std::vector<unsigned> lane_for_bank;  ///< bank b -> lane (inverse perm)
  std::vector<std::int64_t> addr0;      ///< lane k -> base address
  std::vector<std::int64_t> bank_addr0; ///< bank b -> base address
};

class PlanCache {
 public:
  /// Probes the support level of every pattern kind. Throws
  /// InvalidArgument when the geometry fails fits().
  PlanCache(const PolyMemConfig& config, const maf::Maf& maf);

  /// True when every (pattern, residue) template of `maf` fits the key
  /// space and the template budget — the precondition of a total lookup.
  static bool fits(const maf::Maf& maf);

  // Holds pointers into the owning PolyMem's blocks; pinned like them.
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// O(1) template lookup. Returns the template plus the per-anchor
  /// address offset `delta` (element addresses are `addr0[k] + delta`).
  /// Never null for an access PolyMem::validate_batch accepts; returns
  /// nullptr only when the pattern is unsupported (including unaligned
  /// anchors of aligned-only patterns) or the access leaves the address
  /// space. Every non-null lookup counts as exactly one hit or one build.
  const PlanTemplate* lookup(const access::ParallelAccess& access,
                             std::int64_t& delta);

  /// Support level of `kind` under this MAF (probed at construction).
  maf::SupportLevel support(access::PatternKind kind) const {
    return kinds_[static_cast<std::size_t>(kind)].support;
  }

  /// True when the pattern is usable at the access's anchor: kAny, or
  /// kAligned with a p/q-aligned anchor. Bounds are not checked.
  bool serves(const access::ParallelAccess& access) const;

  std::int64_t period_i() const { return period_i_; }
  std::int64_t period_j() const { return period_j_; }

  /// Served-from-cache and template-build counters (lookup misses that
  /// return nullptr count as neither). Every build fills one table slot,
  /// so the template count is the build count.
  std::uint64_t hits() const { return hits_; }
  std::uint64_t builds() const { return builds_; }
  std::size_t size() const { return static_cast<std::size_t>(builds_); }

  /// Aggregate cache state, one call — for polymem_info and reports.
  struct Stats {
    std::int64_t period_i = 1;
    std::int64_t period_j = 1;
    std::uint64_t hits = 0;
    std::uint64_t builds = 0;
    std::size_t templates = 0;
  };
  Stats stats() const {
    return {period_i_, period_j_, hits(), builds(), size()};
  }

 private:
  struct KindInfo {
    maf::SupportLevel support = maf::SupportLevel::kNone;
    // Valid anchor rectangle (inclusive) for in-bounds accesses.
    std::int64_t min_i = 0, max_i = -1;
    std::int64_t min_j = 0, max_j = -1;
  };

  std::unique_ptr<PlanTemplate> build(access::PatternKind kind,
                                      std::int64_t ri, std::int64_t rj);

  const PolyMemConfig* config_;
  const maf::Maf* maf_;
  std::int64_t period_i_ = 1;
  std::int64_t period_j_ = 1;
  std::int64_t row_words_ = 0;   // W/q: address stride of one block row
  std::int64_t delta_i_ = 0;     // (Pi/p) * (W/q): delta per i-period
  std::int64_t delta_j_ = 0;     // Pj/q: delta per j-period
  KindInfo kinds_[6];

  // Dense template table, 6 * Pi * Pj slots indexed by
  // (kind * Pi + ri) * Pj + rj; a null slot is a class not yet built.
  std::vector<std::unique_ptr<PlanTemplate>> templates_;
  std::vector<access::Coord> coords_scratch_;  // build() expansion buffer

  std::uint64_t hits_ = 0;
  std::uint64_t builds_ = 0;
};

}  // namespace polymem::core

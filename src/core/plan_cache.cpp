#include "core/plan_cache.hpp"

#include <iterator>

#include "common/error.hpp"
#include "common/math.hpp"

namespace polymem::core {

using access::ParallelAccess;
using access::PatternKind;

namespace {

// Keeps the product kinds * Pi * Pj in fits() far from overflowing.
constexpr std::int64_t kMaxPeriod = std::int64_t{1} << 20;

// Upper bound on the templates one geometry may need: one per pattern kind
// per (ri, rj) residue pair, which is also the size of the dense template
// table. Geometries above it are rejected up front so that lookup never
// has to refuse a valid access. The largest geometries in use (16 lanes)
// need at most 6 * 2048 = 12288.
constexpr std::int64_t kMaxTemplates = std::int64_t{1} << 16;

}  // namespace

bool PlanCache::fits(const maf::Maf& maf) {
  const std::int64_t pi = maf.period_i();
  const std::int64_t pj = maf.period_j();
  const auto kinds = static_cast<std::int64_t>(std::size(access::kAllPatterns));
  return pi < kMaxPeriod && pj < kMaxPeriod &&
         kinds * pi * pj <= kMaxTemplates;
}

PlanCache::PlanCache(const PolyMemConfig& config, const maf::Maf& maf)
    : config_(&config), maf_(&maf) {
  POLYMEM_REQUIRE(fits(maf),
                  "MAF periods of this geometry exceed the plan-template "
                  "budget");
  period_i_ = maf.period_i();
  period_j_ = maf.period_j();
  POLYMEM_ASSERT(period_i_ % config.p == 0 && period_j_ % config.q == 0);
  row_words_ = config.width / config.q;
  delta_i_ = (period_i_ / config.p) * row_words_;
  delta_j_ = period_j_ / config.q;
  coords_scratch_.reserve(config.lanes());
  templates_.resize(static_cast<std::size_t>(
      std::ssize(access::kAllPatterns) * period_i_ * period_j_));
  for (PatternKind kind : access::kAllPatterns) {
    const auto ext = access::pattern_extent(kind, config.p, config.q);
    KindInfo& ki = kinds_[static_cast<std::size_t>(kind)];
    ki.support = maf::probe_support(maf, kind);
    ki.min_i = 0;
    ki.max_i = config.height - ext.rows;
    ki.min_j = -ext.col_offset;
    ki.max_j = config.width - ext.cols - ext.col_offset;
  }
}

bool PlanCache::serves(const ParallelAccess& access) const {
  switch (support(access.kind)) {
    case maf::SupportLevel::kAny:
      return true;
    case maf::SupportLevel::kAligned:
      return access.anchor.i % config_->p == 0 &&
             access.anchor.j % config_->q == 0;
    case maf::SupportLevel::kNone:
      return false;
  }
  return false;
}

const PlanTemplate* PlanCache::lookup(const ParallelAccess& access,
                                      std::int64_t& delta) {
  // Periods are multiples of p and q, so alignment is a residue-class
  // property and each cached template is alignment-consistent.
  if (!serves(access)) return nullptr;
  const KindInfo& ki = kinds_[static_cast<std::size_t>(access.kind)];
  const auto [ai, aj] = access.anchor;
  if (ai < ki.min_i || ai > ki.max_i || aj < ki.min_j || aj > ki.max_j)
    return nullptr;
  // In-bounds anchors are non-negative (min_j >= 0 even for SecDiag), so
  // plain division is the floored decomposition a = A*P + r, r in [0, P).
  const std::int64_t ri = ai % period_i_;
  const std::int64_t rj = aj % period_j_;
  delta = (ai / period_i_) * delta_i_ + (aj / period_j_) * delta_j_;
  std::unique_ptr<PlanTemplate>& slot = templates_[static_cast<std::size_t>(
      (static_cast<std::int64_t>(access.kind) * period_i_ + ri) * period_j_ +
      rj)];
  if (slot != nullptr) {
    ++hits_;
  } else {
    slot = build(access.kind, ri, rj);
    ++builds_;
  }
  return slot.get();
}

std::unique_ptr<PlanTemplate> PlanCache::build(PatternKind kind,
                                               std::int64_t ri,
                                               std::int64_t rj) {
  // The residue anchor (ri, rj) may place elements outside the address
  // space or below zero (SecDiag walks left); bank() and the floordiv
  // decomposition are defined there, and the per-anchor delta shifts the
  // base addresses back into range for every real anchor of the class.
  access::expand_into({kind, {ri, rj}}, config_->p, config_->q,
                      coords_scratch_);
  const unsigned lanes = static_cast<unsigned>(coords_scratch_.size());
  auto t = std::make_unique<PlanTemplate>();
  t->bank.resize(lanes);
  t->lane_for_bank.resize(lanes);
  t->addr0.resize(lanes);
  t->bank_addr0.resize(lanes);
  const auto p = static_cast<std::int64_t>(config_->p);
  const auto q = static_cast<std::int64_t>(config_->q);
  for (unsigned k = 0; k < lanes; ++k) {
    const access::Coord c = coords_scratch_[k];
    t->bank[k] = maf_->bank(c);
    t->addr0[k] = floordiv(c.i, p) * row_words_ + floordiv(c.j, q);
  }
  for (unsigned k = 0; k < lanes; ++k) {
    // Conflict-freeness (proven by the oracle before lookup hands out
    // templates) makes `bank` a permutation; a violation here is a bug.
    POLYMEM_ASSERT(t->bank[k] < lanes);
    t->lane_for_bank[t->bank[k]] = k;
    t->bank_addr0[t->bank[k]] = t->addr0[k];
  }
  return t;
}

}  // namespace polymem::core

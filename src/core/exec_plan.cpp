#include "core/exec_plan.hpp"

#include <numeric>

#include "common/error.hpp"

namespace polymem::core {

namespace {

/// Steps of `stride` until the anchor returns to the same residue class
/// modulo the MAF's axis period (1 when the stride never moves the axis).
std::int64_t axis_period(std::int64_t period, std::int64_t stride) {
  if (stride == 0) return 1;
  const std::int64_t magnitude = stride < 0 ? -stride : stride;
  return period / std::gcd(period, magnitude);
}

}  // namespace

ExecPlan::Tables& ExecPlan::acquire_table(const PlanTemplate* tmpl,
                                          BankArray& banks) {
  if (used_ == tables_.size()) tables_.emplace_back();
  // Building into a slot below pool_size_ evicts the retained table that
  // lived there; otherwise the pool grows by the new entry.
  if (used_ >= pool_size_) pool_size_ = used_ + 1;
  Tables& t = tables_[used_++];
  t.tmpl = tmpl;
  const unsigned lanes = lanes_;
  const unsigned ports = ports_;
  t.lane_base.resize(static_cast<std::size_t>(ports) * lanes);
  t.bank_base.resize(static_cast<std::size_t>(ports) * lanes);
  // Base addresses of a residue class may sit below the bank's first word
  // (the per-anchor delta shifts them back in range); fold them into the
  // table as integers so no out-of-range pointer is ever formed.
  for (unsigned r = 0; r < ports; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * lanes;
    for (unsigned k = 0; k < lanes; ++k) {
      t.lane_base[row + k] =
          reinterpret_cast<std::uintptr_t>(
              banks.bank_storage(r, tmpl->bank[k])) +
          static_cast<std::uintptr_t>(
              static_cast<std::int64_t>(sizeof(hw::Word)) * tmpl->addr0[k]);
      t.bank_base[row + k] =
          reinterpret_cast<std::uintptr_t>(banks.bank_storage(r, k)) +
          static_cast<std::uintptr_t>(static_cast<std::int64_t>(
                                          sizeof(hw::Word)) *
                                      tmpl->bank_addr0[k]);
    }
  }
  return t;
}

std::int32_t ExecPlan::resolve_table(const PlanTemplate* tmpl,
                                     BankArray& banks) {
  for (std::size_t m = 0; m < used_; ++m) {
    if (tables_[m].tmpl == tmpl) return static_cast<std::int32_t>(m);
  }
  for (std::size_t m = used_; m < pool_size_; ++m) {
    if (tables_[m].tmpl == tmpl) {
      // Retained from an earlier compile: swap into the live prefix so
      // tmpl_of_ stays dense — no pointer-table rebuild.
      std::swap(tables_[used_], tables_[m]);
      return static_cast<std::int32_t>(used_++);
    }
  }
  acquire_table(tmpl, banks);
  return static_cast<std::int32_t>(used_ - 1);
}

void ExecPlan::compile(const AccessBatch& batch, PlanCache& cache,
                       BankArray& banks, unsigned lanes) {
  if (pool_key_ != &banks || lanes_ != lanes ||
      ports_ != banks.read_ports()) {
    pool_size_ = 0;  // pointer tables belong to another memory; rebuild
    pool_key_ = &banks;
  }
  count_ = batch.count();
  lanes_ = lanes;
  ports_ = banks.read_ports();
  used_ = 0;
  tmpl_of_.resize(static_cast<std::size_t>(count_));
  delta_.resize(static_cast<std::size_t>(count_));

  std::int32_t last = -1;  // table index the previous access resolved to
  const auto resolve = [&](std::int64_t t,
                           const access::ParallelAccess& acc) {
    std::int64_t delta = 0;
    const PlanTemplate* tmpl = cache.lookup(acc, delta);
    POLYMEM_REQUIRE(tmpl != nullptr,
                    "ExecPlan::compile needs a validated batch");
    if (last < 0 || tables_[static_cast<std::size_t>(last)].tmpl != tmpl)
      last = resolve_table(tmpl, banks);
    tmpl_of_[static_cast<std::size_t>(t)] = last;
    delta_[static_cast<std::size_t>(t)] = delta;
  };

  access::ParallelAccess acc{batch.kind, batch.start};
  if (batch.outer_count == 1) {
    // Single strided walk — the shape every coalesced service run takes.
    // Anchors repeat their residue class every `period` steps (the MAF's
    // axis periods divided by the stride), and within one class the
    // per-anchor delta is affine in the block coordinates (see
    // plan_cache.hpp), so after resolving one full period plus one
    // access, the rest of the batch is a copy with a constant delta
    // advance — no cache lookups. The caller already bounds-checked the
    // whole batch (PolyMem::validate_batch corner check), so skipping
    // lookup() skips only work, never a safety check.
    const std::int64_t period =
        axis_period(cache.period_i(), batch.inner_stride.i) *
        axis_period(cache.period_j(), batch.inner_stride.j);
    const std::int64_t head =
        (period > 0 && period + 1 < count_) ? period + 1 : count_;
    std::int64_t t = 0;
    for (; t < head; ++t) {
      resolve(t, acc);
      acc.anchor.i += batch.inner_stride.i;
      acc.anchor.j += batch.inner_stride.j;
    }
    if (t < count_ &&
        tmpl_of_[static_cast<std::size_t>(period)] == tmpl_of_[0]) {
      const std::int64_t advance =
          delta_[static_cast<std::size_t>(period)] - delta_[0];
      for (; t < count_; ++t) {
        const auto cur = static_cast<std::size_t>(t);
        const auto prev = static_cast<std::size_t>(t - period);
        tmpl_of_[cur] = tmpl_of_[prev];
        delta_[cur] = delta_[prev] + advance;
      }
    } else {
      for (; t < count_; ++t) {
        resolve(t, acc);
        acc.anchor.i += batch.inner_stride.i;
        acc.anchor.j += batch.inner_stride.j;
      }
    }
    return;
  }

  std::int64_t t = 0;
  for (std::int64_t o = 0; o < batch.outer_count; ++o) {
    acc.anchor = {batch.start.i + o * batch.outer_stride.i,
                  batch.start.j + o * batch.outer_stride.j};
    for (std::int64_t k = 0; k < batch.inner_count; ++k) {
      resolve(t, acc);
      ++t;
      acc.anchor.i += batch.inner_stride.i;
      acc.anchor.j += batch.inner_stride.j;
    }
  }
}

}  // namespace polymem::core

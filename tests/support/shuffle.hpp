// The three shuffle networks of MAX-PolyMem (paper Fig. 3).
//
// Lanes carry data in canonical order; banks are indexed by the MAF. The
// AccessPlan's `bank` vector is simultaneously the reordering signal of all
// three crossbars:
//
//   Address Shuffle     (inverse) : bank b receives the address of the lane
//                                   whose element lives in b.
//   Write Data Shuffle  (inverse) : bank b receives that lane's data word.
//   Read Data Shuffle   (regular) : lane k receives the word read from
//                                   bank[k].
//
// "the Write Data Shuffle is implemented using an inverse Shuffle, while
//  the Read Data Shuffle is implemented using a regular Shuffle."
//
// core::PolyMem folds these permutations into its plan templates; the
// per-access shuffles run only in the reference engine (naive_polymem.hpp).
#pragma once

#include <span>

#include "core/agu.hpp"
#include "hw/bram.hpp"
#include "hw/crossbar.hpp"

namespace polymem::core {

/// Routes per-lane intra-bank addresses to per-bank address inputs.
inline void address_shuffle(const AccessPlan& plan,
                            std::span<std::int64_t> per_bank_addr) {
  hw::inverse_shuffle<std::int64_t>(plan.addr, plan.bank, per_bank_addr);
}

/// Routes canonical-order input data to per-bank data inputs.
inline void write_data_shuffle(const AccessPlan& plan,
                               std::span<const hw::Word> data_in,
                               std::span<hw::Word> per_bank_data) {
  hw::inverse_shuffle<hw::Word>(data_in, plan.bank, per_bank_data);
}

/// Restores canonical order on data coming out of the banks.
inline void read_data_shuffle(const AccessPlan& plan,
                              std::span<const hw::Word> per_bank_data,
                              std::span<hw::Word> data_out) {
  hw::shuffle<hw::Word>(per_bank_data, plan.bank, data_out);
}

}  // namespace polymem::core

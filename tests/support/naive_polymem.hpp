// NaivePolyMem — the reference engine the library is checked against.
//
// The per-lane data path of paper Fig. 3, exactly as drawn: per access the
// AGU runs the support probe and bounds check and computes every lane's
// bank and address (core/agu.hpp), the address and write-data shuffles
// route lanes to banks, the banks serve the cycle with port accounting,
// and the read-data shuffle restores canonical order (support/shuffle.hpp).
// No plan templates, no compiled tables, no gather loop — nothing that
// core::PolyMem's single execution path shares beyond the MAF, the
// addressing function and the bank model.
//
// Tests compare PolyMem against it bit for bit; tools/bench_core times
// it as the naive baseline. It mirrors the PolyMem
// calls those users need; batch calls are plain per-access loops.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "access/pattern.hpp"
#include "core/access_batch.hpp"
#include "core/agu.hpp"
#include "core/banks.hpp"
#include "core/config.hpp"
#include "maf/addressing.hpp"
#include "maf/conflict.hpp"
#include "maf/maf.hpp"

namespace polymem::core {

class NaivePolyMem {
 public:
  explicit NaivePolyMem(PolyMemConfig config);

  // The AGU holds pointers to the MAF and addressing members.
  NaivePolyMem(const NaivePolyMem&) = delete;
  NaivePolyMem& operator=(const NaivePolyMem&) = delete;

  const PolyMemConfig& config() const { return config_; }
  const maf::Maf& maf() const { return maf_; }
  unsigned lanes() const { return config_.lanes(); }
  maf::SupportLevel supports(access::PatternKind pattern) const;

  /// One parallel access through AGU, shuffles and banks. Throws like the
  /// AGU: Unsupported for a pattern/anchor the scheme cannot serve,
  /// InvalidArgument for an access outside the address space.
  void write(const access::ParallelAccess& where,
             std::span<const hw::Word> data);
  void read_into(const access::ParallelAccess& where, unsigned port,
                 std::span<hw::Word> out);
  std::vector<hw::Word> read(const access::ParallelAccess& where,
                             unsigned port = 0);

  /// Per-access loops over the batch, in flat order.
  void read_batch(const AccessBatch& batch, unsigned port,
                  std::span<hw::Word> out);
  void write_batch(const AccessBatch& batch, std::span<const hw::Word> data);

  /// Scalar host backdoor and row-major rectangle helpers.
  hw::Word load(access::Coord c) const;
  void store(access::Coord c, hw::Word value);
  void fill_rect(access::Coord origin, std::int64_t rows, std::int64_t cols,
                 std::span<const hw::Word> values);
  void dump_rect(access::Coord origin, std::int64_t rows, std::int64_t cols,
                 std::span<hw::Word> values) const;

  std::uint64_t parallel_reads() const { return parallel_reads_; }
  std::uint64_t parallel_writes() const { return parallel_writes_; }

 private:
  PolyMemConfig config_;
  maf::Maf maf_;
  maf::AddressingFunction addressing_;
  Agu agu_;
  BankArray banks_;
  AccessPlan plan_;
  std::vector<std::int64_t> bank_addr_;
  std::vector<hw::Word> bank_data_;
  std::uint64_t parallel_reads_ = 0;
  std::uint64_t parallel_writes_ = 0;
};

}  // namespace polymem::core

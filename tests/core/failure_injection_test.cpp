// Failure injection: every layer of the stack must *loudly* reject what
// real hardware would silently corrupt. These tests drive each layer with
// deliberately broken inputs and assert the failure surfaces at the right
// place with the right type.
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "core/agu.hpp"
#include "core/banks.hpp"
#include "core/cycle_polymem.hpp"
#include "core/polymem.hpp"
#include "support/shuffle.hpp"

namespace polymem::core {
namespace {

using access::ParallelAccess;
using access::PatternKind;

TEST(FailureInjection, UnsupportedPatternStoppedAtTheAgu) {
  // Layer 1: a pattern the scheme cannot serve never reaches the banks.
  PolyMem mem(PolyMemConfig::with_capacity(4 * KiB, maf::Scheme::kReO, 2, 4));
  EXPECT_THROW(mem.read({PatternKind::kRow, {0, 0}}), Unsupported);
  EXPECT_EQ(mem.parallel_reads(), 0u);  // nothing was counted
}

TEST(FailureInjection, ConflictingBankVectorStoppedAtTheShuffle) {
  // Layer 2: a corrupted (non-permutation) bank select — as a broken MAF
  // would produce — is rejected by the crossbar's permutation check.
  PolyMem mem(PolyMemConfig::with_capacity(4 * KiB, maf::Scheme::kReRo, 2, 4));
  const Agu agu(mem.config(), mem.maf(), mem.addressing());
  AccessPlan plan = agu.expand({PatternKind::kRow, {0, 0}});
  plan.bank[3] = plan.bank[2];  // two lanes claim the same bank
  std::vector<std::int64_t> per_bank_addr(8);
  EXPECT_THROW(address_shuffle(plan, per_bank_addr), InvalidArgument);
  std::vector<Word> data(8), routed(8);
  EXPECT_THROW(write_data_shuffle(plan, data, routed), InvalidArgument);
  EXPECT_THROW(read_data_shuffle(plan, data, routed), InvalidArgument);
}

TEST(FailureInjection, DoubleBankAccessStoppedAtTheBram) {
  // Layer 3: even if routing were bypassed, the BRAM port accounting
  // catches two same-cycle accesses to one bank.
  BankArray banks(8, 1, 16);
  std::vector<std::int64_t> addr(8, 0);
  std::vector<hw::Word> out(8);
  banks.begin_cycle();
  banks.read(0, addr, out);
  // A second full read in the same cycle double-uses every bank port.
  EXPECT_THROW(banks.read(0, addr, out), Error);
}

TEST(FailureInjection, OutOfBoundsAddressStoppedBeforeTheBanks) {
  PolyMem mem(PolyMemConfig::with_capacity(4 * KiB, maf::Scheme::kReRo, 2, 4));
  const std::uint64_t writes_before = mem.parallel_writes();
  std::vector<Word> data(8, 1);
  EXPECT_THROW(mem.write({PatternKind::kRow, {0, mem.config().width - 1}},
                         data),
               InvalidArgument);
  EXPECT_EQ(mem.parallel_writes(), writes_before);
  // The memory is untouched.
  EXPECT_EQ(mem.load({0, mem.config().width - 1}), 0u);
}

TEST(FailureInjection, CycleModelPortOversubscription) {
  auto cfg = PolyMemConfig::with_capacity(4 * KiB, maf::Scheme::kReRo, 2, 4);
  CyclePolyMem mem(cfg);
  EXPECT_TRUE(mem.issue_read(0, {PatternKind::kRow, {0, 0}}));
  EXPECT_FALSE(mem.issue_read(0, {PatternKind::kRow, {1, 0}}));  // refused
  EXPECT_THROW(mem.issue_read(1, {PatternKind::kRow, {0, 0}}),
               InvalidArgument);  // port 1 does not exist
  mem.tick();
  EXPECT_EQ(mem.reads_issued(), 1u);  // the refused issue left no trace
}

TEST(FailureInjection, BadConfigurationsNeverConstruct) {
  PolyMemConfig cfg;
  cfg.height = 9;  // not a multiple of p = 2
  cfg.width = 16;
  EXPECT_THROW(PolyMem{cfg}, InvalidArgument);
  cfg.height = 8;
  cfg.read_ports = 0;
  EXPECT_THROW(PolyMem{cfg}, InvalidArgument);
  cfg.read_ports = 1;
  EXPECT_NO_THROW(PolyMem{cfg});
}

TEST(FailureInjection, ReTrGeometryWithoutSkewingRejected) {
  // A geometry for which the coefficient family has no conflict-free
  // member must be refused at construction, not fail silently later.
  // (3, 5): the search space is tiny, so the failure is immediate.
  bool constructed = false;
  try {
    maf::Maf maf(maf::Scheme::kReTr, 3, 5);
    constructed = true;
    // If a skewing exists after all, it must at least be verified.
    EXPECT_TRUE(maf::verify_conflict_free(maf, PatternKind::kRect));
    EXPECT_TRUE(maf::verify_conflict_free(maf, PatternKind::kTRect));
  } catch (const Unsupported&) {
    // Equally acceptable: cleanly refused.
  }
  (void)constructed;
}

TEST(FailureInjection, WrongDataWidthRejectedEverywhere) {
  PolyMem mem(PolyMemConfig::with_capacity(4 * KiB, maf::Scheme::kReRo, 2, 4));
  std::vector<Word> short_data(7);
  std::vector<Word> long_buf(9);
  EXPECT_THROW(mem.write({PatternKind::kRow, {0, 0}}, short_data),
               InvalidArgument);
  EXPECT_THROW(mem.read_into({PatternKind::kRow, {0, 0}}, 0, long_buf),
               InvalidArgument);
  CyclePolyMem cycle(mem.config());
  EXPECT_THROW(cycle.issue_write({PatternKind::kRow, {0, 0}}, short_data),
               InvalidArgument);
}

}  // namespace
}  // namespace polymem::core

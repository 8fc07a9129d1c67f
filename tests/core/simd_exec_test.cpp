// Differential gate of the compiled SIMD execution engine
// (core/exec_plan.hpp + core/simd/): for every scheme x geometry x
// supported pattern, the compiled path — at every kernel level the host
// supports — must be bit-identical to the naive per-access oracle
// (tests/support) for read_batch, write_batch and the compile_batch entry
// points. Full sweeps span every residue class, more than 64 of them on
// 4x4, so the multi-table kernels run with a wide table pool. A
// forced-scalar dispatch test keeps the scalar kernels exercised on AVX2
// hosts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "core/polymem.hpp"
#include "core/simd/dispatch.hpp"
#include "support/naive_polymem.hpp"

namespace polymem::core {
namespace {

using access::Coord;
using access::PatternKind;
using maf::Scheme;
using maf::SupportLevel;

struct Geometry {
  unsigned p, q;
};

constexpr Geometry kGeometries[] = {{2, 2}, {2, 4}, {4, 4}};

// Restores whatever level was active on entry (which may be scalar via
// POLYMEM_FORCE_SCALAR even on an AVX2 host) when a test exits, pass or
// fail — the SIMD sweeps must not leak a forced level into later tests.
struct LevelGuard {
  simd::Level entry = simd::active_level();
  ~LevelGuard() { simd::force_level(entry); }
};

// Every level the host can actually run (scalar always; AVX2/NEON when
// detected). force_level clamps, so requesting an unsupported level
// silently stays scalar — filter those out to avoid duplicate runs.
std::vector<simd::Level> host_levels() {
  LevelGuard guard;
  std::vector<simd::Level> levels{simd::Level::kScalar};
  for (simd::Level l : {simd::Level::kAvx2, simd::Level::kNeon}) {
    simd::force_level(l);
    if (simd::active_level() == l) levels.push_back(l);
  }
  return levels;
}

PolyMemConfig make_config(Scheme scheme, Geometry g) {
  return PolyMemConfig::with_capacity(16 * KiB, scheme, g.p, g.q);
}

template <typename Mem>
void fill_deterministic(Mem& mem) {
  const auto& cfg = mem.config();
  std::vector<Word> values(static_cast<std::size_t>(cfg.height) * cfg.width);
  for (std::size_t k = 0; k < values.size(); ++k)
    values[k] = 0xD1B54A32D192ED03ull * (k + 1);
  mem.fill_rect({0, 0}, cfg.height, cfg.width, values);
}

// A batch of every in-bounds anchor of `kind` (p/q-aligned when the
// scheme only serves aligned anchors) — covers every residue class, so
// both the uniform and the multi-table kernel paths run.
AccessBatch full_sweep(const PolyMemConfig& cfg, PatternKind kind,
                       SupportLevel level) {
  const auto ext =
      access::pattern_extent(kind, cfg.p, cfg.q);
  const std::int64_t step_i =
      level == SupportLevel::kAligned ? cfg.p : 1;
  const std::int64_t step_j =
      level == SupportLevel::kAligned ? cfg.q : 1;
  const std::int64_t rows = (cfg.height - ext.rows) / step_i + 1;
  const std::int64_t min_j = -ext.col_offset;
  const std::int64_t max_j = cfg.width - ext.cols - ext.col_offset;
  std::int64_t start_j = min_j;
  if (level == SupportLevel::kAligned && start_j % cfg.q != 0)
    start_j += cfg.q - start_j % cfg.q;
  const std::int64_t cols = (max_j - start_j) / step_j + 1;
  return {kind, {0, start_j}, {0, step_j}, cols, {step_i, 0}, rows};
}

// A 4x4 full sweep must span more residue classes than this, so the
// compiled path is covered with table pools wider than 64.
constexpr std::size_t kWideTables = 64;

TEST(SimdExec, ReadBatchBitIdenticalAcrossLevels) {
  LevelGuard guard;
  const auto levels = host_levels();
  std::size_t widest_4x4 = 0;
  for (Scheme scheme : maf::kAllSchemes) {
    for (Geometry g : kGeometries) {
      const PolyMemConfig cfg = make_config(scheme, g);
      PolyMem compiled(cfg);
      NaivePolyMem oracle(cfg);
      fill_deterministic(compiled);
      fill_deterministic(oracle);
      for (PatternKind kind : access::kAllPatterns) {
        const SupportLevel level = compiled.supports(kind);
        if (level == SupportLevel::kNone) continue;
        const AccessBatch batch = full_sweep(cfg, kind, level);
        std::vector<Word> want(
            static_cast<std::size_t>(batch.count()) * cfg.lanes());
        oracle.read_batch(batch, 0, want);
        ExecPlan plan;
        compiled.compile_batch(batch, plan);
        if (g.p == 4 && g.q == 4)
          widest_4x4 = std::max(widest_4x4, plan.table_count());
        std::vector<Word> got(want.size());
        for (simd::Level l : levels) {
          simd::force_level(l);
          got.assign(got.size(), 0);
          compiled.read_batch(batch, 0, got);
          ASSERT_EQ(got, want)
              << maf::scheme_name(scheme) << " " << g.p << "x" << g.q << " "
              << access::pattern_name(kind) << " level "
              << simd::level_name(l);
          got.assign(got.size(), 0);
          compiled.read_compiled(plan, 0, got);
          ASSERT_EQ(got, want)
              << "compile_batch: " << maf::scheme_name(scheme) << " " << g.p
              << "x" << g.q << " " << access::pattern_name(kind)
              << " level " << simd::level_name(l);
        }
      }
    }
  }
  EXPECT_GT(widest_4x4, kWideTables);
}

TEST(SimdExec, WriteBatchBitIdenticalAcrossLevels) {
  LevelGuard guard;
  const auto levels = host_levels();
  std::size_t widest_4x4 = 0;
  for (Scheme scheme : maf::kAllSchemes) {
    for (Geometry g : kGeometries) {
      const PolyMemConfig cfg = make_config(scheme, g);
      for (PatternKind kind : access::kAllPatterns) {
        // Fresh, identically-seeded instances per pattern: sweeps that do
        // not cover every cell must still match on the untouched ones.
        NaivePolyMem oracle(cfg);
        fill_deterministic(oracle);
        const SupportLevel level = oracle.supports(kind);
        if (level == SupportLevel::kNone) continue;
        const AccessBatch batch = full_sweep(cfg, kind, level);
        std::vector<Word> data(
            static_cast<std::size_t>(batch.count()) * cfg.lanes());
        for (std::size_t k = 0; k < data.size(); ++k)
          data[k] = 0x9E3779B97F4A7C15ull * (k + 7);
        const std::size_t cells =
            static_cast<std::size_t>(cfg.height) * cfg.width;
        std::vector<Word> want(cells), got(cells);
        oracle.write_batch(batch, data);
        oracle.dump_rect({0, 0}, cfg.height, cfg.width, want);
        for (simd::Level l : levels) {
          simd::force_level(l);
          PolyMem compiled(cfg);
          fill_deterministic(compiled);
          compiled.write_batch(batch, data);
          compiled.dump_rect({0, 0}, cfg.height, cfg.width, got);
          ASSERT_EQ(got, want)
              << maf::scheme_name(scheme) << " " << g.p << "x" << g.q << " "
              << access::pattern_name(kind) << " level "
              << simd::level_name(l);
          PolyMem via_plan(cfg);
          fill_deterministic(via_plan);
          ExecPlan plan;
          via_plan.compile_batch(batch, plan);
          if (g.p == 4 && g.q == 4)
            widest_4x4 = std::max(widest_4x4, plan.table_count());
          via_plan.write_compiled(plan, data);
          via_plan.dump_rect({0, 0}, cfg.height, cfg.width, got);
          ASSERT_EQ(got, want)
              << "compile_batch: " << maf::scheme_name(scheme) << " " << g.p
              << "x" << g.q << " " << access::pattern_name(kind)
              << " level " << simd::level_name(l);
        }
      }
    }
  }
  EXPECT_GT(widest_4x4, kWideTables);
}

// Write-then-read round trip through the compiled engine at every level,
// against a host-side mirror — catches a scatter/gather pair that is
// self-consistently wrong.
TEST(SimdExec, RoundTripMatchesHostMirror) {
  LevelGuard guard;
  const auto levels = host_levels();
  const PolyMemConfig cfg = make_config(Scheme::kRoCo, {4, 4});
  const AccessBatch batch{PatternKind::kRect, {0, 0},
                          {0, 4}, cfg.width / 4, {4, 0}, cfg.height / 4};
  std::vector<Word> data(
      static_cast<std::size_t>(batch.count()) * cfg.lanes());
  for (std::size_t k = 0; k < data.size(); ++k)
    data[k] = 0xA24BAED4963EE407ull ^ (k * 0x9FB21C651E98DF25ull);
  for (simd::Level l : levels) {
    simd::force_level(l);
    PolyMem mem(cfg);
    mem.write_batch(batch, data);
    std::vector<Word> got(data.size(), 0);
    mem.read_batch(batch, 0, got);
    ASSERT_EQ(got, data) << "level " << simd::level_name(l);
  }
}

TEST(SimdExec, ForcedScalarDispatchTakesEffect) {
  LevelGuard guard;
  simd::force_level(simd::Level::kScalar);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  EXPECT_EQ(simd::kernels().level, simd::Level::kScalar);
  // Forcing a level the host lacks stays scalar rather than crashing.
  if (simd::detected_level() == simd::Level::kScalar) {
    simd::force_level(simd::Level::kAvx2);
    EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  }
  // And the scalar engine still serves data correctly.
  const PolyMemConfig cfg = make_config(Scheme::kReRo, {2, 4});
  PolyMem mem(cfg);
  fill_deterministic(mem);
  const AccessBatch batch = AccessBatch::strided(
      PatternKind::kRow, {0, 0}, {1, 0}, cfg.height);
  std::vector<Word> a(static_cast<std::size_t>(batch.count()) * cfg.lanes());
  mem.read_batch(batch, 0, a);
  simd::force_level(simd::detected_level());
  std::vector<Word> b(a.size(), 0);
  mem.read_batch(batch, 0, b);
  EXPECT_EQ(a, b);
}

TEST(SimdExec, LevelNamesRoundTrip) {
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx2), "avx2");
  EXPECT_STREQ(simd::level_name(simd::Level::kNeon), "neon");
}

}  // namespace
}  // namespace polymem::core

// Differential gate of the compiled execution engine (core/exec_plan.hpp
// and PolyMem's gather/scatter loop): for every scheme x geometry x
// supported pattern, the compiled path must be bit-identical to the naive
// per-access oracle (tests/support) for read_batch, write_batch and the
// compile_batch entry points. Full sweeps span every residue class, more
// than 64 of them on 4x4, so the loop runs over a wide table pool. Writes
// also run on a two-port memory and are read back through every port, so
// a scatter that skips a read-port replica fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "core/polymem.hpp"
#include "support/naive_polymem.hpp"

namespace polymem::core {
namespace {

using access::PatternKind;
using maf::Scheme;
using maf::SupportLevel;

struct Geometry {
  unsigned p, q;
};

constexpr Geometry kGeometries[] = {{2, 2}, {2, 4}, {4, 4}};

PolyMemConfig make_config(Scheme scheme, Geometry g,
                          unsigned read_ports = 1) {
  return PolyMemConfig::with_capacity(16 * KiB, scheme, g.p, g.q,
                                      read_ports);
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
// plans with one table and with many both run.
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

// Aligned rectangles tiling the whole memory: every scheme serves them,
// so reading this batch through a port returns that replica's full image.
AccessBatch rect_tiling(const PolyMemConfig& cfg) {
  return {PatternKind::kRect, {0, 0},
          {0, cfg.q}, cfg.width / cfg.q, {cfg.p, 0}, cfg.height / cfg.p};
}

// A 4x4 full sweep must span more residue classes than this, so the
// compiled path is covered with table pools wider than 64.
constexpr std::size_t kWideTables = 64;

TEST(CompiledExec, ReadBatchMatchesOracle) {
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
        compiled.read_batch(batch, 0, got);
        ASSERT_EQ(got, want)
            << maf::scheme_name(scheme) << " " << g.p << "x" << g.q << " "
            << access::pattern_name(kind);
        got.assign(got.size(), 0);
        compiled.read_compiled(plan, 0, got);
        ASSERT_EQ(got, want)
            << "compile_batch: " << maf::scheme_name(scheme) << " " << g.p
            << "x" << g.q << " " << access::pattern_name(kind);
      }
    }
  }
  EXPECT_GT(widest_4x4, kWideTables);
}

TEST(CompiledExec, WriteBatchMatchesOracleThroughEveryPort) {
  std::size_t widest_4x4 = 0;
  for (unsigned ports : {1u, 2u}) {
    for (Scheme scheme : maf::kAllSchemes) {
      for (Geometry g : kGeometries) {
        const PolyMemConfig cfg = make_config(scheme, g, ports);
        const AccessBatch readback = rect_tiling(cfg);
        const std::size_t cells =
            static_cast<std::size_t>(cfg.height) * cfg.width;
        for (PatternKind kind : access::kAllPatterns) {
          // Fresh, identically-seeded instances per pattern: sweeps that
          // do not cover every cell must still match on the untouched ones.
          NaivePolyMem oracle(cfg);
          fill_deterministic(oracle);
          const SupportLevel level = oracle.supports(kind);
          if (level == SupportLevel::kNone) continue;
          const AccessBatch batch = full_sweep(cfg, kind, level);
          std::vector<Word> data(
              static_cast<std::size_t>(batch.count()) * cfg.lanes());
          for (std::size_t k = 0; k < data.size(); ++k)
            data[k] = 0x9E3779B97F4A7C15ull * (k + 7);
          oracle.write_batch(batch, data);

          PolyMem compiled(cfg);
          fill_deterministic(compiled);
          compiled.write_batch(batch, data);
          PolyMem via_plan(cfg);
          fill_deterministic(via_plan);
          ExecPlan plan;
          via_plan.compile_batch(batch, plan);
          if (g.p == 4 && g.q == 4)
            widest_4x4 = std::max(widest_4x4, plan.table_count());
          via_plan.write_compiled(plan, data);

          std::vector<Word> want(cells), got(cells);
          for (unsigned port = 0; port < ports; ++port) {
            oracle.read_batch(readback, port, want);
            compiled.read_batch(readback, port, got);
            ASSERT_EQ(got, want)
                << maf::scheme_name(scheme) << " " << g.p << "x" << g.q
                << " " << access::pattern_name(kind) << " port " << port
                << " of " << ports;
            got.assign(cells, 0);
            via_plan.read_batch(readback, port, got);
            ASSERT_EQ(got, want)
                << "compile_batch: " << maf::scheme_name(scheme) << " "
                << g.p << "x" << g.q << " " << access::pattern_name(kind)
                << " port " << port << " of " << ports;
          }
        }
      }
    }
  }
  EXPECT_GT(widest_4x4, kWideTables);
}

// Write-then-read round trip through the compiled engine against a
// host-side mirror — catches a scatter/gather pair that is
// self-consistently wrong.
TEST(CompiledExec, RoundTripMatchesHostMirror) {
  const PolyMemConfig cfg = make_config(Scheme::kRoCo, {4, 4});
  const AccessBatch batch = rect_tiling(cfg);
  std::vector<Word> data(
      static_cast<std::size_t>(batch.count()) * cfg.lanes());
  for (std::size_t k = 0; k < data.size(); ++k)
    data[k] = 0xA24BAED4963EE407ull ^ (k * 0x9FB21C651E98DF25ull);
  PolyMem mem(cfg);
  mem.write_batch(batch, data);
  std::vector<Word> got(data.size(), 0);
  mem.read_batch(batch, 0, got);
  ASSERT_EQ(got, data);
}

}  // namespace
}  // namespace polymem::core

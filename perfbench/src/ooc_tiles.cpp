// ooc_tiles: the out-of-core software cache (cache + maxsim layers).
//
// A CachedMatrix serves a 128x128 LMem matrix through a 32x64 ReRo
// PolyMem cut into 16 frames of 8x16 tiles, so the matrix is 8x the
// cache capacity. One client thread with next-tile prefetch on. The
// block stream alternates sequential tile sweeps (two tile rows in
// row-major order, where next-tile prefetch pays) with Zipf-random
// half-tile blocks (where it is wasted); a quarter of the blocks are
// writes, which force write-back evictions. A final flush() makes LMem
// current, and LMem is compared with a host mirror.
//
// The prefetch pool has no worker thread, so a prefetch stages its tile
// inline when it is issued. With a worker, whether a prefetch lands
// before the next miss depends on thread timing (an in-flight prefetch
// makes the next issue skip), so the cache counts and modeled cycles
// would not repeat; settling the worker after every call made the host
// timings swing by 2x from run to run on thread wake-up latency. The
// cache still credits the prefetch's DRAM time against the PolyMem
// cycles spent until the tile is used, exactly as with a worker that
// always finishes in time.
#include <algorithm>
#include <array>
#include <vector>

#include "cache/cached_matrix.hpp"
#include "inputs.hpp"
#include "runtime/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace polymem;

namespace {

constexpr std::int64_t kRows = 128, kCols = 128;
constexpr std::int64_t kTileRows = 8, kTileCols = 16;
constexpr std::int64_t kTilesI = kRows / kTileRows, kTilesJ = kCols / kTileCols;
constexpr int kSegments = 160;       // alternating sweep / random segments
constexpr int kBlocksPerSegment = 16;
constexpr double kClockHz = 120e6;   // the modeled design's clock

struct Block {
  bool write = false;
  std::int64_t i = 0, j = 0, rows = 0, cols = 0;
  std::size_t offset = 0;  // into the read-output or payload buffer
};

std::vector<Block> make_blocks(std::uint64_t seed) {
  Rng rng(seed);
  // Zipf popularity over tiles, scattered by a seeded permutation so the
  // hot tiles are not all in the first tile row.
  std::vector<std::int64_t> perm(kTilesI * kTilesJ);
  for (std::size_t k = 0; k < perm.size(); ++k)
    perm[k] = static_cast<std::int64_t>(k);
  std::shuffle(perm.begin(), perm.end(), rng.engine());
  const Zipf zipf(perm.size(), 0.9);

  std::vector<Block> blocks;
  std::size_t read_words = 0, write_words = 0;
  // Exactly a quarter of each segment's blocks write, at seeded places,
  // so the share of write-back evictions does not drift with the seed.
  std::array<bool, kBlocksPerSegment> writes{};
  std::fill_n(writes.begin(), kBlocksPerSegment / 4, true);
  for (int s = 0; s < kSegments; ++s) {
    const std::int64_t ti0 = rng.uniform(0, kTilesI - 2);
    std::shuffle(writes.begin(), writes.end(), rng.engine());
    for (int b = 0; b < kBlocksPerSegment; ++b) {
      Block blk;
      blk.write = writes[static_cast<std::size_t>(b)];
      if (s % 2 == 0) {  // sequential sweep: whole tiles, row-major
        blk.i = (ti0 + b / kTilesJ) * kTileRows;
        blk.j = (b % kTilesJ) * kTileCols;
        blk.rows = kTileRows;
      } else {  // Zipf-random half tile
        const std::int64_t tile = perm[zipf(rng)];
        blk.i = (tile / kTilesJ) * kTileRows + rng.uniform(0, 1) * kTileRows / 2;
        blk.j = (tile % kTilesJ) * kTileCols;
        blk.rows = kTileRows / 2;
      }
      blk.cols = kTileCols;
      std::size_t& words = blk.write ? write_words : read_words;
      blk.offset = words;
      words += static_cast<std::size_t>(blk.rows * blk.cols);
      blocks.push_back(blk);
    }
  }
  return blocks;
}

}  // namespace

PassResult ooc_tiles_pass(std::uint64_t seed, Tracer* tracer) {
  PassResult r;
  Probe probe(tracer);

  // ---- set-up: LMem matrix + host mirror, PolyMem, cache, blocks.
  const Clock::time_point s0 = Clock::now();
  core::PolyMemConfig cfg;
  cfg.scheme = maf::Scheme::kReRo;
  cfg.p = 2;
  cfg.q = 4;
  cfg.height = 32;
  cfg.width = 64;
  core::PolyMem mem(cfg);
  maxsim::LMem lmem(1u << 20);
  const maxsim::LMemMatrix matrix{0, kRows, kCols, kCols};
  std::vector<hw::Word> mirror(static_cast<std::size_t>(kRows * kCols));
  {
    Rng rng(seed);
    for (hw::Word& w : mirror) w = rng.bits();
    lmem.write(0, mirror);
  }
  const std::vector<Block> blocks = make_blocks(seed);
  std::size_t read_words = 0, write_words = 0;
  for (const Block& b : blocks)
    (b.write ? write_words : read_words) =
        b.offset + static_cast<std::size_t>(b.rows * b.cols);
  std::vector<hw::Word> out(read_words), payload(write_words);
  for (std::size_t k = 0; k < payload.size(); ++k)
    payload[k] = runtime::derive_seed(seed ^ 0xb10c, k);
  runtime::ThreadPool pool(0);
  cache::CachedMatrix cached(
      lmem, mem, matrix,
      core::FramePool::whole_space(cfg, kTileRows, kTileCols),
      {.prefetch_pool = &pool, .clock_hz = kClockHz});
  r.setup_s = seconds_between(s0, Clock::now());

  // ---- timed work: the block stream, then flush().
  double hit_ns = 0, miss_ns = 0, hit_calls = 0, miss_calls = 0;
  r.op_ns.reserve(blocks.size());
  const Clock::time_point w0 = Clock::now();
  const std::int32_t work_span = probe.open("bench.work");
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    const Block& b = blocks[k];
    const auto op_id = static_cast<std::int64_t>(k);
    const auto words = static_cast<std::size_t>(b.rows * b.cols);
    const std::uint64_t misses_before =
        tracer ? cached.stats().counters().misses : 0;
    const std::int64_t call_ns =
        b.write ? probe.call("cache.write_block", op_id, work_span,
                             [&] {
                               cached.write_block(
                                   b.i, b.j, b.rows, b.cols,
                                   std::span<const hw::Word>(payload).subspan(
                                       b.offset, words));
                             })
                : probe.call("cache.read_block", op_id, work_span,
                             [&] {
                               cached.read_block(
                                   b.i, b.j, b.rows, b.cols,
                                   std::span<hw::Word>(out).subspan(b.offset,
                                                                    words));
                             });
    r.op_ns.push_back(call_ns);
    if (tracer) {
      const bool missed = cached.stats().counters().misses != misses_before;
      (missed ? miss_ns : hit_ns) += static_cast<double>(call_ns);
      (missed ? miss_calls : hit_calls) += 1;
    }
  }
  const std::int64_t flush_ns =
      probe.call("cache.flush", -1, work_span, [&] { cached.flush(); });
  r.call_ns.push_back(flush_ns);
  probe.close(work_span);
  const Clock::time_point w1 = Clock::now();
  r.work_s = seconds_between(w0, w1);
  r.threads = os_threads();
  const cache::CacheStats stats = cached.stats();
  const CacheCounters& cc = stats.counters();

  // ---- oracle: replay the block stream on the host mirror.
  std::int64_t divergent = 0;
  for (const Block& b : blocks) {
    bool same = true;
    for (std::int64_t i = 0; i < b.rows; ++i)
      for (std::int64_t j = 0; j < b.cols; ++j) {
        hw::Word& cell = mirror[static_cast<std::size_t>((b.i + i) * kCols + b.j + j)];
        const std::size_t at = b.offset + static_cast<std::size_t>(i * b.cols + j);
        if (b.write)
          cell = payload[at];
        else
          same = same && out[at] == cell;
      }
    divergent += !same;
  }
  std::vector<hw::Word> image(mirror.size());
  lmem.read(0, image);
  if (image != mirror) ++divergent;
  if (divergent > 0)
    r.errors.push_back(std::to_string(divergent) +
                       " blocks diverged from the LMem host mirror");
  r.failed = divergent;

  r.ops = static_cast<std::int64_t>(blocks.size());
  r.accesses = static_cast<double>(stats.total_polymem_cycles());
  r.modeled_cycles = static_cast<double>(stats.total_polymem_cycles()) +
                     stats.effective_lmem_seconds() * kClockHz;
  r.counts = {{"modeled_cycles", r.modeled_cycles},
              {"cache.hits", static_cast<double>(cc.hits)},
              {"cache.misses", static_cast<double>(cc.misses)},
              {"cache.evictions", static_cast<double>(cc.evictions)},
              {"cache.writebacks", static_cast<double>(cc.writebacks)},
              {"cache.prefetch_issued", static_cast<double>(cc.prefetch_issued)},
              {"cache.prefetch_useful", static_cast<double>(cc.prefetch_useful)},
              {"cache.flush_runs", static_cast<double>(cc.flush_runs)},
              {"maxsim.lmem_s", stats.dma.lmem_seconds},
              {"maxsim.lmem_overlapped_s", stats.lmem_seconds_overlapped}};
  r.layer["cache.hit_rate"] = cc.hit_rate();
  r.layer["cache.evictions"] = static_cast<double>(cc.evictions);
  r.layer["cache.writebacks"] = static_cast<double>(cc.writebacks);
  r.layer["cache.prefetch_useful_frac"] =
      cc.prefetch_issued == 0 ? 0.0
                              : static_cast<double>(cc.prefetch_useful) /
                                    static_cast<double>(cc.prefetch_issued);
  r.layer["cache.flush_runs"] = static_cast<double>(cc.flush_runs);
  r.layer["maxsim.lmem_s"] = stats.dma.lmem_seconds;
  r.layer["maxsim.lmem_overlap_frac"] =
      stats.lmem_seconds_overlapped / stats.dma.lmem_seconds;
  if (tracer) {
    r.layer["cache.hit_call_ns"] = hit_calls == 0 ? 0.0 : hit_ns / hit_calls;
    r.layer["cache.miss_call_ns"] = miss_calls == 0 ? 0.0 : miss_ns / miss_calls;
    r.layer["cache.flush_ms"] = static_cast<double>(flush_ns) / 1e6;
  }
  return r;
}

}  // namespace perfbench

// PolyMem — the polymorphic parallel memory (functional model).
//
// This is the library's primary public API. A PolyMem is a 2D-addressed
// memory of height x width elements spread over p x q banks by a
// conflict-free module assignment function; every read() / write() moves
// p*q elements at once, the way one clock cycle of the hardware does.
//
// Every access is served one way (docs/ARCHITECTURE.md, "Performance
// model" and "Compiled execution engine"). validate_batch checks support,
// alignment and bounds once per call — a single access is checked as a
// 1-element batch — and the plan-template cache (core/plan_cache.hpp) then
// supplies the bank permutation and base addresses of the access's
// residue class, which the MAF's per-axis periodicity makes reusable:
//  - single accesses (read, write, read_write) route their lanes straight
//    through the template into the banks, with per-cycle port accounting;
//  - batches compile to flat structure-of-arrays tables
//    (core/exec_plan.hpp) and run as one portable gather/scatter loop
//    (exec_read / exec_write).
// A validated access always has a template (PlanCache rejects geometries
// whose templates would not fit at construction), so there is no fallback
// path. The per-lane AGU + shuffle data path of paper Fig. 3 survives as
// the test oracle (tests/support) that both paths are checked against.
// For timed simulation (latency, concurrent read+write, multi-port
// scheduling) use core/cycle_polymem.hpp, which layers clocking on top.
//
// Ownership: a PolyMem is single-owner. One thread drives it at a time:
// accesses, batches and compiles update the plan cache, the bank counters
// and the compiled-plan memo without locks, so a layer that shares one
// across threads serialises the calls itself (ServiceEngine's one drain
// thread, AdaptiveMatrix's engine mutex). supports() is immutable after
// construction, so any thread may read it.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "access/pattern.hpp"
#include "core/access_batch.hpp"
#include "core/banks.hpp"
#include "core/config.hpp"
#include "core/exec_plan.hpp"
#include "core/plan_cache.hpp"
#include "hw/bram.hpp"
#include "maf/addressing.hpp"
#include "maf/conflict.hpp"
#include "maf/maf.hpp"

namespace polymem::core {

using hw::Word;

// AccessBatch lives in core/access_batch.hpp (included above) so the
// compiled execution engine can consume batches without this header.

class PolyMem {
 public:
  /// Throws InvalidArgument for an invalid configuration or one whose
  /// MAF periods exceed the plan-template budget (PlanCache::fits).
  explicit PolyMem(PolyMemConfig config);

  // Internal blocks hold references to each other; pinned in place.
  PolyMem(const PolyMem&) = delete;
  PolyMem& operator=(const PolyMem&) = delete;

  const PolyMemConfig& config() const { return config_; }
  const maf::Maf& maf() const { return maf_; }
  const maf::AddressingFunction& addressing() const { return addressing_; }
  unsigned lanes() const { return config_.lanes(); }

  /// Machine-checked support level of a pattern under this configuration:
  /// a read of the table the plan cache fills at construction. Immutable,
  /// so any thread may call it.
  maf::SupportLevel supports(access::PatternKind pattern) const {
    return plan_cache_.support(pattern);
  }
  /// supports() at one anchor: kAny, or kAligned with an aligned anchor.
  bool serves(const access::ParallelAccess& where) const {
    return plan_cache_.serves(where);
  }
  /// serves() for every access of a batch: kAny, or kAligned with the
  /// start and both strides p/q-aligned. validate_batch throws Unsupported
  /// for a non-empty batch exactly when this is false, so callers with a
  /// fallback path test it first.
  bool serves(const AccessBatch& batch) const;

  /// Writes lanes() words (canonical order) through the write port.
  void write(const access::ParallelAccess& where, std::span<const Word> data);

  /// Reads lanes() words (canonical order) through read port `port`.
  std::vector<Word> read(const access::ParallelAccess& where,
                         unsigned port = 0);
  void read_into(const access::ParallelAccess& where, unsigned port,
                 std::span<Word> out);

  /// One concurrent cycle: the read and the write share the cycle, using
  /// the independent read/write bank ports (paper Sec. III-B: "Simultaneous
  /// reads and writes are supported"). Read-before-write semantics when the
  /// two accesses overlap.
  void read_write(const access::ParallelAccess& read_from, unsigned port,
                  std::span<Word> read_out,
                  const access::ParallelAccess& write_to,
                  std::span<const Word> write_data);

  /// Batched access engine: validates the whole batch once (support,
  /// alignment, bounds), then compiles it to a flat ExecPlan and executes
  /// it with the gather/scatter loop (exec_read / exec_write) — no
  /// per-access allocation, re-validation or per-bank call. Compiled
  /// plans are memoized per batch, so replaying an equal batch skips
  /// compilation entirely. Each batch element is its own cycle;
  /// results/data are the concatenation of the per-access canonical lane
  /// groups, so `out`/`data` must hold count() * lanes() words.
  void read_batch(const AccessBatch& batch, unsigned port,
                  std::span<Word> out);
  void write_batch(const AccessBatch& batch, std::span<const Word> data);

  /// Service-drain entry points (src/service): compile a batch into a
  /// *caller-owned* plan and execute it later. The service loop drains a
  /// coalesced run per iteration, and the runs differ call to call, so
  /// the 4-slot replay memo behind read_batch would thrash; a drain that
  /// owns one ExecPlan instead recompiles it in place — ExecPlan reuses
  /// its capacity, so steady-state recompiles allocate nothing. Throws
  /// like read_batch for an invalid batch; a valid one always compiles.
  /// The plan's pointer tables stay valid for this PolyMem's lifetime but
  /// belong to this PolyMem only.
  void compile_batch(const AccessBatch& batch, ExecPlan& plan);

  /// Executes a plan compiled by compile_batch on this PolyMem: the whole
  /// batch as one gather on read port `port` / one scatter, with the same
  /// bulk counter accounting as read_batch / write_batch.
  void read_compiled(const ExecPlan& plan, unsigned port, std::span<Word> out);
  void write_compiled(const ExecPlan& plan, std::span<const Word> data);

  /// Fused copy: per element t, reads `from.access(t)` and writes the data
  /// to `to.access(t)` in the same cycle (read-before-write, like
  /// read_write) — the STREAM-Copy inner loop without the host round trip.
  void stream_copy_batch(const AccessBatch& from, const AccessBatch& to,
                         unsigned port = 0);

  /// Scalar host backdoor (no port accounting; used for Load/Offload and
  /// debugging, like the host filling the memory in the paper's DSE
  /// validation cycle).
  Word load(access::Coord c) const;
  void store(access::Coord c, Word value);

  /// Bulk host helpers: row-major copy of a height x width rectangle at
  /// `origin` from/to a linear buffer. One region bounds check, then
  /// direct bank pokes/peeks (no per-element validation).
  void fill_rect(access::Coord origin, std::int64_t rows, std::int64_t cols,
                 std::span<const Word> values);
  void dump_rect(access::Coord origin, std::int64_t rows, std::int64_t cols,
                 std::span<Word> values) const;

  /// Access counters (one per served parallel access).
  std::uint64_t parallel_reads() const { return parallel_reads_; }
  std::uint64_t parallel_writes() const { return parallel_writes_; }

  const PlanCache& plan_cache() const { return plan_cache_; }
  PlanCache& plan_cache() { return plan_cache_; }

 private:
  // One side of a single access, routed into bank order: per-bank
  // address/data buffers sized to lanes() once. read_write needs one side
  // for the read and one for the write.
  struct Routed {
    std::vector<std::int64_t> bank_addr;
    std::vector<Word> bank_data;
  };

  // Compiled-batch memo: a tiny LRU-ish set of recently executed batches
  // and their ExecPlans. Pointer tables inside a plan stay valid for the
  // PolyMem's lifetime (banks and templates are pinned), so replaying an
  // equal batch is pure kernel execution.
  static constexpr std::size_t kExecSlots = 4;
  struct ExecSlot {
    AccessBatch key;
    bool valid = false;
    ExecPlan plan;
  };

  /// Validates `where` as a 1-element batch and fills `side.bank_addr`
  /// from its template; returns the template.
  const PlanTemplate& route(const access::ParallelAccess& where,
                            Routed& side);
  void validate_batch(const AccessBatch& batch) const;

  /// The compiled plan serving a validated `batch`: a memo hit, or a
  /// fresh compile into the next slot. `avoid` pins one plan (the other
  /// half of a fused copy) against eviction.
  ExecPlan& compiled_plan(const AccessBatch& batch,
                          const ExecPlan* avoid = nullptr);
  // The gather and scatter loops over accesses [t0, t0 + count) of a
  // compiled plan: `lanes` loads / per-replica stores per access.
  void exec_read(const ExecPlan& plan, unsigned port, std::int64_t t0,
                 std::int64_t count, Word* out) const;
  void exec_write(const ExecPlan& plan, std::int64_t t0, std::int64_t count,
                  const Word* data);

  PolyMemConfig config_;
  maf::Maf maf_;
  maf::AddressingFunction addressing_;
  BankArray banks_;
  PlanCache plan_cache_;
  Routed read_side_;
  Routed write_side_;
  std::vector<Word> copy_buf_;     // stream_copy_batch lane staging
  std::array<ExecSlot, kExecSlots> exec_slots_;
  std::size_t exec_victim_ = 0;    // next slot a fresh compile lands in
  std::uint64_t parallel_reads_ = 0;
  std::uint64_t parallel_writes_ = 0;
};

}  // namespace polymem::core

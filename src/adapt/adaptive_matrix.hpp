// AdaptiveMatrix — an epoch-aware PolyMem handle with live scheme
// migration (ROADMAP item 3; docs/ARCHITECTURE.md, "Adaptive layout
// engine").
//
// A PolyMem is born on one scheme and dies on it. AdaptiveMatrix wraps one
// and turns the paper's polymorphism into a runtime knob: an online
// profiler (adapt/profiler.hpp) watches the access stream, a policy engine
// (adapt/policy.hpp) elects a better scheme when the pattern mix shifts,
// and a background *copy-forward epoch migration* re-maps the data without
// ever blocking readers for the duration of the copy.
//
// Copy-forward epoch protocol
// ---------------------------
// The address space is cut into row bands (band_rows rows each, default p).
// During a migration two PolyMems exist: the active epoch A and the target
// epoch B. Three locks arbitrate:
//
//  - flip_mutex_ (shared): every client op holds it shared; the cutover
//    holds it unique. The critical section of the cutover is O(1) — swap
//    the active pointer, bump the epoch — so "readers never block" means:
//    never for the duration of the copy, only for a pointer swap.
//  - engine_mutex_: serializes client ops on the active PolyMem (its
//    batched engines share scratch state and are not concurrently
//    callable). The background copier does NOT take it — it uses only the
//    counter-free dump/fill backdoors, which never touch engine scratch.
//  - one shared_mutex per band: client *writes* take the spanned bands
//    exclusive; the copier and the verifier take one band shared at a
//    time. Client reads take no band lock at all (the copier never writes
//    epoch A).
//
// The copier walks the bands in order: under the band's shared lock it
// dump_rects the band from A, fill_rects it into B, then sets the band's
// atomic copied flag *before* releasing the lock. A client write that
// lands in a band with the flag set forwards its words to B as well
// (write-through to the future epoch); one that lands in an uncopied band
// writes A only — the copier will pick the value up when it reaches the
// band. Once every band is copied, forwarding keeps A and B identical, so
// the differential oracle can verify bit-identity band by band (again
// under shared band locks, which exclude exactly the writers), and the
// cutover is a single epoch flip. On divergence, abort request, or an
// injected fault, epoch B is discarded and A remains authoritative — a
// migration is invisible until its flip.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "adapt/policy.hpp"
#include "adapt/profiler.hpp"
#include "core/polymem.hpp"

namespace polymem::runtime {
class ThreadPool;
}

namespace polymem::adapt {

struct AdaptiveOptions {
  ProfilerOptions profiler;
  PolicyOptions policy;
  /// Profile + decide on every batch op. Off: a static matrix that still
  /// supports explicit migrate_to() (the benches time static schemes
  /// through the same serve path this way).
  bool adapt = true;
  /// Run the differential oracle over every band before cutover; a
  /// mismatch aborts the migration instead of flipping.
  bool verify_migrations = true;
  /// Rows per migration band; 0 picks p (the minimum granularity).
  std::int64_t band_rows = 0;
  /// Background copier host. nullptr: migrations run inline on the
  /// triggering thread — fully deterministic, the replay harness's mode.
  runtime::ThreadPool* pool = nullptr;
};

struct MigrationRecord {
  maf::Scheme from = maf::Scheme::kReO;
  maf::Scheme to = maf::Scheme::kReO;
  std::uint64_t epoch = 0;  ///< epoch after the flip (unchanged if aborted)
  bool aborted = false;
};

struct AdaptiveStats {
  std::uint64_t reads = 0;    ///< client parallel read accesses
  std::uint64_t writes = 0;   ///< client parallel write accesses
  std::uint64_t batched_accesses = 0;   ///< served by the compiled engine
  std::uint64_t fallback_accesses = 0;  ///< served element-wise (p*q loads)
  std::uint64_t forwarded_words = 0;    ///< write-through words to epoch B
  std::uint64_t migrations_started = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t migrations_aborted = 0;
  std::uint64_t verified_words = 0;
  std::uint64_t mismatched_words = 0;  ///< differential oracle failures
  std::uint64_t windows_profiled = 0;
  std::uint64_t epoch = 0;
  maf::Scheme scheme = maf::Scheme::kReO;
  std::vector<MigrationRecord> history;
};

class AdaptiveMatrix {
 public:
  explicit AdaptiveMatrix(core::PolyMemConfig config, AdaptiveOptions opts = {});
  ~AdaptiveMatrix();

  AdaptiveMatrix(const AdaptiveMatrix&) = delete;
  AdaptiveMatrix& operator=(const AdaptiveMatrix&) = delete;

  /// The construction-time configuration (scheme field = initial scheme).
  const core::PolyMemConfig& base_config() const { return base_config_; }
  unsigned lanes() const { return base_config_.lanes(); }
  std::int64_t height() const { return base_config_.height; }
  std::int64_t width() const { return base_config_.width; }
  std::int64_t bands() const { return n_bands_; }
  std::int64_t band_rows() const { return band_rows_; }

  /// Current scheme / epoch (epoch increments once per completed flip).
  maf::Scheme scheme() const;
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  // ---- client operations (thread-safe, serialized internally) ----------

  /// Batched read/write through the active epoch: batches the current
  /// scheme serves conflict-free go through the compiled engine, the rest
  /// fall back to p*q scalar bank accesses per element — the honest cost
  /// of a mismatched layout, and exactly what the policy's cost model
  /// charges. out/data hold count() * lanes() words in canonical order.
  void read_batch(const core::AccessBatch& batch, std::span<core::Word> out);
  void write_batch(const core::AccessBatch& batch,
                   std::span<const core::Word> data);

  /// Scalar host backdoor (migration-safe: store forwards to epoch B).
  core::Word load(access::Coord c) const;
  void store(access::Coord c, core::Word value);

  /// Bulk host helpers (row-major rectangle), migration-safe.
  void fill_rect(access::Coord origin, std::int64_t rows, std::int64_t cols,
                 std::span<const core::Word> values);
  void dump_rect(access::Coord origin, std::int64_t rows, std::int64_t cols,
                 std::span<core::Word> values) const;

  /// True when the active scheme serves this run conflict-free (the
  /// batched path will be taken).
  bool run_supported(const core::AccessBatch& batch) const;

  // ---- migration control -----------------------------------------------

  /// Starts a migration to `target`. Returns false when target is the
  /// active scheme, a migration is already running, or no MAF exists for
  /// the geometry. With a pool the copy runs in the background; without
  /// one this call returns after the flip (or abort).
  bool migrate_to(maf::Scheme target);

  bool migration_in_progress() const {
    return migrating_.load(std::memory_order_acquire);
  }

  /// Blocks until no migration is running.
  void wait_idle();

  /// Requests the running migration (if any) abort, and waits. The
  /// active epoch is untouched; the partial target epoch is discarded.
  void abort_migration();

  /// Test hook: the copier aborts (as if crashed) when it reaches this
  /// band index. Cleared after it fires or the migration ends.
  void set_fault_band(std::int64_t band) {
    fault_band_.store(band, std::memory_order_relaxed);
  }

  AdaptiveStats stats() const;

 private:
  std::int64_t band_of(std::int64_t row) const { return row / band_rows_; }
  std::int64_t band_first_row(std::int64_t band) const {
    return band * band_rows_;
  }
  std::int64_t band_row_count(std::int64_t band) const;

  /// Row span [min_row, max_row] touched by the batch (pattern extent
  /// included), clamped to the address space.
  void batch_row_span(const core::AccessBatch& batch, std::int64_t& lo,
                      std::int64_t& hi) const;

  void serve_read(const core::AccessBatch& batch, std::span<core::Word> out);
  void serve_write(const core::AccessBatch& batch,
                   std::span<const core::Word> data);
  /// Re-applies the batch's words to epoch B for every copied band
  /// (caller holds the spanned band locks exclusive).
  void forward_write(const core::AccessBatch& batch,
                     std::span<const core::Word> data);
  void forward_store(access::Coord c, core::Word value);

  /// Profile the run and ask the policy; returns a migration target to
  /// start after the locks drop. Caller holds engine_mutex_.
  std::optional<maf::Scheme> observe(bool is_write,
                                     const core::AccessBatch& batch);

  void run_migration(maf::Scheme target);

  core::PolyMemConfig base_config_;
  AdaptiveOptions opts_;
  std::int64_t band_rows_ = 0;
  std::int64_t n_bands_ = 0;

  /// Client-side entry: shared flip lock, yielding first while a cutover
  /// is waiting so the O(1) flip is never starved by back-to-back ops
  /// (pthread rwlocks prefer readers by default).
  std::shared_lock<std::shared_mutex> enter() const;

  // Epoch state: active_/next_/current_scheme_ change only under
  // flip_mutex_ unique; client ops hold it shared.
  mutable std::shared_mutex flip_mutex_;
  std::atomic<bool> flip_waiting_{false};
  std::unique_ptr<core::PolyMem> active_;
  std::unique_ptr<core::PolyMem> next_;
  maf::Scheme current_scheme_;
  std::atomic<std::uint64_t> epoch_{0};

  // Client-op serialization (PolyMem engine scratch is shared state).
  mutable std::mutex engine_mutex_;
  mutable std::vector<access::Coord> expand_scratch_;  // fallback path

  // Per-band writer-vs-copier arbitration + copy progress.
  std::vector<std::unique_ptr<std::shared_mutex>> band_locks_;
  std::unique_ptr<std::atomic<bool>[]> copied_;
  std::atomic<bool> migrating_{false};
  std::atomic<bool> abort_requested_{false};
  std::atomic<std::int64_t> fault_band_{-1};

  // Migration lifecycle: admission + completion signalling.
  std::mutex admit_mutex_;
  mutable std::mutex done_mutex_;
  mutable std::condition_variable done_cv_;
  bool busy_ = false;

  // Profiling + policy (engine_mutex_).
  AccessProfiler profiler_;
  MigrationPolicy policy_;

  // Stats. Client-op counters live under engine_mutex_; migration-side
  // counters are atomics (the copier doesn't hold the engine lock).
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t batched_accesses_ = 0;
  std::uint64_t fallback_accesses_ = 0;
  std::uint64_t forwarded_words_ = 0;
  std::uint64_t windows_profiled_ = 0;
  std::atomic<std::uint64_t> migrations_started_{0};
  std::atomic<std::uint64_t> migrations_completed_{0};
  std::atomic<std::uint64_t> migrations_aborted_{0};
  std::atomic<std::uint64_t> verified_words_{0};
  std::atomic<std::uint64_t> mismatched_words_{0};
  mutable std::mutex history_mutex_;
  std::vector<MigrationRecord> history_;
};

}  // namespace polymem::adapt

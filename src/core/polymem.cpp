#include "core/polymem.hpp"

#include <sstream>

#include "common/error.hpp"

namespace polymem::core {

PolyMem::PolyMem(PolyMemConfig config)
    : config_((config.validate(), config)),
      maf_(config.scheme, config.p, config.q),
      addressing_(config.p, config.q, config.height, config.width),
      banks_(config.lanes(), config.read_ports, config.words_per_bank()),
      plan_cache_(config_, maf_) {
  const unsigned lanes = config_.lanes();
  for (Routed* side : {&read_side_, &write_side_}) {
    side->bank_addr.resize(lanes);
    side->bank_data.resize(lanes);
  }
  copy_buf_.resize(lanes);
}

const PlanTemplate& PolyMem::route(const access::ParallelAccess& where,
                                   Routed& side) {
  validate_batch(AccessBatch::strided(where.kind, where.anchor, {0, 0}, 1));
  std::int64_t delta = 0;
  const PlanTemplate* t = plan_cache_.lookup(where, delta);
  POLYMEM_ASSERT(t != nullptr);  // total for validated accesses
  const unsigned lanes = config_.lanes();
  for (unsigned b = 0; b < lanes; ++b)
    side.bank_addr[b] = t->bank_addr0[b] + delta;
  return *t;
}

void PolyMem::write(const access::ParallelAccess& where,
                    std::span<const Word> data) {
  POLYMEM_REQUIRE(data.size() == config_.lanes(),
                  "write data must provide one word per lane");
  const PlanTemplate& t = route(where, write_side_);
  const unsigned lanes = config_.lanes();
  for (unsigned b = 0; b < lanes; ++b)
    write_side_.bank_data[b] = data[t.lane_for_bank[b]];
  banks_.begin_cycle();
  banks_.write(write_side_.bank_addr, write_side_.bank_data);
  ++parallel_writes_;
}

void PolyMem::read_into(const access::ParallelAccess& where, unsigned port,
                        std::span<Word> out) {
  POLYMEM_REQUIRE(port < config_.read_ports, "read port out of range");
  POLYMEM_REQUIRE(out.size() == config_.lanes(),
                  "read buffer must provide one word per lane");
  const PlanTemplate& t = route(where, read_side_);
  banks_.begin_cycle();
  banks_.read(port, read_side_.bank_addr, read_side_.bank_data);
  // The template's permutation was proven conflict-free at build time;
  // route the lanes directly instead of through a checked crossbar.
  const unsigned lanes = config_.lanes();
  for (unsigned k = 0; k < lanes; ++k)
    out[k] = read_side_.bank_data[t.bank[k]];
  ++parallel_reads_;
}

std::vector<Word> PolyMem::read(const access::ParallelAccess& where,
                                unsigned port) {
  std::vector<Word> out(config_.lanes());
  read_into(where, port, out);
  return out;
}

void PolyMem::read_write(const access::ParallelAccess& read_from,
                         unsigned port, std::span<Word> read_out,
                         const access::ParallelAccess& write_to,
                         std::span<const Word> write_data) {
  POLYMEM_REQUIRE(port < config_.read_ports, "read port out of range");
  POLYMEM_REQUIRE(read_out.size() == config_.lanes() &&
                      write_data.size() == config_.lanes(),
                  "buffers must provide one word per lane");
  // Both accesses are validated before either touches the banks.
  const PlanTemplate& rt = route(read_from, read_side_);
  const PlanTemplate& wt = route(write_to, write_side_);
  const unsigned lanes = config_.lanes();
  for (unsigned b = 0; b < lanes; ++b)
    write_side_.bank_data[b] = write_data[wt.lane_for_bank[b]];

  banks_.begin_cycle();
  // Read first: an overlapping concurrent write lands *after* the read,
  // matching BRAM read-first port behaviour.
  banks_.read(port, read_side_.bank_addr, read_side_.bank_data);
  for (unsigned k = 0; k < lanes; ++k)
    read_out[k] = read_side_.bank_data[rt.bank[k]];
  banks_.write(write_side_.bank_addr, write_side_.bank_data);
  ++parallel_reads_;
  ++parallel_writes_;
}

namespace {

// a + b * c, or false when any step leaves int64.
bool affine_checked(std::int64_t a, std::int64_t b, std::int64_t c,
                    std::int64_t& out) {
  std::int64_t prod = 0;
  return !__builtin_mul_overflow(b, c, &prod) &&
         !__builtin_add_overflow(a, prod, &out);
}

}  // namespace

bool PolyMem::serves(const AccessBatch& batch) const {
  // p/q-multiple strides keep every anchor in the start's alignment class.
  const auto aligned = [this](access::Coord c) {
    return c.i % config_.p == 0 && c.j % config_.q == 0;
  };
  return plan_cache_.serves({batch.kind, batch.start}) &&
         (supports(batch.kind) != maf::SupportLevel::kAligned ||
          (aligned(batch.inner_stride) && aligned(batch.outer_stride)));
}

void PolyMem::validate_batch(const AccessBatch& batch) const {
  POLYMEM_REQUIRE(batch.inner_count >= 0 && batch.outer_count >= 0,
                  "batch counts must be non-negative");
  std::int64_t count = 0, words = 0;
  POLYMEM_REQUIRE(
      !__builtin_mul_overflow(batch.inner_count, batch.outer_count, &count) &&
          !__builtin_mul_overflow(
              count, static_cast<std::int64_t>(config_.lanes()), &words),
      "batch size overflows");
  if (count == 0) return;
  if (!serves(batch)) {
    std::ostringstream os;
    os << "scheme " << maf::scheme_name(config_.scheme) << " (" << config_.p
       << 'x' << config_.q << ") ";
    if (supports(batch.kind) == maf::SupportLevel::kNone)
      os << "does not serve pattern " << access::pattern_name(batch.kind);
    else
      os << "serves pattern " << access::pattern_name(batch.kind)
         << " only at p/q-aligned anchors; batch start or strides break "
            "alignment";
    throw Unsupported(os.str());
  }
  // Anchor coordinates are affine in the (inner, outer) index box, so the
  // per-axis extremes — all `fits` cares about — occur at the corners. A
  // corner that leaves int64 is out of bounds too (it would wrap).
  for (int corner = 0; corner < 4; ++corner) {
    // A 1-wide axis repeats its corners; single accesses check one.
    if (((corner & 1) && batch.inner_count == 1) ||
        ((corner & 2) && batch.outer_count == 1))
      continue;
    const std::int64_t k = (corner & 1) ? batch.inner_count - 1 : 0;
    const std::int64_t o = (corner & 2) ? batch.outer_count - 1 : 0;
    access::Coord anchor;
    const bool exact =
        affine_checked(batch.start.i, o, batch.outer_stride.i, anchor.i) &&
        affine_checked(anchor.i, k, batch.inner_stride.i, anchor.i) &&
        affine_checked(batch.start.j, o, batch.outer_stride.j, anchor.j) &&
        affine_checked(anchor.j, k, batch.inner_stride.j, anchor.j);
    if (!exact || !access::fits({batch.kind, anchor}, config_.p, config_.q,
                                config_.height, config_.width)) {
      std::ostringstream os;
      os << "batch access " << access::pattern_name(batch.kind);
      if (exact)
        os << " at " << anchor;
      else
        os << " at corner " << corner << " overflows its coordinates and";
      os << " exceeds the " << config_.height << 'x' << config_.width
         << " address space";
      throw InvalidArgument(os.str());
    }
  }
}

ExecPlan& PolyMem::compiled_plan(const AccessBatch& batch,
                                 const ExecPlan* avoid) {
  for (ExecSlot& slot : exec_slots_)
    if (slot.valid && slot.key == batch) return slot.plan;
  if (avoid != nullptr && &exec_slots_[exec_victim_].plan == avoid)
    exec_victim_ = (exec_victim_ + 1) % kExecSlots;
  ExecSlot& slot = exec_slots_[exec_victim_];
  slot.valid = false;  // a throwing compile leaves no stale key behind
  slot.plan.compile(batch, plan_cache_, banks_, config_.lanes());
  slot.key = batch;
  slot.valid = true;
  exec_victim_ = (exec_victim_ + 1) % kExecSlots;
  return slot.plan;
}

void PolyMem::exec_read(const ExecPlan& plan, unsigned port, std::int64_t t0,
                        std::int64_t count, Word* out) const {
  const unsigned lanes = plan.lanes();
  for (std::int64_t t = t0; t < t0 + count; ++t) {
    const std::uintptr_t* lane_base = plan.lane_base(
        static_cast<std::size_t>(plan.tmpl_of()[t]), port);
    const auto db = static_cast<std::uintptr_t>(
        plan.delta()[t] * static_cast<std::int64_t>(sizeof(Word)));
    for (unsigned k = 0; k < lanes; ++k)
      *out++ = *reinterpret_cast<const Word*>(lane_base[k] + db);
  }
}

void PolyMem::exec_write(const ExecPlan& plan, std::int64_t t0,
                         std::int64_t count, const Word* data) {
  const unsigned lanes = plan.lanes();
  for (std::int64_t t = t0; t < t0 + count; ++t, data += lanes) {
    const ExecPlan::Tables& table =
        plan.table(static_cast<std::size_t>(plan.tmpl_of()[t]));
    const unsigned* lane_for_bank = table.tmpl->lane_for_bank.data();
    const auto db = static_cast<std::uintptr_t>(
        plan.delta()[t] * static_cast<std::int64_t>(sizeof(Word)));
    // Every read-port replica stores the same data.
    const std::uintptr_t* bank_base = table.bank_base.data();
    for (unsigned r = 0; r < plan.ports(); ++r, bank_base += lanes)
      for (unsigned b = 0; b < lanes; ++b)
        *reinterpret_cast<Word*>(bank_base[b] + db) = data[lane_for_bank[b]];
  }
}

void PolyMem::read_batch(const AccessBatch& batch, unsigned port,
                         std::span<Word> out) {
  POLYMEM_REQUIRE(port < config_.read_ports, "read port out of range");
  validate_batch(batch);
  POLYMEM_REQUIRE(
      out.size() == static_cast<std::size_t>(batch.count()) * config_.lanes(),
      "batch read buffer must provide count * lanes words");
  if (batch.count() == 0) return;
  read_compiled(compiled_plan(batch), port, out);
}

void PolyMem::compile_batch(const AccessBatch& batch, ExecPlan& plan) {
  validate_batch(batch);
  plan.compile(batch, plan_cache_, banks_, config_.lanes());
}

void PolyMem::read_compiled(const ExecPlan& plan, unsigned port,
                            std::span<Word> out) {
  POLYMEM_REQUIRE(port < config_.read_ports, "read port out of range");
  POLYMEM_REQUIRE(
      out.size() == static_cast<std::size_t>(plan.count()) * plan.lanes(),
      "batch read buffer must provide count * lanes words");
  exec_read(plan, port, 0, plan.count(), out.data());
  // Bulk accounting: one read of every bank of replica `port` per access
  // (conflict-freedom was proven at template build time, so the per-cycle
  // handshake carries no information here).
  banks_.add_bulk_reads(port, static_cast<std::uint64_t>(plan.count()));
  parallel_reads_ += static_cast<std::uint64_t>(plan.count());
}

void PolyMem::write_compiled(const ExecPlan& plan,
                             std::span<const Word> data) {
  POLYMEM_REQUIRE(
      data.size() == static_cast<std::size_t>(plan.count()) * plan.lanes(),
      "batch write buffer must provide count * lanes words");
  exec_write(plan, 0, plan.count(), data.data());
  // Every replica of every bank takes one write per access.
  banks_.add_bulk_writes(static_cast<std::uint64_t>(plan.count()));
  parallel_writes_ += static_cast<std::uint64_t>(plan.count());
}

void PolyMem::write_batch(const AccessBatch& batch,
                          std::span<const Word> data) {
  validate_batch(batch);
  POLYMEM_REQUIRE(
      data.size() == static_cast<std::size_t>(batch.count()) * config_.lanes(),
      "batch write buffer must provide count * lanes words");
  if (batch.count() == 0) return;
  write_compiled(compiled_plan(batch), data);
}

void PolyMem::stream_copy_batch(const AccessBatch& from,
                                const AccessBatch& to, unsigned port) {
  POLYMEM_REQUIRE(port < config_.read_ports, "read port out of range");
  POLYMEM_REQUIRE(from.count() == to.count(),
                  "copy batches must have equal access counts");
  validate_batch(from);
  validate_batch(to);
  if (from.count() == 0) return;
  // Both halves compile, then each element is one gather into the lane
  // buffer and one scatter out of it — preserving the read-before-write-
  // per-cycle semantics for overlapping batches.
  const ExecPlan& rd = compiled_plan(from);
  const ExecPlan& wr = compiled_plan(to, /*avoid=*/&rd);
  const std::int64_t count = rd.count();
  for (std::int64_t t = 0; t < count; ++t) {
    exec_read(rd, port, t, 1, copy_buf_.data());
    exec_write(wr, t, 1, copy_buf_.data());
  }
  banks_.add_bulk_reads(port, static_cast<std::uint64_t>(count));
  banks_.add_bulk_writes(static_cast<std::uint64_t>(count));
  parallel_reads_ += static_cast<std::uint64_t>(count);
  parallel_writes_ += static_cast<std::uint64_t>(count);
}

Word PolyMem::load(access::Coord c) const {
  POLYMEM_REQUIRE(addressing_.in_bounds(c), "coordinate out of bounds");
  return banks_.peek(maf_.bank(c), addressing_.address(c));
}

void PolyMem::store(access::Coord c, Word value) {
  POLYMEM_REQUIRE(addressing_.in_bounds(c), "coordinate out of bounds");
  banks_.poke(maf_.bank(c), addressing_.address(c), value);
}

void PolyMem::fill_rect(access::Coord origin, std::int64_t rows,
                        std::int64_t cols, std::span<const Word> values) {
  POLYMEM_REQUIRE(rows >= 0 && cols >= 0,
                  "rectangle extents must be non-negative");
  POLYMEM_REQUIRE(values.size() ==
                      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
                  "value buffer must match the rectangle size");
  if (rows == 0 || cols == 0) return;
  POLYMEM_REQUIRE(addressing_.in_bounds(origin) &&
                      addressing_.in_bounds(
                          {origin.i + rows - 1, origin.j + cols - 1}),
                  "rectangle exceeds the address space");
  std::size_t k = 0;
  for (std::int64_t u = 0; u < rows; ++u) {
    const std::int64_t i = origin.i + u;
    for (std::int64_t v = 0; v < cols; ++v) {
      const std::int64_t j = origin.j + v;
      banks_.poke(maf_.bank(i, j), addressing_.address(i, j), values[k++]);
    }
  }
}

void PolyMem::dump_rect(access::Coord origin, std::int64_t rows,
                        std::int64_t cols, std::span<Word> values) const {
  POLYMEM_REQUIRE(rows >= 0 && cols >= 0,
                  "rectangle extents must be non-negative");
  POLYMEM_REQUIRE(values.size() ==
                      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
                  "value buffer must match the rectangle size");
  if (rows == 0 || cols == 0) return;
  POLYMEM_REQUIRE(addressing_.in_bounds(origin) &&
                      addressing_.in_bounds(
                          {origin.i + rows - 1, origin.j + cols - 1}),
                  "rectangle exceeds the address space");
  std::size_t k = 0;
  for (std::int64_t u = 0; u < rows; ++u) {
    const std::int64_t i = origin.i + u;
    for (std::int64_t v = 0; v < cols; ++v) {
      const std::int64_t j = origin.j + v;
      values[k++] = banks_.peek(maf_.bank(i, j), addressing_.address(i, j));
    }
  }
}

}  // namespace polymem::core

#include "support/naive_polymem.hpp"

#include "common/error.hpp"
#include "support/shuffle.hpp"

namespace polymem::core {

NaivePolyMem::NaivePolyMem(PolyMemConfig config)
    : config_((config.validate(), config)),
      maf_(config.scheme, config.p, config.q),
      addressing_(config.p, config.q, config.height, config.width),
      agu_(config_, maf_, addressing_),
      banks_(config.lanes(), config.read_ports, config.words_per_bank()),
      bank_addr_(config.lanes()),
      bank_data_(config.lanes()) {
  plan_.reserve(config.lanes());
}

maf::SupportLevel NaivePolyMem::supports(access::PatternKind pattern) const {
  return maf::probe_support(maf_, pattern);
}

void NaivePolyMem::write(const access::ParallelAccess& where,
                         std::span<const hw::Word> data) {
  POLYMEM_REQUIRE(data.size() == config_.lanes(),
                  "write data must provide one word per lane");
  agu_.expand_into(where, plan_);
  address_shuffle(plan_, bank_addr_);
  write_data_shuffle(plan_, data, bank_data_);
  banks_.begin_cycle();
  banks_.write(bank_addr_, bank_data_);
  ++parallel_writes_;
}

void NaivePolyMem::read_into(const access::ParallelAccess& where,
                             unsigned port, std::span<hw::Word> out) {
  POLYMEM_REQUIRE(port < config_.read_ports, "read port out of range");
  POLYMEM_REQUIRE(out.size() == config_.lanes(),
                  "read buffer must provide one word per lane");
  agu_.expand_into(where, plan_);
  address_shuffle(plan_, bank_addr_);
  banks_.begin_cycle();
  banks_.read(port, bank_addr_, bank_data_);
  read_data_shuffle(plan_, bank_data_, out);
  ++parallel_reads_;
}

std::vector<hw::Word> NaivePolyMem::read(const access::ParallelAccess& where,
                                         unsigned port) {
  std::vector<hw::Word> out(config_.lanes());
  read_into(where, port, out);
  return out;
}

void NaivePolyMem::read_batch(const AccessBatch& batch, unsigned port,
                              std::span<hw::Word> out) {
  const std::size_t lanes = config_.lanes();
  POLYMEM_REQUIRE(out.size() == static_cast<std::size_t>(batch.count()) * lanes,
                  "batch read buffer must provide count * lanes words");
  for (std::int64_t t = 0; t < batch.count(); ++t)
    read_into(batch.access(t), port,
              out.subspan(static_cast<std::size_t>(t) * lanes, lanes));
}

void NaivePolyMem::write_batch(const AccessBatch& batch,
                               std::span<const hw::Word> data) {
  const std::size_t lanes = config_.lanes();
  POLYMEM_REQUIRE(
      data.size() == static_cast<std::size_t>(batch.count()) * lanes,
      "batch write buffer must provide count * lanes words");
  for (std::int64_t t = 0; t < batch.count(); ++t)
    write(batch.access(t),
          data.subspan(static_cast<std::size_t>(t) * lanes, lanes));
}

hw::Word NaivePolyMem::load(access::Coord c) const {
  POLYMEM_REQUIRE(addressing_.in_bounds(c), "coordinate out of bounds");
  return banks_.peek(maf_.bank(c), addressing_.address(c));
}

void NaivePolyMem::store(access::Coord c, hw::Word value) {
  POLYMEM_REQUIRE(addressing_.in_bounds(c), "coordinate out of bounds");
  banks_.poke(maf_.bank(c), addressing_.address(c), value);
}

void NaivePolyMem::fill_rect(access::Coord origin, std::int64_t rows,
                             std::int64_t cols,
                             std::span<const hw::Word> values) {
  POLYMEM_REQUIRE(values.size() == static_cast<std::size_t>(rows * cols),
                  "value buffer must match the rectangle size");
  std::size_t k = 0;
  for (std::int64_t u = 0; u < rows; ++u)
    for (std::int64_t v = 0; v < cols; ++v)
      store({origin.i + u, origin.j + v}, values[k++]);
}

void NaivePolyMem::dump_rect(access::Coord origin, std::int64_t rows,
                             std::int64_t cols,
                             std::span<hw::Word> values) const {
  POLYMEM_REQUIRE(values.size() == static_cast<std::size_t>(rows * cols),
                  "value buffer must match the rectangle size");
  std::size_t k = 0;
  for (std::int64_t u = 0; u < rows; ++u)
    for (std::int64_t v = 0; v < cols; ++v)
      values[k++] = load({origin.i + u, origin.j + v});
}

}  // namespace polymem::core

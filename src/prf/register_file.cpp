#include "prf/register_file.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/error.hpp"

namespace polymem::prf {

using access::Coord;
using access::CoordHash;
using access::ParallelAccess;
using access::PatternKind;
using access::Region;

RegisterFile::RegisterFile(core::PolyMem& mem) : mem_(&mem) {}

void RegisterFile::check_no_overlap(const Region& region,
                                    const std::string& ignore) const {
  std::unordered_set<Coord, CoordHash> incoming;
  for (const Coord& c : region.elements()) incoming.insert(c);
  for (const auto& [name, existing] : table_) {
    if (name == ignore) continue;
    for (const Coord& c : existing.reg.region.elements()) {
      POLYMEM_REQUIRE(incoming.count(c) == 0,
                      "region overlaps register '" + name + "' at (" +
                          std::to_string(c.i) + "," + std::to_string(c.j) +
                          ")");
    }
  }
}

RegisterFile::Entry RegisterFile::build_entry(const std::string& name,
                                              const Region& region,
                                              PatternKind pattern) const {
  const auto& cfg = mem_->config();
  Entry entry;
  entry.reg = {name, region, pattern};
  entry.tiles = access::tile_region(region, pattern, cfg.p, cfg.q);

  // Canonical element order of the region -> index.
  std::unordered_map<Coord, std::int64_t, CoordHash> index;
  {
    const auto el = region.elements();
    for (std::int64_t k = 0; k < static_cast<std::int64_t>(el.size()); ++k)
      index.emplace(el[static_cast<std::size_t>(k)], k);
  }

  for (const ParallelAccess& tile : entry.tiles) {
    // Every tile must fit the PolyMem and be served conflict-free at its
    // anchor (the AGU would throw later; validating at define() gives the
    // error at the right time).
    POLYMEM_REQUIRE(
        access::fits(tile, cfg.p, cfg.q, cfg.height, cfg.width),
        "register '" + name + "' needs a tile outside the address space");
    if (!mem_->serves(tile)) {
      throw Unsupported("scheme " + std::string(maf::scheme_name(cfg.scheme)) +
                        " does not serve pattern " +
                        access::pattern_name(pattern) +
                        " at the anchors register '" + name + "' needs");
    }
    std::vector<std::int64_t> lanes;
    const auto coords = access::expand(tile, cfg.p, cfg.q);
    lanes.reserve(coords.size());
    for (const Coord& c : coords) {
      const auto it = index.find(c);
      lanes.push_back(it == index.end() ? -1 : it->second);
      if (it == index.end()) entry.exact_cover = false;
    }
    entry.lane_index.push_back(std::move(lanes));
  }
  return entry;
}

void RegisterFile::define(const std::string& name, const Region& region,
                          PatternKind pattern) {
  POLYMEM_REQUIRE(!name.empty(), "register name must be non-empty");
  POLYMEM_REQUIRE(table_.count(name) == 0,
                  "register '" + name + "' is already defined");
  check_no_overlap(region, /*ignore=*/"");
  table_.emplace(name, build_entry(name, region, pattern));
}

void RegisterFile::redefine(const std::string& name, const Region& region,
                            PatternKind pattern) {
  POLYMEM_REQUIRE(table_.count(name) == 1,
                  "register '" + name + "' is not defined");
  check_no_overlap(region, /*ignore=*/name);
  // Build first: a failed redefinition must leave the old register intact.
  Entry fresh = build_entry(name, region, pattern);
  table_[name] = std::move(fresh);
}

void RegisterFile::undefine(const std::string& name) {
  POLYMEM_REQUIRE(table_.erase(name) == 1,
                  "register '" + name + "' is not defined");
}

bool RegisterFile::defined(const std::string& name) const {
  return table_.count(name) != 0;
}

const RegisterFile::Entry& RegisterFile::entry(const std::string& name) const {
  const auto it = table_.find(name);
  POLYMEM_REQUIRE(it != table_.end(),
                  "register '" + name + "' is not defined");
  return it->second;
}

const LogicalRegister& RegisterFile::reg(const std::string& name) const {
  return entry(name).reg;
}

std::vector<std::string> RegisterFile::names() const {
  std::vector<std::string> out;
  out.reserve(table_.size());
  for (const auto& [name, _] : table_) out.push_back(name);
  return out;
}

std::int64_t RegisterFile::read_access_count(const std::string& name) const {
  return static_cast<std::int64_t>(entry(name).tiles.size());
}

std::vector<core::Word> RegisterFile::read_register(const std::string& name,
                                                    TransferStats* stats) {
  const Entry& e = entry(name);
  std::vector<core::Word> out(
      static_cast<std::size_t>(e.reg.elements()));
  TransferStats local;
  for (std::size_t t = 0; t < e.tiles.size(); ++t) {
    const auto data = mem_->read(e.tiles[t]);
    ++local.parallel_reads;
    for (std::size_t k = 0; k < data.size(); ++k) {
      const std::int64_t idx = e.lane_index[t][k];
      if (idx >= 0) {
        out[static_cast<std::size_t>(idx)] = data[k];
        ++local.elements_moved;
      }
    }
  }
  if (stats) *stats = local;
  return out;
}

void RegisterFile::write_register(const std::string& name,
                                  std::span<const core::Word> values,
                                  TransferStats* stats) {
  const Entry& e = entry(name);
  POLYMEM_REQUIRE(values.size() ==
                      static_cast<std::size_t>(e.reg.elements()),
                  "value count must match the register size");
  TransferStats local;
  std::vector<core::Word> lane_data(mem_->config().lanes());
  for (std::size_t t = 0; t < e.tiles.size(); ++t) {
    const auto& lanes = e.lane_index[t];
    const bool partial =
        std::any_of(lanes.begin(), lanes.end(),
                    [](std::int64_t idx) { return idx < 0; });
    if (partial) {
      // Read-modify-write: keep out-of-register lanes intact.
      lane_data = mem_->read(e.tiles[t]);
      ++local.parallel_reads;
    }
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      if (lanes[k] >= 0) {
        lane_data[k] = values[static_cast<std::size_t>(lanes[k])];
        ++local.elements_moved;
      }
    }
    mem_->write(e.tiles[t], lane_data);
    ++local.parallel_writes;
  }
  if (stats) *stats = local;
}

}  // namespace polymem::prf

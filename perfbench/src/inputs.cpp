#include "inputs.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

using polymem::Rng;
using polymem::access::PatternKind;
using polymem::sched::RecordedTrace;
using polymem::sched::TraceOp;

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (std::size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::operator()(Rng& rng) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform01());
  return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                  cdf_.size() - 1);
}

RecordedTrace phase_program(std::uint64_t seed, unsigned p, unsigned q,
                            std::int64_t n, int rounds,
                            std::int64_t accesses_per_phase) {
  RecordedTrace trace;
  trace.p = p;
  trace.q = q;
  trace.height = n;
  trace.width = n;
  trace.seed = seed;
  Rng rng(seed);
  const std::int64_t lanes = static_cast<std::int64_t>(p) * q;
  const std::int64_t bands = n / lanes;
  constexpr PatternKind kPhases[] = {PatternKind::kRow, PatternKind::kCol,
                                     PatternKind::kMainDiag};
  for (int r = 0; r < rounds; ++r) {
    for (const PatternKind kind : kPhases) {
      for (std::int64_t done = 0; done < accesses_per_phase;) {
        TraceOp op;
        op.dir = rng.chance(0.25) ? TraceOp::Dir::kWrite : TraceOp::Dir::kRead;
        op.kind = kind;
        op.count = rng.uniform(8, 32);
        switch (kind) {
          case PatternKind::kRow:  // walk down a lane-aligned column band
            op.anchor = {rng.uniform(0, n - op.count),
                         lanes * rng.uniform(0, bands - 1)};
            op.stride = {1, 0};
            break;
          case PatternKind::kCol:  // walk across a lane-aligned row band
            op.anchor = {lanes * rng.uniform(0, bands - 1),
                         rng.uniform(0, n - op.count)};
            op.stride = {0, 1};
            break;
          default:  // main diagonals stacked down the rows
            op.anchor = {rng.uniform(0, n - op.count - lanes + 1),
                         rng.uniform(0, n - lanes)};
            op.stride = {1, 0};
            break;
        }
        trace.ops.push_back(op);
        done += op.count;
      }
    }
  }
  return trace;
}

std::vector<std::vector<std::uint64_t>> write_payloads(
    const RecordedTrace& trace) {
  const std::int64_t lanes = static_cast<std::int64_t>(trace.p) * trace.q;
  std::vector<std::vector<std::uint64_t>> out(trace.ops.size());
  for (std::size_t k = 0; k < trace.ops.size(); ++k) {
    const TraceOp& op = trace.ops[k];
    if (op.dir != TraceOp::Dir::kWrite) continue;
    out[k].resize(static_cast<std::size_t>(op.count * lanes));
    for (std::int64_t w = 0; w < op.count * lanes; ++w)
      out[k][static_cast<std::size_t>(w)] = polymem::sched::canonical_write_word(
          trace.seed, static_cast<std::int64_t>(k), w);
  }
  return out;
}

std::vector<std::uint64_t> canonical_image(const RecordedTrace& trace,
                                           std::int64_t height,
                                           std::int64_t width) {
  std::vector<std::uint64_t> image(static_cast<std::size_t>(height * width),
                                   0);
  for (std::int64_t i = 0; i < trace.height; ++i)
    for (std::int64_t j = 0; j < trace.width; ++j)
      image[static_cast<std::size_t>(i * width + j)] =
          polymem::sched::canonical_cell(trace.seed, trace.width, {i, j});
  return image;
}

std::size_t read_offsets(const RecordedTrace& trace,
                         std::vector<std::int64_t>& offsets) {
  const std::int64_t lanes = static_cast<std::int64_t>(trace.p) * trace.q;
  offsets.assign(trace.ops.size(), -1);
  std::int64_t total = 0;
  for (std::size_t k = 0; k < trace.ops.size(); ++k) {
    if (trace.ops[k].dir != TraceOp::Dir::kRead) continue;
    offsets[k] = total;
    total += trace.ops[k].count * lanes;
  }
  return static_cast<std::size_t>(total);
}

std::int64_t check_against_oracle(const RecordedTrace& trace,
                                  const polymem::sched::HostReplay& oracle,
                                  const std::vector<std::int64_t>& offsets,
                                  std::span<const std::uint64_t> out,
                                  std::span<const std::uint64_t> image) {
  const std::int64_t lanes = static_cast<std::int64_t>(trace.p) * trace.q;
  std::int64_t divergent = 0;
  for (std::size_t k = 0; k < trace.ops.size(); ++k) {
    if (offsets[k] < 0) continue;
    const auto words = out.subspan(static_cast<std::size_t>(offsets[k]),
                                   static_cast<std::size_t>(
                                       trace.ops[k].count * lanes));
    if (polymem::sched::fnv1a(words.data(), words.size()) !=
        oracle.checksums[k])
      ++divergent;
  }
  if (!std::equal(image.begin(), image.end(), oracle.memory.begin(),
                  oracle.memory.end()))
    ++divergent;
  return divergent;
}

}  // namespace perfbench

// Seeded input generators and trace oracles shared by the workloads.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sched/trace_io.hpp"

namespace perfbench {

/// Zipf(s) sampler over ranks [0, n): rank r with probability
/// proportional to 1/(r+1)^s, by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t operator()(polymem::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// A seeded phase-changing program on an n x n space of p x q lanes:
/// `rounds` repetitions of a row phase, a column phase and a
/// main-diagonal phase, each of about `accesses_per_phase` parallel
/// accesses in strided walks of 8..32 accesses, a quarter of them writes.
/// No static scheme serves all three phases conflict-free at 2x4.
polymem::sched::RecordedTrace phase_program(std::uint64_t seed, unsigned p,
                                            unsigned q, std::int64_t n,
                                            int rounds,
                                            std::int64_t accesses_per_phase);

/// Canonical-data-model payload of every op (empty for reads).
std::vector<std::vector<std::uint64_t>> write_payloads(
    const polymem::sched::RecordedTrace& trace);

/// Canonical initial image of the trace space padded to
/// height x width (padding cells zero), row-major.
std::vector<std::uint64_t> canonical_image(
    const polymem::sched::RecordedTrace& trace, std::int64_t height,
    std::int64_t width);

/// Where each read op's words land in a flat per-run output buffer
/// (-1 for writes); returns the buffer size in words.
std::size_t read_offsets(const polymem::sched::RecordedTrace& trace,
                         std::vector<std::int64_t>& offsets);

/// Differential check of one replay of `trace` against the host oracle:
/// every read op's words (at `offsets` in `out`) against the oracle
/// checksum, and the final trace-space `image` against the oracle memory.
/// Returns the number of divergent ops (a wrong image counts one).
std::int64_t check_against_oracle(
    const polymem::sched::RecordedTrace& trace,
    const polymem::sched::HostReplay& oracle,
    const std::vector<std::int64_t>& offsets,
    std::span<const std::uint64_t> out,
    std::span<const std::uint64_t> image);

}  // namespace perfbench

// The benchmark's workloads. Each pass function builds its inputs and
// memories from the seed (timed as set-up), does one fixed unit of work
// (timed), then checks every output against a host oracle (untimed).
// README.md says why each workload exists and which layer it stresses.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// Six app traces plus a seeded phase trace, parsed and replayed on all
/// five schemes through PolyMem batches or the scalar fallback.
PassResult trace_incore_pass(std::uint64_t seed, Tracer* tracer);

/// Closed-loop Zipf clients against a started ServiceEngine.
PassResult service_zipf_pass(std::uint64_t seed, Tracer* tracer);
/// Logical clients the service workload runs (stated in the output).
inline constexpr unsigned kServiceClients = 8;

/// CachedMatrix over an LMem matrix 8x the cache capacity.
PassResult ooc_tiles_pass(std::uint64_t seed, Tracer* tracer);

/// AdaptiveMatrix with inline migrations over a phase-changing program.
PassResult adaptive_phase_pass(std::uint64_t seed, Tracer* tracer);

}  // namespace perfbench

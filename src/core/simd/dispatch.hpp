// Names the gather/scatter level for run reports (perfbench's host stamp).
// There is one: PolyMem's portable loop (docs/ARCHITECTURE.md, "Compiled
// execution engine").
#pragma once

namespace polymem::core::simd {

enum class Level : int { kScalar = 0 };

constexpr const char* level_name(Level /*level*/) { return "scalar"; }

constexpr Level active_level() { return Level::kScalar; }

}  // namespace polymem::core::simd

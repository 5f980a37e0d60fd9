// Allocation counts from the counting global operator new that
// alloc_counter.cpp installs. Only the traced-run binary links it; timed
// passes keep the default allocator.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

/// Allocations (and bytes requested) through global operator new since
/// the process started.
AllocCount alloc_count();

inline AllocCount operator-(AllocCount a, AllocCount b) {
  return {a.allocs - b.allocs, a.bytes - b.bytes};
}

}  // namespace perfbench

// Process-wide heap allocation count (see alloc_count.cc).
#pragma once

#include <cstdint>

namespace perfbench {

void set_alloc_counting(bool on);
/// Calls to the global operator new made while counting was on.
std::uint64_t allocations();

}  // namespace perfbench

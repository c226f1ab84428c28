// Counts of global operator new / delete calls in this process.
//
// Linking the `ugnirt_alloc_count` library replaces every global
// operator new and delete of the binary with versions that count their
// calls (and otherwise behave as malloc / aligned_alloc / free).  The
// counts depend only on what the program allocates, not on the allocator
// or the machine, so a test can gate them exactly.
#pragma once

#include <cstdint>

namespace ugnirt::alloc_count {

struct Counts {
  std::uint64_t news = 0;     // successful operator new calls
  std::uint64_t deletes = 0;  // operator delete calls on non-null pointers

  /// Allocations still live from the earlier snapshot `from` to this one.
  std::int64_t net_since(const Counts& from) const {
    return static_cast<std::int64_t>(news - from.news) -
           static_cast<std::int64_t>(deletes - from.deletes);
  }
};

/// Counts so far.
Counts now();

}  // namespace ugnirt::alloc_count

#pragma once
// Reusable per-thread scratch buffers. The persistent executor's workers
// outlive every index, engine and backend in the process, so a thread_local
// buffer sized for one caller would otherwise stay pinned at its largest size
// for the rest of the process. The rule every per-thread scratch follows
// (DESIGN.md §7): grow on demand, and release a buffer that is far larger
// than the current call needs.

#include <algorithm>
#include <cstddef>
#include <vector>

namespace drim {

/// At least `n` elements of `v`, which is released first when its capacity
/// exceeds both 4096 elements and 8x `n`. Contents are unspecified.
template <typename T>
T* scratch_buffer(std::vector<T>& v, std::size_t n) {
  if (v.capacity() > std::max<std::size_t>(4096, n * 8)) std::vector<T>().swap(v);
  if (v.size() < n) v.resize(n);
  return v.data();
}

}  // namespace drim

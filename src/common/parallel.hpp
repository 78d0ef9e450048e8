#pragma once
// Parallel loop helper for the host path. Every host fan-out runs on the
// persistent work-stealing executor (common/executor.hpp): a fixed worker
// pool started once per process, per-lane ranges with stealing. A thread cap
// of 1 runs each loop inline on the calling thread, which is the serial
// reference the parallel-vs-serial identity tests compare against.

#include <cstddef>

#include "common/executor.hpp"

namespace drim {

/// Number of worker threads the host runtime will use: the cap if set, else
/// hardware concurrency.
inline int num_threads() { return Executor::instance().effective_parallelism(); }

/// Cap the worker-thread pool (0 = leave unchanged). Returns the effective
/// count.
inline int set_num_threads(int n) { return Executor::instance().set_thread_cap(n); }

/// Parallel for over [begin, end) with a dynamic schedule. `body` is invoked
/// as body(i) at most once per index (exactly once if no invocation throws);
/// it must be safe to run concurrently for distinct indices. If any
/// invocation throws, later indices short-circuit and the first captured
/// exception is rethrown on the calling thread after the loop drains.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body) {
  Executor::instance().parallel_for(begin, end, body);
}

}  // namespace drim

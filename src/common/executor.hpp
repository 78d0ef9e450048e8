#pragma once
// Persistent work-stealing executor for the host-side loops: a fixed worker
// pool started once per process, so every `parallel_for` reuses warm threads
// instead of paying pthread_create/join per call. common/parallel.hpp's
// drim::parallel_for is a thin wrapper over this pool.
//
// Scheduling: each loop splits [begin, end) into one contiguous block per
// participating lane (the calling thread is lane 0). A lane pops small
// chunks off the front of its own block; a lane that runs dry steals the
// upper half of a victim's remaining block, parks the surplus in its own
// slot, and continues. Blocks are packed (lo, hi) in one 64-bit atomic, so
// pops and steals are single CAS operations and every index is claimed
// exactly once no matter how pops and steals interleave.
//
// Contracts (the loop contract common/parallel.hpp documents):
//  - body(i) runs at most once per index; after the first captured
//    exception an abort flag short-circuits the remaining indices, and the
//    first exception is rethrown on the calling thread once the loop drains.
//  - All body effects happen-before parallel_for returns: the final
//    pending-counter decrement is acq_rel and completion is handed to the
//    caller under a mutex + condvar, so the edge is visible to TSan
//    (std::thread / std::atomic / std::mutex are all instrumented).
//  - Deterministic results are the *callers'* responsibility (fixed-order
//    merges); the executor only guarantees exactly-once index execution.
//
// Nested parallel_for calls (from inside a worker body) run serially inline
// on the calling worker: the pool is flat, and inline nesting cannot
// deadlock or oversubscribe.
//
// The thread cap (set_thread_cap / drim::set_num_threads) bounds the lanes
// of every subsequent loop. Caps above hardware_concurrency are honored by
// growing the pool — oversubscription is how the 1-core CI container still
// exercises real interleavings.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace drim {

class Executor {
 public:
  /// The process-wide pool. Workers are spawned lazily on first parallel
  /// use and joined at static destruction.
  static Executor& instance();

  /// Effective lane count for loops: the cap if set, else hardware
  /// concurrency (>= 1).
  int effective_parallelism() const;

  /// Cap the lanes used by subsequent loops (0 = leave unchanged). Returns
  /// the effective count. Caps above hardware concurrency grow the pool on
  /// demand; a cap above max(64, 8x hardware concurrency) throws
  /// std::invalid_argument and leaves the cap unchanged.
  int set_thread_cap(int n);

  /// True on a pool worker thread (used to run nested loops inline).
  static bool on_worker_thread();

  /// Number of OS threads currently in the pool (test/introspection only).
  std::size_t pool_size() const;

  /// Parallel for over [begin, end): body(i) exactly once per index, safe to
  /// run concurrently for distinct indices. First exception rethrown on the
  /// calling thread after the loop drains; later indices short-circuit.
  template <typename Body>
  void parallel_for(std::size_t begin, std::size_t end, const Body& body) {
    if (end <= begin) return;
    // Ranges are packed (lo, hi) as two 32-bit halves; loops whose indices
    // do not fit run as rebased windows so slot values stay 32-bit.
    if (end > (std::size_t{1} << 32) - 1) {
      constexpr std::size_t kWindow = std::size_t{1} << 31;
      for (std::size_t w = begin; w < end; w += kWindow) {
        const std::size_t len = std::min(end - w, kWindow);
        const auto shifted = [&body, w](std::size_t i) { body(w + i); };
        parallel_windowed(0, len, &invoke_thunk<decltype(shifted)>, &shifted);
      }
      return;
    }
    parallel_windowed(begin, end, &invoke_thunk<Body>, &body);
  }

  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

 private:
  using InvokeFn = void (*)(const void*, std::size_t, std::size_t,
                            const std::atomic<bool>&);

  /// Control block of one loop, owned by the calling thread's stack frame.
  /// Workers hold a pointer only between check-in and check-out, and the
  /// caller does not return before every participant has checked out. Check-in
  /// closes once the caller runs dry, so a worker woken late skips the loop.
  struct Loop {
    InvokeFn invoke = nullptr;
    const void* body = nullptr;
    std::unique_ptr<std::atomic<std::uint64_t>[]> slots;  // packed (lo, hi)
    std::size_t lanes = 0;
    std::size_t grain = 1;
    std::atomic<std::size_t> pending{0};  // indices not yet executed/skipped
    std::atomic<bool> abort{false};
    std::exception_ptr error;
    std::mutex sync_mu;  // guards error, work_done, workers_in_flight updates
    std::condition_variable sync_cv;
    bool work_done = false;
    // Changed only under sync_mu; atomic so the caller can poll it.
    std::atomic<std::size_t> workers_in_flight{0};
  };

  template <typename Body>
  static void invoke_thunk(const void* body, std::size_t b, std::size_t e,
                           const std::atomic<bool>& abort) {
    const Body& fn = *static_cast<const Body*>(body);
    for (std::size_t i = b; i < e; ++i) {
      if (abort.load(std::memory_order_relaxed)) return;
      fn(i);
    }
  }

  Executor();
  void parallel_windowed(std::size_t begin, std::size_t end, InvokeFn invoke,
                         const void* body);
  void run_loop(Loop& loop, std::size_t begin, std::size_t end,
                std::size_t lanes);
  void participate(Loop& loop, std::size_t lane);
  static bool pop_chunk(Loop& loop, std::size_t lane, std::size_t& b,
                        std::size_t& e);
  static bool steal_chunk(Loop& loop, std::size_t lane, std::size_t& b,
                          std::size_t& e);
  void worker_main(std::size_t index);
  void ensure_workers_locked(std::size_t count);

  mutable std::mutex pool_mu_;  // worker list + current-loop publication
  std::condition_variable pool_cv_;
  std::vector<std::thread> workers_;
  Loop* current_ = nullptr;
  std::uint64_t epoch_ = 0;
  std::size_t wanted_workers_ = 0;  // pool participants of the current loop
  bool shutdown_ = false;

  std::mutex submit_mu_;  // one loop drives the pool at a time
  std::atomic<int> cap_{0};
};

}  // namespace drim

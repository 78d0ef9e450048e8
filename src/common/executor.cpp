#include "common/executor.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

namespace drim {

namespace {

// Set for the lifetime of a pool worker thread; nested loops from worker
// bodies run inline instead of re-entering the pool.
thread_local bool tl_on_worker = false;
// Set on the calling thread while it participates in its own loop, so a
// nested call from a caller-executed body also runs inline.
thread_local bool tl_in_loop = false;

constexpr std::uint64_t pack(std::size_t lo, std::size_t hi) {
  return (static_cast<std::uint64_t>(lo) << 32) | static_cast<std::uint64_t>(hi);
}
constexpr std::size_t unpack_lo(std::uint64_t r) {
  return static_cast<std::size_t>(r >> 32);
}
constexpr std::size_t unpack_hi(std::uint64_t r) {
  return static_cast<std::size_t>(r & 0xFFFFFFFFu);
}

// How long the caller polls for the last chunks before it sleeps. A caller
// asleep on sync_cv has to be woken and rescheduled once the workers finish,
// and on a loaded host that wake-up can wait out another thread's time
// slice: far longer than the few µs a small loop's stragglers need.
constexpr auto kCallerSpin = std::chrono::microseconds(100);

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

std::size_t default_parallelism() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<std::size_t>(hw) : 1;
}

// Owner-pop granularity: small enough that a steal can rebalance the tail,
// large enough that light bodies (a kmeans point assignment) amortize the
// CAS.
std::size_t grain_for(std::size_t n, std::size_t lanes) {
  const std::size_t g = n / (lanes * 8);
  return std::clamp<std::size_t>(g, 1, 64);
}

}  // namespace

Executor& Executor::instance() {
  static Executor exec;
  return exec;
}

Executor::Executor() = default;

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    shutdown_ = true;
    pool_cv_.notify_all();
  }
  for (std::thread& t : workers_) t.join();
}

int Executor::effective_parallelism() const {
  const int cap = cap_.load(std::memory_order_relaxed);
  return cap > 0 ? cap : static_cast<int>(default_parallelism());
}

int Executor::set_thread_cap(int n) {
  // A cap grows the pool to cap - 1 OS threads on the first large loop, so
  // an absurd cap would start that many threads.
  const std::size_t bound = std::max<std::size_t>(64, 8 * default_parallelism());
  if (n > 0 && static_cast<std::size_t>(n) > bound) {
    throw std::invalid_argument("thread cap " + std::to_string(n) + " exceeds the bound " +
                                std::to_string(bound) +
                                " (8x hardware concurrency, at least 64)");
  }
  if (n > 0) cap_.store(n, std::memory_order_relaxed);
  return effective_parallelism();
}

bool Executor::on_worker_thread() { return tl_on_worker; }

std::size_t Executor::pool_size() const {
  std::lock_guard<std::mutex> lk(pool_mu_);
  return workers_.size();
}

void Executor::ensure_workers_locked(std::size_t count) {
  while (workers_.size() < count) {
    const std::size_t index = workers_.size();
    workers_.emplace_back([this, index] { worker_main(index); });
  }
}

void Executor::parallel_windowed(std::size_t begin, std::size_t end,
                                 InvokeFn invoke, const void* body) {
  const std::size_t n = end - begin;
  const std::size_t lanes = std::min<std::size_t>(
      n, static_cast<std::size_t>(effective_parallelism()));
  // Serial inline: single lane, or a nested call from inside a loop body.
  // Inline exceptions propagate directly — same "first error, later indices
  // short-circuit" contract, trivially.
  if (lanes <= 1 || tl_on_worker || tl_in_loop) {
    static const std::atomic<bool> never_abort{false};
    invoke(body, begin, end, never_abort);
    return;
  }
  Loop loop;
  loop.invoke = invoke;
  loop.body = body;
  run_loop(loop, begin, end, lanes);
}

void Executor::run_loop(Loop& loop, std::size_t begin, std::size_t end,
                        std::size_t lanes) {
  // One loop drives the pool at a time; concurrent top-level callers
  // serialize here (worker bodies never reach this — they run inline).
  std::lock_guard<std::mutex> submit(submit_mu_);
  const std::size_t n = end - begin;
  loop.lanes = lanes;
  loop.grain = grain_for(n, lanes);
  loop.pending.store(n, std::memory_order_relaxed);
  loop.slots = std::make_unique<std::atomic<std::uint64_t>[]>(lanes);
  for (std::size_t j = 0; j < lanes; ++j) {
    const std::size_t lo = begin + n * j / lanes;
    const std::size_t hi = begin + n * (j + 1) / lanes;
    loop.slots[j].store(pack(lo, hi), std::memory_order_relaxed);
  }
  const std::size_t pool_workers = lanes - 1;  // caller is lane 0
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    ensure_workers_locked(pool_workers);
    current_ = &loop;
    wanted_workers_ = pool_workers;
    ++epoch_;
    pool_cv_.notify_all();
  }

  tl_in_loop = true;
  participate(loop, 0);
  tl_in_loop = false;

  // The caller ran dry only after stealing whatever a lane that never arrived
  // left behind, so every index is claimed or parked with a running thief.
  // Close check-in: a worker the scheduler wakes only after this point skips
  // the loop instead of holding up the caller. The loop lives on this stack
  // frame: wait until every index has executed AND every worker that did
  // check in has checked out, so no worker still holds a pointer into `loop`
  // when it is destroyed.
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    current_ = nullptr;
  }
  // Poll only when every lane has a core: oversubscribed, the spin would
  // take the core from the worker it waits for.
  if (lanes <= default_parallelism()) {
    const auto deadline = std::chrono::steady_clock::now() + kCallerSpin;
    for (unsigned i = 1;; ++i) {
      if (loop.pending.load(std::memory_order_acquire) == 0 &&
          loop.workers_in_flight.load(std::memory_order_acquire) == 0) {
        break;
      }
      if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) break;
      cpu_relax();
    }
  }
  {
    // Taken even when the poll saw the loop drain: the last worker to check
    // out holds sync_mu until it has stopped touching `loop`.
    std::unique_lock<std::mutex> lk(loop.sync_mu);
    loop.sync_cv.wait(
        lk, [&] { return loop.work_done && loop.workers_in_flight == 0; });
  }
  if (loop.error) std::rethrow_exception(loop.error);
}

void Executor::worker_main(std::size_t index) {
  tl_on_worker = true;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(pool_mu_);
  for (;;) {
    pool_cv_.wait(lk, [&] { return shutdown_ || epoch_ != seen; });
    if (shutdown_) return;
    seen = epoch_;
    Loop* loop = current_;
    // A worker spawned mid-loop (pool growth) has index >= wanted_workers_
    // for the loop that spawned its predecessors; only participants whose
    // check-in was counted may touch the loop.
    if (loop == nullptr || index >= wanted_workers_) continue;
    {
      // Check in while pool_mu_ still publishes the loop: the caller closes
      // check-in under pool_mu_ before it waits for the count to drain.
      std::lock_guard<std::mutex> slk(loop->sync_mu);
      loop->workers_in_flight.fetch_add(1, std::memory_order_relaxed);
    }
    lk.unlock();
    participate(*loop, index + 1);
    {
      // Check out: once the last participant leaves, the caller may destroy
      // the loop object.
      std::lock_guard<std::mutex> slk(loop->sync_mu);
      loop->workers_in_flight.fetch_sub(1, std::memory_order_release);
      loop->sync_cv.notify_all();
    }
    lk.lock();
  }
}

void Executor::participate(Loop& loop, std::size_t lane) {
  for (;;) {
    std::size_t b = 0, e = 0;
    if (!pop_chunk(loop, lane, b, e) && !steal_chunk(loop, lane, b, e)) break;
    if (!loop.abort.load(std::memory_order_relaxed)) {
      try {
        loop.invoke(loop.body, b, e, loop.abort);
      } catch (...) {
        std::lock_guard<std::mutex> lk(loop.sync_mu);
        if (!loop.error) loop.error = std::current_exception();
        loop.abort.store(true, std::memory_order_relaxed);
      }
    }
    // Claimed indices count as drained whether executed, skipped after
    // abort, or cut short by the exception just captured.
    const std::size_t done = e - b;
    if (loop.pending.fetch_sub(done, std::memory_order_acq_rel) == done) {
      std::lock_guard<std::mutex> lk(loop.sync_mu);
      loop.work_done = true;
      loop.sync_cv.notify_all();
    }
  }
}

bool Executor::pop_chunk(Loop& loop, std::size_t lane, std::size_t& b,
                         std::size_t& e) {
  std::atomic<std::uint64_t>& slot = loop.slots[lane];
  std::uint64_t cur = slot.load(std::memory_order_acquire);
  for (;;) {
    const std::size_t lo = unpack_lo(cur);
    const std::size_t hi = unpack_hi(cur);
    if (lo >= hi) return false;
    const std::size_t take = std::min(loop.grain, hi - lo);
    if (slot.compare_exchange_weak(cur, pack(lo + take, hi),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      b = lo;
      e = lo + take;
      return true;
    }
  }
}

bool Executor::steal_chunk(Loop& loop, std::size_t lane, std::size_t& b,
                           std::size_t& e) {
  const std::size_t lanes = loop.lanes;
  for (;;) {
    bool saw_work = false;
    for (std::size_t d = 1; d < lanes; ++d) {
      const std::size_t v = (lane + d) % lanes;
      std::atomic<std::uint64_t>& slot = loop.slots[v];
      std::uint64_t cur = slot.load(std::memory_order_acquire);
      for (;;) {
        const std::size_t lo = unpack_lo(cur);
        const std::size_t hi = unpack_hi(cur);
        if (lo >= hi) break;
        saw_work = true;
        // Steal the upper half; the victim keeps popping its lower half
        // undisturbed. ABA is structurally impossible: a packed (lo, hi)
        // value can only exist while [lo, hi) is unclaimed, and claimed
        // indices never re-enter any slot.
        const std::size_t mid = lo + (hi - lo + 1) / 2;
        if (slot.compare_exchange_weak(cur, pack(lo, mid),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
          const std::size_t take = std::min(loop.grain, hi - mid);
          if (hi - mid > take) {
            // Park the surplus in our own (empty) slot for later pops —
            // and for other thieves.
            loop.slots[lane].store(pack(mid + take, hi),
                                   std::memory_order_release);
          }
          b = mid;
          e = mid + take;
          return true;
        }
      }
    }
    if (!saw_work) return false;  // a full scan found every slot empty
  }
}

}  // namespace drim

// Torture tests for the persistent work-stealing executor behind
// drim::parallel_for: exactly-once index execution under stealing, nested
// loops, exception short-circuiting (including mid-steal), thread-cap
// semantics, and bit-identical fixed-order merges across repeated runs at
// several thread counts. This file is also built into the tsan-labeled
// drim_executor_tsan binary so `ctest -L tsan` races the pool under
// ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.hpp"
#include "common/parallel.hpp"
#include "core/flat_search.hpp"
#include "data/synthetic.hpp"

namespace drim {
namespace {

struct CapGuard {
  explicit CapGuard(int n) : saved(num_threads()) { set_num_threads(n); }
  ~CapGuard() { set_num_threads(saved); }
  int saved;
};

int hw_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

TEST(Executor, ExactlyOncePerIndexAcrossCaps) {
  const int hw = hw_threads();
  for (const int cap : {1, 2, 4, hw, hw + 3}) {
    CapGuard guard(cap);
    const std::size_t n = 10'000;
    std::vector<std::atomic<std::uint32_t>> hits(n);
    Executor::instance().parallel_for(0, n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "index " << i << " at cap " << cap;
    }
  }
}

TEST(Executor, UnevenWorkStillExactlyOnce) {
  // Skewed per-index cost forces lanes dry at very different times, so the
  // range is claimed through steals as well as owner pops.
  CapGuard guard(4);
  const std::size_t n = 1 << 14;
  std::vector<std::atomic<std::uint32_t>> hits(n);
  std::atomic<std::uint64_t> sink{0};
  Executor::instance().parallel_for(0, n, [&](std::size_t i) {
    std::uint64_t burn = 0;
    for (std::size_t r = 0; r < (i % 37) * 8; ++r) burn += r * i;
    sink.fetch_add(burn, std::memory_order_relaxed);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1u);
}

TEST(Executor, NestedParallelForRunsInline) {
  CapGuard guard(4);
  std::atomic<std::size_t> count{0};
  parallel_for(0, 8, [&](std::size_t) {
    parallel_for(0, 64, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(count.load(), 8u * 64u);
}

TEST(Executor, ExceptionRethrownAndShortCircuits) {
  CapGuard guard(4);
  const std::size_t n = 1 << 16;
  std::atomic<std::size_t> executed{0};
  std::atomic<bool> thrown{false};
  EXPECT_THROW(
      {
        Executor::instance().parallel_for(0, n, [&](std::size_t i) {
          // Index 0 is the front of the caller's own block, so it runs
          // before the caller touches anything else; every other index
          // parks until the throw has happened and then burns a
          // millisecond, so the caller's catch sets the abort flag ages
          // before any lane could chew through a meaningful slice of the
          // range. The abort short-circuit is best-effort (a relaxed
          // flag), so the bound is generous, not exact.
          if (i == 0) {
            thrown.store(true, std::memory_order_release);
            throw std::runtime_error("boom");
          }
          while (!thrown.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          executed.fetch_add(1, std::memory_order_relaxed);
        });
      },
      std::runtime_error);
  EXPECT_LT(executed.load(), n / 2);

  // The pool is healthy after an aborted loop.
  std::atomic<std::size_t> after{0};
  Executor::instance().parallel_for(0, 1000, [&](std::size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 1000u);
}

TEST(Executor, ExceptionMidStealWithUnevenWork) {
  // The thrower sits at the end of the last lane's block, after skewed costs
  // have already triggered stealing; the first exception must still win and
  // the loop must still drain cleanly.
  CapGuard guard(4);
  const std::size_t n = 1 << 13;
  std::atomic<std::size_t> executed{0};
  std::atomic<std::uint64_t> sink{0};
  EXPECT_THROW(
      {
        Executor::instance().parallel_for(0, n, [&](std::size_t i) {
          executed.fetch_add(1, std::memory_order_relaxed);
          std::uint64_t burn = 0;
          for (std::size_t r = 0; r < (i % 53) * 4; ++r) burn += r;
          sink.fetch_add(burn, std::memory_order_relaxed);
          if (i + 1 == n) throw std::runtime_error("mid-steal");
        });
      },
      std::runtime_error);
  EXPECT_LE(executed.load(), n);
}

TEST(Executor, SerialInlineExceptionIsImmediate) {
  CapGuard guard(1);
  std::size_t executed = 0;
  EXPECT_THROW(
      {
        parallel_for(0, 1000, [&](std::size_t i) {
          ++executed;
          if (i == 5) throw std::runtime_error("stop");
        });
      },
      std::runtime_error);
  EXPECT_EQ(executed, 6u);
}

TEST(Executor, ConcurrentTopLevelLoopsSerialize) {
  CapGuard guard(4);
  std::atomic<std::size_t> total{0};
  auto run = [&] {
    Executor::instance().parallel_for(0, 5000, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  };
  std::thread a(run), b(run);
  run();
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 3u * 5000u);
}

TEST(Executor, CapAboveHardwareGrowsPool) {
  const int want = hw_threads() + 3;
  CapGuard guard(want);
  EXPECT_EQ(Executor::instance().effective_parallelism(), want);
  std::atomic<std::size_t> count{0};
  Executor::instance().parallel_for(0, 10'000, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 10'000u);
  // lanes = want, pool participants = lanes - 1 (caller is lane 0).
  EXPECT_GE(Executor::instance().pool_size(),
            static_cast<std::size_t>(want - 1));
}

TEST(Executor, BackToBackTinyLoopsWithLateWorkers) {
  // Loops far shorter than a worker's wake-up: the caller often drains one
  // alone and closes check-in, so a worker woken for it arrives late, skips
  // it and joins a later loop instead. Every index of every loop must still
  // run exactly once, and no loop may return while a checked-in worker is
  // still inside it (TSan flags the stack frame reuse if one does).
  CapGuard guard(4);
  constexpr std::size_t kLoops = 1'000;
  constexpr std::size_t kN = 8;
  std::vector<std::atomic<std::uint32_t>> hits(kLoops * kN);
  for (std::size_t l = 0; l < kLoops; ++l) {
    std::uint32_t local[kN] = {};
    Executor::instance().parallel_for(0, kN, [&](std::size_t i) {
      local[i] = 1;
      hits[l * kN + i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(local[i], 1u);
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << "loop " << i / kN << " index " << i % kN;
  }
}

// ---- set_num_threads is the executor's one cap ----

TEST(ParallelFor, SetNumThreadsCapsTheExecutor) {
  CapGuard guard(3);
  EXPECT_EQ(num_threads(), 3);
  EXPECT_EQ(Executor::instance().effective_parallelism(), 3);
}

TEST(ParallelFor, ThreadCapAboveTheBoundThrowsAndKeepsTheCap) {
  // A rejected cap is never stored, so no loop grows the pool to it: this
  // test starts no threads.
  CapGuard guard(3);
  try {
    set_num_threads(1 << 20);
    FAIL() << "expected set_num_threads(1 << 20) to throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1048576"), std::string::npos) << what;
    EXPECT_NE(what.find("bound"), std::string::npos) << what;
  }
  EXPECT_EQ(num_threads(), 3);
}

// ---- determinism of fixed-order merges ----

TEST(Executor, FixedOrderMergesDeterministicAcrossRunsAndCaps) {
  SyntheticSpec spec;
  spec.num_base = 3000;
  spec.num_queries = 12;
  spec.num_learn = 100;
  spec.dim = 32;
  spec.num_components = 16;
  const SyntheticData data = make_sift_like(spec);

  const auto reference = flat_search_all(data.base, data.queries, 10);
  const int hw = hw_threads();
  for (const int cap : {1, 4, hw}) {
    CapGuard guard(cap);
    for (int run = 0; run < 10; ++run) {
      const auto got = flat_search_all(data.base, data.queries, 10);
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t q = 0; q < got.size(); ++q) {
        ASSERT_EQ(got[q].size(), reference[q].size());
        for (std::size_t i = 0; i < got[q].size(); ++i) {
          ASSERT_EQ(got[q][i].id, reference[q][i].id);
          ASSERT_EQ(got[q][i].dist, reference[q][i].dist);
        }
      }
    }
  }
}

}  // namespace
}  // namespace drim

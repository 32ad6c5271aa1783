// parallel_index over the shared ThreadPool: every index runs exactly
// once, and the call stays deadlock-free when tasks running *on* pool
// workers nest it on the same pool — the shape Campaign::run produces
// (each VP's rounds fan their sites out inside the per-VP fork/join).

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <vector>

#include "core/thread_pool.h"

namespace v6mon::core {
namespace {

TEST(ParallelIndex, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_index(pool, kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1) << "index " << i;
  }
}

// Fill every pool worker with tasks that each nest a parallel_index on
// the same pool. A design that waits for a fixed set of submitted helpers
// blocks forever here (every worker waits for helpers that can never
// start); with caller participation each nested call drains its own
// indices inline.
TEST(ParallelIndex, NestedOnSaturatedPoolCompletes) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  constexpr std::size_t kOuter = 16;  // 4x oversubscribed
  constexpr std::size_t kInner = 64;
  parallel_index(pool, kOuter, [&](std::size_t) {
    parallel_index(pool, kInner, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), kOuter * kInner);
}

}  // namespace
}  // namespace v6mon::core

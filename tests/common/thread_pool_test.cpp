#include "common/thread_pool.h"

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"

namespace shiraz::common {
namespace {

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), InvalidArgument);
}

TEST(ThreadPool, ReportsWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
}

TEST(ThreadPool, SubmitReturnsTaskValue) {
  ThreadPool pool(2);
  std::future<int> f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, TaskExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  std::future<void> f =
      pool.submit([]() -> void { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, RunsManyMoreTasksThanWorkers) {
  ThreadPool pool(2);
  constexpr int kTasks = 200;
  std::atomic<int> done{0};
  std::vector<std::future<int>> futures;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit([i, &done] {
      done.fetch_add(1, std::memory_order_relaxed);
      return i * i;
    }));
  }
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(futures[i].get(), i * i);
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPool, TasksCanSubmitNestedTasks) {
  // A task enqueues a follow-up without blocking on it; both futures must
  // complete even on a single-worker pool (the worker drains the queue).
  ThreadPool pool(1);
  std::future<int> inner_value;
  std::future<void> outer = pool.submit([&pool, &inner_value] {
    inner_value = pool.submit([] { return 7; });
  });
  outer.get();
  EXPECT_EQ(inner_value.get(), 7);
}

TEST(ThreadPool, DestructorDrainsQueuedTasksAndJoins) {
  std::atomic<int> done{0};
  constexpr int kTasks = 64;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      (void)pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor runs here with most tasks still queued.
  }
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ParallelForIndexed, ZeroTasksIsANoOp) {
  ThreadPool pool(2);
  EXPECT_NO_THROW(
      parallel_for_indexed(pool, 0, [](std::size_t) { FAIL() << "called"; }));
}

TEST(ParallelForIndexed, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 100;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for_indexed(pool, kN, [&visits](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelForIndexed, RethrowsAfterAllTasksComplete) {
  // The rethrown exception must not race ahead of still-running tasks that
  // capture the same locals: every index is visited even when some throw.
  ThreadPool pool(4);
  constexpr std::size_t kN = 32;
  std::atomic<int> visited{0};
  EXPECT_THROW(parallel_for_indexed(pool, kN,
                                    [&visited](std::size_t i) {
                                      visited.fetch_add(
                                          1, std::memory_order_relaxed);
                                      if (i % 7 == 3)
                                        throw std::runtime_error("task failed");
                                    }),
               std::runtime_error);
  EXPECT_EQ(visited.load(), static_cast<int>(kN));
}

/// Runs parallel_for_indexed over n indices, the ones in `throwing` throwing
/// a message that names their index; returns the rethrown message ("" when
/// nothing was rethrown) and checks that every index ran exactly once.
std::string lowest_failure(ThreadPool& pool, std::size_t n,
                           const std::vector<std::size_t>& throwing) {
  std::vector<std::atomic<int>> visits(n);
  std::string message;
  try {
    parallel_for_indexed(pool, n, [&](std::size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
      for (const std::size_t t : throwing) {
        if (i == t) throw std::runtime_error("index " + std::to_string(i));
      }
    });
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
  return message;
}

TEST(ParallelForIndexed, RethrowsTheLowestIndexException) {
  // One task per worker pulls indices off a shared counter, so which worker
  // meets which failure varies run to run; the rethrown one must not.
  ThreadPool pool(4);
  EXPECT_EQ(lowest_failure(pool, 64, {40, 17, 5}), "index 5");
  // Fewer indices than workers: one task per index.
  EXPECT_EQ(lowest_failure(pool, 3, {2, 1}), "index 1");
  EXPECT_EQ(lowest_failure(pool, 3, {}), "");
}

}  // namespace
}  // namespace shiraz::common

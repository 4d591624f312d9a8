// Fixed-size worker pool for embarrassingly parallel campaign work.
//
// The simulator's Monte-Carlo loops fork one independent RNG stream per
// repetition, so repetitions can run on any worker in any order and still
// produce bit-identical output as long as results are merged in repetition
// order — parallel_for_indexed writes fn(i) results into caller-owned slots,
// which keeps that property trivial.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/error.h"

namespace shiraz::common {

/// Fixed set of worker threads draining one task queue. submit() returns a
/// std::future carrying the task's result or exception; the destructor drains
/// the queue and joins every worker (RAII — no detached threads). Tasks may
/// submit further tasks, but must not block on a future of a task queued
/// behind them (the classic pool self-deadlock).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Enqueues `fn` and returns its future. An exception thrown by `fn` is
  /// captured and rethrown from future::get() in the caller.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using R = std::invoke_result_t<std::decay_t<Fn>>;
    // shared_ptr keeps the queue entry copyable, as std::function requires.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      SHIRAZ_REQUIRE(!stopping_, "submit on a stopping ThreadPool");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Borrows `external` when non-null, otherwise owns a freshly spawned pool of
/// `workers` threads. Lets sweep hot paths hoist thread construction out of
/// per-candidate loops: the caller spawns one pool and every campaign in the
/// sweep borrows it, instead of each campaign spawning (and joining) its own.
class PoolHandle {
 public:
  PoolHandle(ThreadPool* external, std::size_t workers) : external_(external) {
    if (external_ == nullptr) owned_.emplace(workers);
  }

  ThreadPool& get() { return external_ != nullptr ? *external_ : *owned_; }

 private:
  ThreadPool* external_;
  std::optional<ThreadPool> owned_;
};

/// Runs fn(0) .. fn(n-1) on the pool and blocks until all have finished.
/// Submits one task per worker (min(n, worker_count()) in all), each pulling
/// indices from a shared counter until n, so a campaign pays one queue
/// round-trip per worker rather than per index. Every index runs even when
/// some throw; the lowest index's exception is rethrown after every task has
/// finished (so captured references stay valid for still-running tasks).
/// Should a submit itself throw, the tasks already queued finish before it
/// propagates. n == 0 is a no-op.
template <typename Fn>
void parallel_for_indexed(ThreadPool& pool, std::size_t n, Fn&& fn) {
  // A task pulls its indices in increasing order, so the first exception it
  // catches is its lowest; the lowest over all tasks is the lowest overall.
  struct Failure {
    std::size_t index = 0;
    std::exception_ptr error;
  };
  const std::size_t tasks = std::min(n, pool.worker_count());
  std::atomic<std::size_t> next{0};
  std::vector<Failure> failures(tasks);
  auto drain = [&fn, &next, n](Failure& failure) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        if (!failure.error) failure = {i, std::current_exception()};
      }
    }
  };
  std::vector<std::future<void>> futures;
  futures.reserve(tasks);
  auto wait_all = [&futures] {
    for (std::future<void>& f : futures) f.wait();
  };
  try {
    for (Failure& failure : failures) {
      futures.push_back(pool.submit([&drain, &failure] { drain(failure); }));
    }
  } catch (...) {
    wait_all();
    throw;
  }
  wait_all();
  const Failure* first = nullptr;
  for (const Failure& failure : failures) {
    if (failure.error && (first == nullptr || failure.index < first->index)) {
      first = &failure;
    }
  }
  if (first != nullptr) std::rethrow_exception(first->error);
}

}  // namespace shiraz::common

// The worker pool underneath SB's parallel reverse top-1 fan-out
// (common/thread_pool.h): every submitted task runs exactly once, the
// destructor drains the queue, and ParallelFor covers its range once,
// waits only on its own chunks and runs nested calls inline. Part of
// the TSan CI matrix; CI repeats the *Parallel* cases there.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <thread>
#include <vector>

#include "fairmatch/common/thread_pool.h"

namespace fairmatch {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // ~ThreadPool joins after the queue drains
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, DestructorDrainsTheQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // ~ThreadPool joins after the queue drains
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ConcurrentSubmitters) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    // Destroyed first: every submitter has finished submitting before
    // the pool drains and joins.
    ThreadPool submitters(4);
    for (int s = 0; s < 4; ++s) {
      submitters.Submit([&pool, &counter] {
        for (int i = 0; i < 25; ++i) {
          pool.Submit([&counter] { counter.fetch_add(1); });
        }
      });
    }
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexOnce) {
  ThreadPool pool(3);
  // Sizes below, at and above the one-chunk-per-thread fan-out bound
  // (grain 7 x 4 threads), including a ragged last chunk; repeated so
  // helper tasks of a finished call start while the next call runs.
  for (int round = 0; round < 20; ++round) {
    for (const size_t n : {size_t{0}, size_t{5}, size_t{28}, size_t{1001}}) {
      std::vector<std::atomic<int>> runs(n);
      pool.ParallelFor(n, 7, [&runs](size_t i) { runs[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(runs[i].load(), 1) << "n=" << n << " index " << i;
      }
    }
  }
  // Too few indexes for one chunk per thread: inline, on the caller.
  const std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(27, 7, [caller](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, ParallelForCallersDoNotBlockEachOther) {
  // Caller A's first index parks until caller B's whole ParallelFor has
  // returned. A pool-wide completion wait in B would wait for A's
  // parked chunk and stall until A gave up.
  ThreadPool pool(2);
  std::promise<void> a_parked;
  std::promise<void> b_returned;
  std::shared_future<void> b_done = b_returned.get_future().share();
  std::atomic<bool> a_gave_up{false};
  std::atomic<int> a_runs{0};
  std::thread a([&] {
    pool.ParallelFor(12, 1, [&](size_t i) {
      if (i == 0) {
        a_parked.set_value();
        if (b_done.wait_for(std::chrono::seconds(30)) !=
            std::future_status::ready) {
          a_gave_up = true;
        }
      }
      a_runs.fetch_add(1);
    });
  });
  a_parked.get_future().wait();
  std::atomic<int> b_runs{0};
  pool.ParallelFor(12, 1, [&b_runs](size_t) { b_runs.fetch_add(1); });
  b_returned.set_value();
  a.join();
  EXPECT_FALSE(a_gave_up.load());
  EXPECT_EQ(a_runs.load(), 12);
  EXPECT_EQ(b_runs.load(), 12);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  // Every worker may be busy in the outer loop when an inner call is
  // made; an inner call made on a worker runs on that worker.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> inner_runs{0};
  std::atomic<int> worker_escapes{0};
  pool.ParallelFor(24, 1, [&](size_t) {
    const std::thread::id outer = std::this_thread::get_id();
    const bool on_worker = outer != caller;
    pool.ParallelFor(16, 1, [&](size_t) {
      inner_runs.fetch_add(1);
      if (on_worker && std::this_thread::get_id() != outer) {
        worker_escapes.fetch_add(1);
      }
    });
  });
  EXPECT_EQ(inner_runs.load(), 24 * 16);
  EXPECT_EQ(worker_escapes.load(), 0);
}

}  // namespace
}  // namespace fairmatch

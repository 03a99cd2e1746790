// The worker pool underneath SB's parallel reverse top-1 fan-out
// (common/thread_pool.h): every submitted task runs exactly once, the
// destructor drains the queue, and ParallelFor and its split form
// (StartParallelFor, then Job::Finish) cover their range once, wait only
// on their own chunks and run nested forks inline. Part of the TSan CI
// matrix; CI repeats the *Parallel* cases there.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
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

// Parks every worker of `pool` until the returned promise is set, and
// returns once all of them are parked.
std::promise<void> ParkWorkers(ThreadPool* pool) {
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> parked{0};
  for (int w = 0; w < pool->size(); ++w) {
    pool->Submit([released, &parked] {
      parked.fetch_add(1);
      released.wait();
    });
  }
  while (parked.load() < pool->size()) std::this_thread::yield();
  return release;
}

TEST(ThreadPoolTest, ParallelJobRunsEveryIndexOnceWhenCallerFinishesFirst) {
  // Every worker is parked, so the caller's Finish() claims every chunk;
  // the helper tasks start afterwards and find nothing left to run.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  for (const size_t n : {size_t{1}, size_t{7}, size_t{30}, size_t{1001}}) {
    std::promise<void> release = ParkWorkers(&pool);
    std::vector<std::atomic<int>> runs(n);
    std::atomic<int> off_caller{0};
    ThreadPool::Job job = pool.StartParallelFor(n, 7, [&](size_t i) {
      runs[i].fetch_add(1);
      if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
    });
    job.Finish();
    release.set_value();
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(runs[i].load(), 1) << "n=" << n << " index " << i;
    }
    EXPECT_EQ(off_caller.load(), 0) << "n=" << n;
  }
}

TEST(ThreadPoolTest, ParallelJobRunsEveryIndexOnceWhenHelpersRunFirst) {
  // The helpers run the whole range before the caller finishes; Finish()
  // then only joins. Even a single chunk goes to a helper: the caller is
  // busy elsewhere until it finishes.
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  for (const size_t n : {size_t{1}, size_t{5}, size_t{28}, size_t{1001}}) {
    std::vector<std::atomic<int>> runs(n);
    std::atomic<size_t> ran{0};
    std::atomic<int> on_caller{0};
    ThreadPool::Job job = pool.StartParallelFor(n, 7, [&](size_t i) {
      runs[i].fetch_add(1);
      if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
      ran.fetch_add(1);
    });
    while (ran.load() < n) std::this_thread::yield();
    job.Finish();
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(runs[i].load(), 1) << "n=" << n << " index " << i;
    }
    EXPECT_EQ(on_caller.load(), 0) << "n=" << n;
  }
}

TEST(ThreadPoolTest, ParallelJobRacesItsHelpers) {
  // The caller finishes while the helpers are starting: each index still
  // runs exactly once, and an empty job or an empty handle finishes at
  // once.
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    for (const size_t n : {size_t{0}, size_t{3}, size_t{64}, size_t{500}}) {
      std::vector<std::atomic<int>> runs(n);
      ThreadPool::Job job = pool.StartParallelFor(
          n, 4, [&runs](size_t i) { runs[i].fetch_add(1); });
      job.Finish();
      job.Finish();  // a finished job is empty
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(runs[i].load(), 1) << "n=" << n << " index " << i;
      }
    }
  }
  ThreadPool::Job empty;
  empty.Finish();
}

TEST(ThreadPoolTest, ParallelJobCompletesWhileHelpersServeAnotherCaller) {
  // Caller A's ParallelFor holds the one worker (and A itself) in chunks
  // that park until B is done. B's started job then completes on B
  // alone; its helper task runs after A's chunks and finds nothing.
  ThreadPool pool(1);
  std::promise<void> b_finished;
  std::shared_future<void> b_done = b_finished.get_future().share();
  std::atomic<int> a_inside{0};
  std::atomic<bool> a_gave_up{false};
  std::thread a([&] {
    pool.ParallelFor(2, 1, [&](size_t) {
      a_inside.fetch_add(1);
      if (b_done.wait_for(std::chrono::seconds(30)) !=
          std::future_status::ready) {
        a_gave_up = true;
      }
    });
  });
  while (a_inside.load() < 2) std::this_thread::yield();
  const std::thread::id b = std::this_thread::get_id();
  std::vector<std::atomic<int>> runs(40);
  std::atomic<int> off_b{0};
  ThreadPool::Job job = pool.StartParallelFor(40, 4, [&](size_t i) {
    runs[i].fetch_add(1);
    if (std::this_thread::get_id() != b) off_b.fetch_add(1);
  });
  job.Finish();
  b_finished.set_value();
  a.join();
  EXPECT_FALSE(a_gave_up.load());
  for (size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(runs[i].load(), 1);
  EXPECT_EQ(off_b.load(), 0);
}

TEST(ThreadPoolTest, ParallelJobStartedInsideWorkerRunsInlineAtFinish) {
  // A start from inside a worker hands nothing to the pool: no index runs
  // before Finish(), and Finish() runs them all on that worker, in order.
  ThreadPool pool(2);
  std::atomic<int> failures{0};
  std::promise<void> done;
  pool.Submit([&] {
    const std::thread::id worker = std::this_thread::get_id();
    std::vector<size_t> order;
    bool wrong_thread = false;
    ThreadPool::Job job = pool.StartParallelFor(50, 1, [&](size_t i) {
      order.push_back(i);
      wrong_thread |= std::this_thread::get_id() != worker;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (!order.empty()) failures.fetch_add(1);
    job.Finish();
    if (wrong_thread || order.size() != 50) failures.fetch_add(1);
    for (size_t i = 0; i < order.size(); ++i) {
      if (order[i] != i) failures.fetch_add(1);
    }
    done.set_value();
  });
  done.get_future().wait();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ThreadPoolTest, ParallelJobOwnsItsBodyAndFinishesOnDestruction) {
  // The body is moved into the job: it outlives the caller's copy, and a
  // job that goes out of scope unfinished is finished by its destructor,
  // which also releases the body's captures on the joining thread.
  ThreadPool pool(2);
  auto token = std::make_shared<int>(0);
  std::atomic<int> runs{0};
  {
    std::function<void(size_t)> body = [token, &runs](size_t) {
      runs.fetch_add(1);
    };
    ThreadPool::Job job = pool.StartParallelFor(100, 3, std::move(body));
    ThreadPool::Job moved = std::move(job);
    job.Finish();  // moved-from: empty
  }
  EXPECT_EQ(runs.load(), 100);
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace fairmatch

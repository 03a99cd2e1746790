// A small fixed-size worker pool for fork-join loops.
//
// N long-lived threads drain one FIFO task queue. It is deliberately
// minimal — no futures, no priorities, no work stealing. Its one
// consumer is ParallelFor, which splits one index range into chunks
// that the calling thread and any idle workers claim from a shared
// cursor (SB's per-loop reverse top-1 searches run this way over the
// process-wide Shared() pool). Concurrent execution of whole requests
// is the serving core's job (serve/server.h), on its own lane threads.
//
// Thread safety: Submit() and ParallelFor() may be called from any
// thread, including concurrently. ParallelFor() waits only for its own
// chunks, so concurrent callers do not block on each other; a
// ParallelFor() from inside any pool's worker runs inline. The
// destructor drains the queue before joining the workers.
#ifndef FAIRMATCH_COMMON_THREAD_POOL_H_
#define FAIRMATCH_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "fairmatch/common/check.h"

namespace fairmatch {

/// Fixed pool of worker threads over a FIFO task queue.
class ThreadPool {
 public:
  /// Starts `threads` workers (at least 1).
  explicit ThreadPool(int threads) {
    FAIRMATCH_CHECK(threads >= 1);
    workers_.reserve(static_cast<size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  /// Waits for all submitted tasks, then joins the workers.
  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide helper pool: a ParallelFor caller plus its
  /// helpers use half the cores (at least 2 threads). A fork-join waits
  /// at every join for its slowest thread, so filling every core lets
  /// any other work on the machine stall each join. On a shared 4-vCPU
  /// VM, where the host also preempts vCPUs, SB's run-to-run throughput
  /// spread (interquartile range) with every core was four times that
  /// with half of them. Created on first use and never destroyed (idle
  /// workers park on a condition variable). Null on a single-core
  /// machine, where there is nothing to fan out to.
  static ThreadPool* Shared() {
    static ThreadPool* const pool = []() -> ThreadPool* {
      const unsigned cores = std::thread::hardware_concurrency();
      const unsigned threads = std::max(2u, cores / 2);
      return cores > 1 ? new ThreadPool(static_cast<int>(threads - 1))
                       : nullptr;
    }();
    return pool;
  }

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task. Tasks run in submission order but complete in
  /// any order once more than one worker exists.
  void Submit(std::function<void()> task) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      FAIRMATCH_CHECK(!stopping_);
      queue_.push_back(std::move(task));
    }
    work_cv_.notify_one();
  }

  /// Runs fn(i) exactly once for every i in [0, n) and returns when all
  /// calls have finished. The range is cut into chunks of `grain`
  /// consecutive indexes; the calling thread and up to size() workers
  /// claim chunks from a shared cursor, so the caller never waits for a
  /// chunk nobody has started. Runs inline (in index order, on the
  /// calling thread) when the range holds fewer than one chunk per
  /// thread, or when called from inside a pool worker.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t)>& fn) {
    FAIRMATCH_CHECK(grain >= 1);
    const size_t threads = workers_.size() + 1;
    if (n < grain * threads || in_worker_) {
      for (size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    // Shared-owned: a helper task that starts after this call returned
    // finds every chunk claimed and touches nothing but this object.
    auto job = std::make_shared<ForJob>();
    job->n = n;
    job->grain = grain;
    job->chunks = (n + grain - 1) / grain;
    job->fn = &fn;
    const size_t helpers = std::min(workers_.size(), job->chunks - 1);
    for (size_t h = 0; h < helpers; ++h) {
      Submit([job] { RunChunks(job.get()); });
    }
    RunChunks(job.get());
    std::unique_lock<std::mutex> lock(job->mu);
    job->done_cv.wait(lock, [&] { return job->done == job->chunks; });
  }

 private:
  /// One ParallelFor call's shared state.
  struct ForJob {
    size_t n = 0;
    size_t grain = 0;
    size_t chunks = 0;
    // The caller's body; dereferenced only after claiming a chunk,
    // which is possible only while the caller is still waiting.
    const std::function<void(size_t)>* fn = nullptr;
    std::atomic<size_t> next{0};  // next unclaimed chunk
    std::mutex mu;
    std::condition_variable done_cv;
    size_t done = 0;  // finished chunks, guarded by mu
  };

  static void RunChunks(ForJob* job) {
    size_t finished = 0;
    for (size_t c = job->next++; c < job->chunks; c = job->next++) {
      const size_t end = std::min(job->n, (c + 1) * job->grain);
      for (size_t i = c * job->grain; i < end; ++i) (*job->fn)(i);
      ++finished;
    }
    if (finished == 0) return;
    std::unique_lock<std::mutex> lock(job->mu);
    job->done += finished;
    if (job->done == job->chunks) job->done_cv.notify_all();
  }

  void WorkerLoop() {
    in_worker_ = true;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ with a drained queue
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  // Set on every pool's worker threads: nested ParallelFor runs inline.
  static inline thread_local bool in_worker_ = false;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_COMMON_THREAD_POOL_H_

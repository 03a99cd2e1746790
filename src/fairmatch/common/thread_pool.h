// A small fixed-size worker pool for fork-join loops.
//
// N long-lived threads drain one FIFO task queue. It is deliberately
// minimal — no futures, no priorities, no work stealing. Its consumers
// are fork-joins over one index range, cut into chunks that the calling
// thread and any idle workers claim from a shared cursor. ParallelFor
// forks and joins in one call; StartParallelFor forks and returns a Job
// whose Finish() joins, so the caller can do other work while the
// helpers run. SB runs its per-loop reverse top-1 searches both ways
// over the process-wide Shared() pool. Concurrent execution of whole
// requests is the serving core's job (serve/server.h), on its own lane
// threads.
//
// Thread safety: Submit(), ParallelFor() and StartParallelFor() may be
// called from any thread, including concurrently. A join waits only for
// its own chunks, so concurrent callers do not block on each other; a
// fork from inside any pool's worker starts no helper and runs inline.
// The destructor drains the queue before joining the workers.
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
  struct ForJob;  // one fork-join's shared state

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
    if (n < grain * (workers_.size() + 1) || in_worker_) {
      for (size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    StartParallelFor(n, grain, fn).Finish();
  }

  /// A fork-join started by StartParallelFor. Finish() runs the chunks
  /// no helper has claimed on the calling thread, then waits for the
  /// helpers' chunks. An empty (default, moved-from or finished) Job
  /// finishes at once; destroying or assigning over an unfinished Job
  /// finishes it first.
  class Job {
   public:
    Job() = default;
    Job(Job&&) noexcept = default;
    Job& operator=(Job&& other) noexcept {
      Finish();
      job_ = std::move(other.job_);
      return *this;
    }
    ~Job() { Finish(); }

    void Finish() {
      if (job_ == nullptr) return;
      ForJob* const job = job_.get();
      RunChunks(job);
      {
        std::unique_lock<std::mutex> lock(job->mu);
        job->done_cv.wait(lock, [job] { return job->done == job->chunks; });
      }
      // Every chunk is claimed, so no helper calls the body again: it
      // and its captures die here, on the joining thread.
      job->fn = nullptr;
      job_.reset();
    }

   private:
    friend class ThreadPool;
    explicit Job(std::shared_ptr<ForJob> job) : job_(std::move(job)) {}

    std::shared_ptr<ForJob> job_;
  };

  /// The fork half of ParallelFor: hands fn(i) for every i in [0, n)
  /// to up to size() helpers (one per chunk of `grain` indexes) and
  /// returns at once; the Job's Finish() is the join. The body runs
  /// concurrently with whatever the caller does until then. Started
  /// from inside a pool worker, it submits no helper, and Finish() runs
  /// every index inline, in index order.
  Job StartParallelFor(size_t n, size_t grain,
                       std::function<void(size_t)> fn) {
    FAIRMATCH_CHECK(grain >= 1);
    // Shared-owned: a helper task that starts after the join finds every
    // chunk claimed and touches nothing but this object.
    auto job = std::make_shared<ForJob>();
    job->n = n;
    job->grain = grain;
    job->chunks = (n + grain - 1) / grain;
    job->fn = std::move(fn);
    const size_t helpers =
        in_worker_ ? 0 : std::min(workers_.size(), job->chunks);
    for (size_t h = 0; h < helpers; ++h) {
      Submit([job] { RunChunks(job.get()); });
    }
    return Job(std::move(job));
  }

 private:
  /// One fork-join's shared state.
  struct ForJob {
    size_t n = 0;
    size_t grain = 0;
    size_t chunks = 0;
    // The body; called only after claiming a chunk, which is possible
    // only until the join has claimed the rest.
    std::function<void(size_t)> fn;
    std::atomic<size_t> next{0};  // next unclaimed chunk
    std::mutex mu;
    std::condition_variable done_cv;
    size_t done = 0;  // finished chunks, guarded by mu
  };

  static void RunChunks(ForJob* job) {
    size_t finished = 0;
    for (size_t c = job->next++; c < job->chunks; c = job->next++) {
      const size_t end = std::min(job->n, (c + 1) * job->grain);
      for (size_t i = c * job->grain; i < end; ++i) job->fn(i);
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

  // Set on every pool's worker threads: a nested fork runs inline.
  static inline thread_local bool in_worker_ = false;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_COMMON_THREAD_POOL_H_

// The batch execution layer's headline guarantee: running a batch at
// T worker lanes changes NOTHING about any item's output. Per-item
// matchings (compared through an order-sensitive FNV-1a hash of the
// assignment sequence) and per-item deterministic counters (io_accesses,
// pairs, loops) must be byte-identical at threads = 1, 2 and 8, and
// identical to a direct single-run of the same instance. Also covered:
// submission-order results, lane/total stats consistency, and the
// ThreadPool underneath. This suite is part of the TSan CI matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fairmatch/common/thread_pool.h"
#include "fairmatch/engine/batch_runner.h"
#include "test_util.h"

namespace fairmatch {
namespace {

using fairmatch::testing::MemTree;
using fairmatch::testing::ProblemSpec;
using fairmatch::testing::RandomProblem;

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t MatchingHash(const Matching& m) {
  uint64_t h = 1469598103934665603ull;
  for (const MatchPair& p : m) {
    h = Fnv1a(h, static_cast<uint64_t>(p.fid));
    h = Fnv1a(h, static_cast<uint64_t>(p.oid));
  }
  return h;
}

/// The per-item numbers that must not depend on the thread count.
struct ItemFingerprint {
  uint64_t matching_hash;
  int64_t io_accesses;
  uint64_t pairs;
  int64_t loops;

  bool operator==(const ItemFingerprint& other) const {
    return matching_hash == other.matching_hash &&
           io_accesses == other.io_accesses && pairs == other.pairs &&
           loops == other.loops;
  }
};

ItemFingerprint Fingerprint(const AssignResult& result) {
  return ItemFingerprint{MatchingHash(result.matching),
                         result.stats.io_accesses, result.stats.pairs,
                         result.stats.loops};
}

BatchProblemSpec SmallSpec(uint64_t base_seed) {
  BatchProblemSpec spec;
  spec.num_functions = 30;
  spec.num_objects = 250;
  spec.dims = 3;
  spec.distribution = Distribution::kAntiCorrelated;
  spec.base_seed = base_seed;
  return spec;
}

// --- the headline determinism guarantee ------------------------------

struct BatchCase {
  const char* matcher;
  bool disk_resident_functions;
};

class BatchDeterminismTest : public ::testing::TestWithParam<BatchCase> {};

TEST_P(BatchDeterminismTest, IdenticalResultsAtOneTwoAndEightThreads) {
  const BatchCase& param = GetParam();
  BatchProblemSpec spec = SmallSpec(31000);
  spec.disk_resident_functions = param.disk_resident_functions;
  spec.max_gamma = 3;  // priorities on, to exercise the richer paths
  const int kCount = 12;

  // The single-run oracle: each instance executed directly, no batch.
  std::vector<ItemFingerprint> direct;
  for (int i = 0; i < kCount; ++i) {
    direct.push_back(Fingerprint(
        RunGeneratedInstance(param.matcher, spec, static_cast<size_t>(i))));
  }

  for (const int threads : {1, 2, 8}) {
    BatchRunner runner(threads);
    const BatchResult result =
        runner.RunGenerated(param.matcher, spec, kCount);
    ASSERT_EQ(result.items.size(), static_cast<size_t>(kCount)) << threads;
    EXPECT_EQ(result.stats.threads, threads);
    for (int i = 0; i < kCount; ++i) {
      EXPECT_TRUE(Fingerprint(result.items[i]) == direct[i])
          << param.matcher << " item " << i << " at threads=" << threads
          << " diverged from the direct run";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matchers, BatchDeterminismTest,
    ::testing::Values(BatchCase{"SB", false}, BatchCase{"BruteForce", false},
                      BatchCase{"Chain", false}, BatchCase{"SB", true},
                      BatchCase{"SB-alt", true}),
    [](const ::testing::TestParamInfo<BatchCase>& info) {
      std::string name = info.param.matcher;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + (info.param.disk_resident_functions ? "_diskF" : "");
    });

// The packed-function setting gets the same guarantee, in both image
// modes: lane placement and the in-memory/mmap switch must not change
// any per-item number.
TEST(BatchDeterminismTest, PackedBackendsAreLaneCountInvariant) {
  for (const char* matcher : {"SB-Packed", "SB-alt-Packed"}) {
    BatchProblemSpec spec = SmallSpec(33000);
    spec.packed_functions = true;
    spec.max_gamma = 3;
    const int kCount = 10;

    std::vector<ItemFingerprint> direct;
    for (int i = 0; i < kCount; ++i) {
      direct.push_back(Fingerprint(
          RunGeneratedInstance(matcher, spec, static_cast<size_t>(i))));
    }
    for (const bool mmap_mode : {false, true}) {
      spec.packed_mmap = mmap_mode;
      for (const int threads : {1, 2, 8}) {
        BatchRunner runner(threads);
        const BatchResult result = runner.RunGenerated(matcher, spec, kCount);
        ASSERT_EQ(result.items.size(), static_cast<size_t>(kCount));
        for (int i = 0; i < kCount; ++i) {
          EXPECT_TRUE(Fingerprint(result.items[i]) == direct[i])
              << matcher << " item " << i << " at threads=" << threads
              << " mmap=" << mmap_mode;
        }
      }
    }
  }
}

// Lanes recycle their workspace disk between items; running the same
// instance on a heavily used workspace must be observably identical to
// a fresh-storage direct run, in both storage layouts that attach to
// the lane disk.
TEST(BatchDeterminismTest, RecycledWorkspaceMatchesFreshStorage) {
  LaneWorkspace ws;
  for (const bool disk_resident : {false, true}) {
    BatchProblemSpec spec = SmallSpec(34000);
    spec.disk_resident_functions = disk_resident;
    spec.max_gamma = 3;
    for (int i = 0; i < 6; ++i) {
      const ItemFingerprint fresh = Fingerprint(
          RunGeneratedInstance("SB", spec, static_cast<size_t>(i)));
      const ItemFingerprint reused = Fingerprint(
          RunGeneratedInstance("SB", spec, static_cast<size_t>(i), &ws));
      EXPECT_TRUE(fresh == reused)
          << "item " << i << " diskF=" << disk_resident
          << " diverged on a recycled workspace";
    }
  }
}

// Simulated I/O latency slows items down but must not change a bit of
// their output — it only changes where wall time goes.
TEST(BatchDeterminismTest, IoLatencyDoesNotChangeResults) {
  BatchProblemSpec spec = SmallSpec(32000);
  BatchRunner runner(4);
  const BatchResult fast = runner.RunGenerated("SB", spec, 6);
  spec.io_latency_us = 100;
  BatchRunner runner_slow(4);
  const BatchResult slow = runner_slow.RunGenerated("SB", spec, 6);
  ASSERT_EQ(fast.items.size(), slow.items.size());
  for (size_t i = 0; i < fast.items.size(); ++i) {
    EXPECT_TRUE(Fingerprint(fast.items[i]) == Fingerprint(slow.items[i]))
        << i;
  }
}

// --- submission order ------------------------------------------------

TEST(BatchRunnerTest, CallerItemsComeBackInSubmissionOrder) {
  // Items of recognizably different sizes: item i's matching has
  // min(|F_i|, |O_i|) pairs, so a shuffled result vector is caught by
  // the pair counts alone (and by the matching hashes).
  const int kCount = 9;
  std::vector<AssignmentProblem> problems;
  std::vector<std::unique_ptr<MemTree>> trees;
  std::vector<std::unique_ptr<ExecContext>> contexts;
  problems.reserve(kCount);
  for (int i = 0; i < kCount; ++i) {
    ProblemSpec spec;
    spec.num_functions = 5 + 3 * i;  // distinct per item
    spec.num_objects = 120;
    spec.seed = 33000 + static_cast<uint64_t>(i);
    problems.push_back(RandomProblem(spec));
  }
  std::vector<BatchItem> items;
  for (int i = 0; i < kCount; ++i) {
    trees.push_back(std::make_unique<MemTree>(problems[i]));
    contexts.push_back(std::make_unique<ExecContext>());
    BatchItem item;
    item.matcher_name = (i % 2 == 0) ? "SB" : "BruteForce";
    item.env.problem = &problems[i];
    item.env.tree = &trees[i]->tree;
    item.env.ctx = contexts[i].get();
    items.push_back(std::move(item));
  }

  BatchRunner runner(3);
  const BatchResult result = runner.Run(items);
  ASSERT_EQ(result.items.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(result.items[i].stats.pairs,
              static_cast<size_t>(5 + 3 * i))
        << "item " << i << " is not the item submitted at slot " << i;
    EXPECT_EQ(result.items[i].stats.algorithm,
              (i % 2 == 0) ? "SB" : "BruteForce");
  }
}

// --- aggregated stats ------------------------------------------------

TEST(BatchRunnerTest, LaneStatsSumToTotals) {
  const BatchProblemSpec spec = SmallSpec(34000);
  const int kCount = 10;
  for (const int threads : {1, 4}) {
    BatchRunner runner(threads);
    const BatchResult result = runner.RunGenerated("SB", spec, kCount);
    const BatchStats& stats = result.stats;
    ASSERT_EQ(stats.lanes.size(), static_cast<size_t>(threads));

    LaneStats sum;
    for (const LaneStats& lane : stats.lanes) {
      sum.items += lane.items;
      sum.io_accesses += lane.io_accesses;
      sum.cpu_ms += lane.cpu_ms;
      sum.pairs += lane.pairs;
      sum.loops += lane.loops;
      if (lane.peak_memory_bytes > sum.peak_memory_bytes) {
        sum.peak_memory_bytes = lane.peak_memory_bytes;
      }
    }
    EXPECT_EQ(stats.totals.items, kCount);
    EXPECT_EQ(sum.items, stats.totals.items);
    EXPECT_EQ(sum.io_accesses, stats.totals.io_accesses);
    EXPECT_EQ(sum.pairs, stats.totals.pairs);
    EXPECT_EQ(sum.loops, stats.totals.loops);
    EXPECT_EQ(sum.peak_memory_bytes, stats.totals.peak_memory_bytes);
    EXPECT_DOUBLE_EQ(sum.cpu_ms, stats.totals.cpu_ms);

    // Per-item totals are also thread-count-invariant, so the batch
    // totals must match the sum over direct runs.
    EXPECT_GT(stats.totals.pairs, 0u);
    EXPECT_GT(stats.wall_ms, 0.0);
    EXPECT_GT(stats.items_per_sec, 0.0);
  }
}

TEST(BatchRunnerTest, TotalsAreThreadCountInvariant) {
  const BatchProblemSpec spec = SmallSpec(35000);
  BatchRunner one(1), eight(8);
  const BatchResult a = one.RunGenerated("SB", spec, 8);
  const BatchResult b = eight.RunGenerated("SB", spec, 8);
  EXPECT_EQ(a.stats.totals.io_accesses, b.stats.totals.io_accesses);
  EXPECT_EQ(a.stats.totals.pairs, b.stats.totals.pairs);
  EXPECT_EQ(a.stats.totals.loops, b.stats.totals.loops);
  EXPECT_EQ(a.stats.totals.peak_memory_bytes,
            b.stats.totals.peak_memory_bytes);
}

TEST(BatchRunnerTest, EmptyBatchIsWellFormed) {
  BatchRunner runner(4);
  const BatchResult result = runner.RunGenerated("SB", SmallSpec(1), 0);
  EXPECT_TRUE(result.items.empty());
  EXPECT_EQ(result.stats.totals.items, 0);
  EXPECT_EQ(result.stats.items_per_sec, 0.0);
  EXPECT_EQ(runner.threads(), 4);
}

TEST(BatchRunnerTest, ThreadCountIsClampedToOne) {
  BatchRunner runner(0);
  EXPECT_EQ(runner.threads(), 1);
  const BatchResult result = runner.RunGenerated("SB", SmallSpec(2), 2);
  EXPECT_EQ(result.stats.lanes.size(), 1u);
  EXPECT_EQ(result.stats.totals.items, 2);
}

// --- the pool underneath ---------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);
  // The pool stays usable after a Wait().
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 201);
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
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  {
    ThreadPool submitters(4);
    for (int s = 0; s < 4; ++s) {
      submitters.Submit([&pool, &counter] {
        for (int i = 0; i < 25; ++i) {
          pool.Submit([&counter] { counter.fetch_add(1); });
        }
      });
    }
    submitters.Wait();
  }
  pool.Wait();
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

// google-benchmark microbenchmarks for the library's building blocks:
// R-tree construction and maintenance, BBS/UpdateSkyline, BRS ranked
// search, the TA reverse top-1 and the buffer pool.
#include <benchmark/benchmark.h>

#include "fairmatch/common/minmax_heap.h"
#include "fairmatch/common/rng.h"
#include "fairmatch/skyline/sky_arena.h"
#include "fairmatch/data/synthetic.h"
#include "fairmatch/rtree/node_store.h"
#include "fairmatch/rtree/rtree.h"
#include "fairmatch/skyline/bbs.h"
#include "fairmatch/storage/buffer_pool.h"
#include "fairmatch/topk/packed_function_lists.h"
#include "fairmatch/topk/ranked_search.h"
#include "fairmatch/topk/reverse_top1.h"

namespace fairmatch {
namespace {

std::vector<ObjectRecord> Records(int n, int dims, uint64_t seed,
                                  Distribution dist) {
  Rng rng(seed);
  auto points = GeneratePoints(dist, n, dims, &rng);
  std::vector<ObjectRecord> records;
  records.reserve(n);
  for (int i = 0; i < n; ++i) records.push_back({points[i], i});
  return records;
}

void BM_RTreeBulkLoad(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto records = Records(n, 4, 1, Distribution::kIndependent);
  for (auto _ : state) {
    MemNodeStore store(4);
    RTree tree(&store);
    auto copy = records;
    tree.BulkLoad(std::move(copy));
    benchmark::DoNotOptimize(tree.root());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RTreeBulkLoad)->Arg(10000)->Arg(100000);

void BM_RTreeInsert(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto records = Records(n, 4, 2, Distribution::kIndependent);
  for (auto _ : state) {
    MemNodeStore store(4);
    RTree tree(&store);
    for (const auto& r : records) tree.Insert(r.point, r.id);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RTreeInsert)->Arg(10000);

void BM_RTreeDelete(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto records = Records(n, 4, 3, Distribution::kIndependent);
  for (auto _ : state) {
    state.PauseTiming();
    MemNodeStore store(4);
    RTree tree(&store);
    auto copy = records;
    tree.BulkLoad(std::move(copy));
    state.ResumeTiming();
    for (const auto& r : records) tree.Delete(r.point, r.id);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RTreeDelete)->Arg(10000);

void BM_InitialSkylineBBS(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto records = Records(n, 4, 4, Distribution::kAntiCorrelated);
  MemNodeStore store(4);
  RTree tree(&store);
  tree.BulkLoad(std::move(records));
  for (auto _ : state) {
    SkylineManager mgr(&tree);
    mgr.ComputeInitial();
    benchmark::DoNotOptimize(mgr.skyline().size());
  }
}
BENCHMARK(BM_InitialSkylineBBS)->Arg(100000);

void BM_UpdateSkylineFullDrain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto records = Records(n, 3, 5, Distribution::kAntiCorrelated);
  MemNodeStore store(3);
  RTree tree(&store);
  tree.BulkLoad(std::move(records));
  for (auto _ : state) {
    SkylineManager mgr(&tree);
    mgr.ComputeInitial();
    while (mgr.skyline().size() > 0) {
      std::vector<ObjectId> victims;
      mgr.skyline().ForEach([&](int, const SkylineObject& m) {
        victims.push_back(m.id);
      });
      mgr.RemoveAndUpdate(victims);
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_UpdateSkylineFullDrain)->Arg(20000);

void BM_RankedSearchTop1(benchmark::State& state) {
  auto records = Records(100000, 4, 6, Distribution::kAntiCorrelated);
  MemNodeStore store(4);
  RTree tree(&store);
  tree.BulkLoad(std::move(records));
  Rng rng(7);
  FunctionSet fns = GenerateFunctions(64, 4, &rng);
  size_t i = 0;
  for (auto _ : state) {
    RankedSearch search(&tree, &fns[i++ % fns.size()]);
    benchmark::DoNotOptimize(search.Next());
  }
}
BENCHMARK(BM_RankedSearchTop1);

void BM_ReverseTop1(benchmark::State& state) {
  const int nf = static_cast<int>(state.range(0));
  Rng rng(8);
  FunctionSet fns = GenerateFunctions(nf, 4, &rng);
  PackedFunctionStore packed(fns);
  ReverseTop1 rt1(&packed, ReverseTop1Options{});
  auto points = GeneratePoints(Distribution::kAntiCorrelated, 256, 4, &rng);
  std::vector<uint8_t> assigned(fns.size(), 0);
  size_t i = 0;
  for (auto _ : state) {
    ReverseTop1State st;
    benchmark::DoNotOptimize(
        rt1.Best(&st, points[i++ % points.size()], assigned));
  }
}
BENCHMARK(BM_ReverseTop1)->Arg(5000)->Arg(20000);

// The reverse-top-1 queue workload: interleaved push / evict-worst /
// pop-best on a capacity-bounded double-ended queue. The seed paid
// O(cap) vector shifts per operation; the min-max heap pays O(log cap).
void BM_MinMaxHeapBoundedChurn(benchmark::State& state) {
  const int cap = static_cast<int>(state.range(0));
  Rng rng(77);
  std::vector<double> keys(1 << 16);
  for (double& k : keys) k = rng.Uniform();
  struct Item {
    double score;
    int id;
    bool operator<(const Item& other) const {
      if (score != other.score) return score > other.score;
      return id < other.id;
    }
  };
  size_t i = 0;
  for (auto _ : state) {
    MinMaxHeap<Item> heap;
    for (int op = 0; op < 4 * cap; ++op) {
      heap.push(Item{keys[i++ & 0xffff], op});
      if (static_cast<int>(heap.size()) > cap) heap.pop_max();
      if ((op & 7) == 7) heap.pop_min();
    }
    benchmark::DoNotOptimize(heap.size());
  }
  state.SetItemsProcessed(state.iterations() * 4 * cap);
}
BENCHMARK(BM_MinMaxHeapBoundedChurn)->Arg(64)->Arg(512)->Arg(4096);

// Arena alloc/free churn in the BBS park/expand pattern: allocate a
// wave of entries, free every other one, allocate again (freelist
// reuse), then drain.
void BM_SkyEntryArenaChurn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(78);
  auto points = GeneratePoints(Distribution::kIndependent, 256, 4, &rng);
  for (auto _ : state) {
    SkyEntryArena arena;
    std::vector<uint32_t> handles;
    handles.reserve(n);
    for (int i = 0; i < n; ++i) {
      handles.push_back(
          arena.Alloc(SkyEntry::ForObject(points[i & 255], i)));
    }
    for (int i = 0; i < n; i += 2) arena.Free(handles[i]);
    for (int i = 0; i < n; i += 2) {
      handles[i] = arena.Alloc(SkyEntry::ForObject(points[i & 255], i));
    }
    for (int i = 0; i < n; ++i) arena.Free(handles[i]);
    benchmark::DoNotOptimize(arena.high_water());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SkyEntryArenaChurn)->Arg(4096)->Arg(65536);

void BM_BufferPoolFetchHit(benchmark::State& state) {
  DiskManager disk;
  PerfCounters counters;
  BufferPool pool(&disk, 64, &counters);
  PageId pid;
  {
    PageHandle h = pool.NewPage();
    pid = h.page_id();
  }
  for (auto _ : state) {
    PageHandle h = pool.FetchPage(pid);
    benchmark::DoNotOptimize(h.bytes());
  }
}
BENCHMARK(BM_BufferPoolFetchHit);

void BM_BufferPoolFetchMiss(benchmark::State& state) {
  DiskManager disk;
  PerfCounters counters;
  BufferPool pool(&disk, 0, &counters);  // 0% buffer: every fetch misses
  PageId pid;
  {
    PageHandle h = pool.NewPage();
    pid = h.page_id();
  }
  pool.FlushAll();
  for (auto _ : state) {
    PageHandle h = pool.FetchPage(pid);
    benchmark::DoNotOptimize(h.bytes());
  }
}
BENCHMARK(BM_BufferPoolFetchMiss);

}  // namespace
}  // namespace fairmatch

#include "fairmatch/engine/batch_runner.h"

#include <atomic>
#include <memory>
#include <optional>
#include <utility>

#include "fairmatch/common/check.h"
#include "fairmatch/common/thread_pool.h"
#include "fairmatch/common/timer.h"
#include "fairmatch/engine/registry.h"
#include "fairmatch/rtree/node_store.h"
#include "fairmatch/topk/disk_function_lists.h"
#include "fairmatch/topk/packed_function_lists.h"

namespace fairmatch {

namespace {

/// The deterministic numbers a finished item contributes to its lane.
/// cpu_ms comes from the item's own ExecContext clock (wall time spent
/// inside the item), so lane sums stay meaningful at any thread count.
void AccumulateItem(LaneStats* lane, const AssignResult& result) {
  lane->Accumulate(result.stats);
}

}  // namespace

BatchRunner::BatchRunner(int threads) : threads_(threads < 1 ? 1 : threads) {}

BatchResult BatchRunner::RunImpl(
    size_t count,
    const std::function<AssignResult(size_t, LaneWorkspace*)>& run_item) {
  // Touch the registry before spawning lanes: Global() lazily registers
  // the builtins, and while its magic-static initialization is
  // thread-safe, doing it once up front keeps first-item latency out of
  // the measured lanes.
  MatcherRegistry::Global();

  BatchResult result;
  result.items.resize(count);
  result.stats.threads = threads_;
  result.stats.lanes.assign(static_cast<size_t>(threads_), LaneStats{});

  Timer wall;
  {
    // Lanes pull the next unclaimed item index; each writes only its
    // own result slot, its own LaneStats entry and its own workspace,
    // so the only shared write is the atomic cursor.
    std::vector<LaneWorkspace> workspaces(static_cast<size_t>(threads_));
    std::atomic<size_t> next{0};
    ThreadPool pool(threads_);
    for (int lane = 0; lane < threads_; ++lane) {
      pool.Submit([&result, &workspaces, &next, &run_item, count, lane] {
        LaneStats& stats = result.stats.lanes[static_cast<size_t>(lane)];
        LaneWorkspace* ws = &workspaces[static_cast<size_t>(lane)];
        for (;;) {
          const size_t index = next.fetch_add(1);
          if (index >= count) return;
          result.items[index] = run_item(index, ws);
          AccumulateItem(&stats, result.items[index]);
        }
      });
    }
    pool.Wait();
  }
  result.stats.wall_ms = wall.ElapsedMs();

  for (const LaneStats& lane : result.stats.lanes) {
    result.stats.totals.items += lane.items;
    result.stats.totals.io_accesses += lane.io_accesses;
    result.stats.totals.cpu_ms += lane.cpu_ms;
    result.stats.totals.pairs += lane.pairs;
    result.stats.totals.loops += lane.loops;
    if (lane.peak_memory_bytes > result.stats.totals.peak_memory_bytes) {
      result.stats.totals.peak_memory_bytes = lane.peak_memory_bytes;
    }
  }
  if (result.stats.wall_ms > 0.0 && count > 0) {
    result.stats.items_per_sec =
        static_cast<double>(count) / (result.stats.wall_ms / 1000.0);
  }
  return result;
}

BatchResult BatchRunner::Run(const std::vector<BatchItem>& items) {
  // Validate up front, on the submitting thread: a bad item should fail
  // before any lane starts, with the item index in the diagnostic.
  for (const BatchItem& item : items) {
    const MatcherInfo* info =
        MatcherRegistry::Global().Find(item.matcher_name);
    FAIRMATCH_CHECK(info != nullptr);
    FAIRMATCH_CHECK(item.env.problem != nullptr && item.env.tree != nullptr);
    FAIRMATCH_CHECK(!info->needs_disk_functions ||
                    item.env.fn_store != nullptr);
    FAIRMATCH_CHECK(!info->needs_packed_functions ||
                    item.env.packed_fns != nullptr);
  }
  // Caller-assembled items bring their own storage; the lane workspace
  // only serves the generated path.
  return RunImpl(items.size(), [&items](size_t index, LaneWorkspace*) {
    const BatchItem& item = items[index];
    std::unique_ptr<Matcher> matcher =
        MatcherRegistry::Global().Create(item.matcher_name, item.env);
    FAIRMATCH_CHECK(matcher != nullptr);
    return matcher->Run();
  });
}

AssignResult RunGeneratedInstance(const std::string& matcher_name,
                                  const BatchProblemSpec& spec,
                                  size_t index) {
  return RunGeneratedInstance(matcher_name, spec, index, nullptr);
}

AssignResult RunGeneratedInstance(const std::string& matcher_name,
                                  const BatchProblemSpec& spec, size_t index,
                                  LaneWorkspace* ws) {
  // Instance `index` is fully determined by its seed: the problem, the
  // storage stack and the context are all private, which is exactly
  // what makes the result independent of which lane runs it.
  Rng rng(spec.base_seed + index);
  std::vector<Point> points = GeneratePoints(
      spec.distribution, spec.num_objects, spec.dims, &rng);
  FunctionSet fns = GenerateFunctions(spec.num_functions, spec.dims, &rng);
  if (spec.max_gamma > 1) AssignPriorities(&fns, spec.max_gamma, &rng);
  if (spec.function_capacity != 1) {
    SetFunctionCapacities(&fns, spec.function_capacity);
  }
  AssignmentProblem problem =
      MakeProblem(std::move(points), std::move(fns), spec.object_capacity);

  ExecContext ctx;
  ctx.set_parallel(false);  // lanes already spread items over the cores
  MatcherEnv env;
  env.problem = &problem;
  env.buffer_fraction = spec.buffer_fraction;
  env.ctx = &ctx;

  // Storage layout mirrors bench_common::Run: paged objects in the
  // standard setting, in-memory objects + on-disk coefficient lists in
  // the disk-resident-F setting, in-memory objects + a packed image in
  // the packed setting. Build traffic is excluded from the counters but
  // (deliberately) not from the wall clock — a lane that is building an
  // index is still occupying its disk. A workspace, when present,
  // donates its recycled page buffers to whichever simulated disk the
  // item's stores sit on.
  DiskManager* disk = nullptr;
  if (ws != nullptr) {
    ws->Recycle();
    disk = &ws->disk();
  }
  std::optional<PagedNodeStore> paged_store;
  std::optional<MemNodeStore> mem_store;
  std::optional<DiskFunctionStore> fstore;
  std::optional<PackedFunctionStore> pstore;
  std::optional<RTree> tree;
  if (spec.disk_resident_functions) {
    mem_store.emplace(problem.dims);
    tree.emplace(&*mem_store);
    BuildObjectTree(problem, &*tree);
    fstore.emplace(problem.functions, spec.buffer_fraction, &ctx.counters(),
                   disk);
    fstore->disk().set_io_latency_us(spec.io_latency_us);
    env.fn_store = &*fstore;
    ctx.set_function_backend("disk");
  } else if (spec.packed_functions) {
    mem_store.emplace(problem.dims);
    tree.emplace(&*mem_store);
    BuildObjectTree(problem, &*tree);
    PackedStoreOptions popts;
    popts.use_mmap = spec.packed_mmap;
    pstore.emplace(problem.functions, popts);
    env.packed_fns = &*pstore;
    ctx.set_function_backend(pstore->mapped() ? "packed-mmap" : "packed");
  } else {
    paged_store.emplace(problem.dims, /*buffer_frames=*/4096,
                        &ctx.counters(), disk);
    paged_store->disk().set_io_latency_us(spec.io_latency_us);
    tree.emplace(&*paged_store);
    BuildObjectTree(problem, &*tree);
    paged_store->ResetCounters();  // exclude the build phase
    paged_store->SetBufferFraction(spec.buffer_fraction);
  }
  env.tree = &*tree;

  std::unique_ptr<Matcher> matcher =
      MatcherRegistry::Global().Create(matcher_name, env);
  FAIRMATCH_CHECK(matcher != nullptr);
  return matcher->Run();
}

BatchResult BatchRunner::RunGenerated(const std::string& matcher_name,
                                      const BatchProblemSpec& spec,
                                      int count) {
  FAIRMATCH_CHECK(count >= 0);
  const MatcherInfo* info = MatcherRegistry::Global().Find(matcher_name);
  FAIRMATCH_CHECK(info != nullptr);
  FAIRMATCH_CHECK(!info->needs_disk_functions ||
                  spec.disk_resident_functions);
  FAIRMATCH_CHECK(!info->needs_packed_functions || spec.packed_functions);
  FAIRMATCH_CHECK(!(spec.disk_resident_functions && spec.packed_functions));
  return RunImpl(static_cast<size_t>(count),
                 [&matcher_name, &spec](size_t index, LaneWorkspace* ws) {
                   return RunGeneratedInstance(matcher_name, spec, index, ws);
                 });
}

}  // namespace fairmatch

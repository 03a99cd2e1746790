// Packed function-list figures: the target experiments for the packed
// memory-mapped backend (topk/packed_function_lists.h).
//
//   micro_packed_probe — the reverse top-1 drain over the function-
//     index backends at growing |F|: "lists" (in-memory FunctionLists)
//     and "packed" (packed image walked entry by entry), which both run
//     the generic TA loop one list entry per probe, and "packed-impact"
//     (SB's kernel: TA over the packed image's blocks in descending
//     max-impact order). io = ReverseTop1::probes() (probed list
//     entries), loops = Omega restarts. lists and packed are equal rows
//     (a declared invariant); packed-impact probes whole blocks but
//     must drain the identical assignments (pairs). mem = the index and
//     the query states.
//   scale_sweep — the paper-size-and-beyond sweep: x multiplies the
//     paper's |F| by 1/8/32 and compares the disk-resident
//     DiskFunctionStore baseline against the packed store (in-memory
//     image and mmap placement) on the same full drain. pairs is
//     identical across rows per x (a declared invariant); cpu_ms and the
//     honest per-backend footprint (mem_mb) are the figure: both must
//     grow sublinearly for the packed rows relative to the disk store.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "driver/figure_registry.h"
#include "fairmatch/common/timer.h"
#include "fairmatch/engine/exec_context.h"
#include "fairmatch/storage/disk_manager.h"
#include "fairmatch/topk/disk_function_lists.h"
#include "fairmatch/topk/function_lists.h"
#include "fairmatch/topk/packed_function_lists.h"
#include "fairmatch/topk/reverse_top1.h"

namespace fairmatch::bench {

namespace {

/// The shared drain workload: assign every function through resumable
/// Best() calls from a rotating pool of query objects (the SB usage
/// pattern), so every backend performs the same logical work and
/// produces the same number of completed assignments.
struct DrainResult {
  uint64_t assignments = 0;
  int64_t probes = 0;
  int64_t restarts = 0;
  size_t search_bytes = 0;
};

DrainResult DrainAllFunctions(FunctionIndexBase* index,
                              const AssignmentProblem& problem,
                              bool impact_ordered) {
  ReverseTop1Options options;
  options.impact_ordered = impact_ordered;
  ReverseTop1 rt1(index, options);
  std::vector<uint8_t> assigned(problem.functions.size(), 0);
  int64_t remaining = static_cast<int64_t>(problem.functions.size());
  const size_t nq =
      std::min<size_t>(64, std::max<size_t>(1, problem.objects.size()));
  std::vector<ReverseTop1State> states(nq);
  DrainResult result;
  size_t i = 0;
  while (remaining > 0) {
    const size_t q = i++ % nq;
    auto best =
        rt1.Best(&states[q], problem.objects[q].point, assigned, remaining);
    if (!best.has_value()) break;
    assigned[best->first] = 1;
    remaining--;
    result.assignments++;
  }
  result.probes = rt1.probes();
  result.restarts = rt1.restarts();
  for (const ReverseTop1State& s : states) {
    result.search_bytes += s.memory_bytes();
  }
  return result;
}

// --- micro_packed_probe ----------------------------------------------

RunStats RunMicroPackedProbe(const AssignmentProblem& problem,
                             const std::string& backend) {
  Timer timer;
  RunStats stats;
  stats.algorithm = backend;
  std::optional<FunctionLists> lists;
  std::optional<PackedFunctionStore> packed;
  FunctionIndexBase* index;
  size_t index_bytes;
  if (backend == "lists") {
    lists.emplace(&problem.functions);
    index = &*lists;
    index_bytes = lists->memory_bytes();
  } else {
    packed.emplace(problem.functions);
    index = &*packed;
    index_bytes = packed->footprint_bytes();
  }
  const DrainResult drain =
      DrainAllFunctions(index, problem, backend == "packed-impact");
  stats.cpu_ms = timer.ElapsedMs();
  stats.io_accesses = drain.probes;
  stats.loops = drain.restarts;
  stats.pairs = drain.assignments;
  stats.peak_memory_bytes = index_bytes + drain.search_bytes;
  return stats;
}

std::vector<FigureSection> MicroPackedProbe() {
  FigureSection s;
  s.title = "Micro: packed-list reverse top-1 drain";
  s.subtitle =
      "full drain, 64 resumable query states, x = |F| "
      "(io = list probes, loops = restarts; lists and packed run "
      "the generic TA loop, lists == packed per column, "
      "packed-impact equal pairs)";
  for (int nf : {1000, 5000, 20000}) {
    BenchConfig config;
    config.num_functions = nf;
    config.num_objects = 1000;
    config = Scale(config);
    std::vector<MeasuredRun> runs;
    for (const char* backend : {"lists", "packed", "packed-impact"}) {
      MeasuredRun run;
      run.algorithm = backend;
      const std::string b = backend;
      run.runner = [b](const AssignmentProblem& problem, const BenchConfig&) {
        return RunMicroPackedProbe(problem, b);
      };
      runs.push_back(std::move(run));
    }
    s.cells.push_back({std::to_string(nf), config, nullptr, std::move(runs)});
  }
  return {s};
}

// --- scale_sweep -----------------------------------------------------

/// Honest resident footprint of the disk-store baseline: the on-disk
/// list pages plus everything it keeps in memory to serve queries (LRU
/// frames at the configured fraction, the per-(dim, fid) position map,
/// gamma/capacity metadata).
size_t DiskStoreFootprint(DiskFunctionStore* store, double buffer_fraction) {
  const size_t n = static_cast<size_t>(store->size());
  const size_t d = static_cast<size_t>(store->dims());
  size_t bytes = static_cast<size_t>(store->num_pages()) * sizeof(PageData);
  bytes += static_cast<size_t>(buffer_fraction *
                               static_cast<double>(store->num_pages())) *
           sizeof(PageData);
  bytes += n * d * sizeof(int32_t);                // position map
  bytes += n * (sizeof(double) + sizeof(int));     // gamma + capacity
  return bytes;
}

RunStats RunScaleSweep(const AssignmentProblem& problem,
                       const BenchConfig& config,
                       const std::string& backend) {
  RunStats stats;
  stats.algorithm = backend;
  if (backend == "disk-store") {
    ExecContext ctx;
    DiskFunctionStore store(problem.functions, config.buffer_fraction,
                            &ctx.counters());
    ctx.BeginRun();
    const DrainResult drain = DrainAllFunctions(&store, problem,
                                                /*impact_ordered=*/false);
    stats.pairs = drain.assignments;
    stats.loops = drain.restarts;
    ctx.memory().Set(DiskStoreFootprint(&store, config.buffer_fraction) +
                     drain.search_bytes);
    ctx.Finish(&stats);
    return stats;
  }
  Timer timer;
  PackedStoreOptions opts;
  opts.use_mmap = backend == "packed-mmap";
  PackedFunctionStore store(problem.functions, opts);
  const DrainResult drain = DrainAllFunctions(&store, problem,
                                              /*impact_ordered=*/true);
  stats.cpu_ms = timer.ElapsedMs();
  stats.pairs = drain.assignments;
  stats.loops = drain.restarts;
  stats.io_accesses = 0;  // queried in place, no counted I/O
  stats.peak_memory_bytes = store.footprint_bytes() + drain.search_bytes;
  return stats;
}

std::vector<FigureSection> ScaleSweep() {
  FigureSection s;
  s.title = "Scale sweep: function-store backends beyond paper size";
  s.subtitle =
      "full drain, x = |F| multiplier over the paper's 5000 "
      "(pairs identical across rows; cpu_ms and footprint are the "
      "figure)";
  for (int mult : {1, 8, 32}) {
    BenchConfig config;
    config.num_functions = 5000 * mult;
    config.num_objects = 2000;
    config = Scale(config);
    std::vector<MeasuredRun> runs;
    for (const char* backend : {"disk-store", "packed", "packed-mmap"}) {
      MeasuredRun run;
      run.algorithm = backend;
      const std::string b = backend;
      run.runner = [b](const AssignmentProblem& problem,
                       const BenchConfig& c) {
        return RunScaleSweep(problem, c, b);
      };
      runs.push_back(std::move(run));
    }
    s.cells.push_back(
        {std::to_string(mult) + "x", config, nullptr, std::move(runs)});
  }
  return {s};
}

}  // namespace

void RegisterPackedFigures(FigureRegistry* registry) {
  FigureSpec probe;
  probe.name = "micro_packed_probe";
  probe.description =
      "Microbench: reverse top-1 drain across function-index backends "
      "(lists / packed / packed impact-ordered)";
  probe.sections = MicroPackedProbe;
  // The packed image walked entry by entry is FunctionLists' TA probe
  // sequence, count for count; the impact-ordered TA drains the same
  // assignments.
  probe.invariants = {
      RequireRows(nullptr, {"lists", "packed", "packed-impact"}),
      SameColumns(AlgorithmIn({"lists", "packed"}), ByCell,
                  kDeterministicColumns),
      SameColumns(nullptr, ByCell, {Column::kPairs}),
  };
  registry->Register(std::move(probe));

  FigureSpec sweep;
  sweep.name = "scale_sweep";
  sweep.description =
      "Packed vs disk-resident function store at 1-32x paper |F| "
      "(cpu and footprint scaling)";
  sweep.sections = ScaleSweep;
  // Every backend performs the same full drain at each size.
  sweep.invariants = {
      MinDistinct(nullptr, nullptr, ByX, "x", 2),
      RequireRows(nullptr, {"disk-store", "packed", "packed-mmap"}),
      SameColumns(nullptr, ByCell, {Column::kPairs}),
  };
  registry->Register(std::move(sweep));
}

}  // namespace fairmatch::bench

// The batch_throughput figure: items/s of the batch execution layer
// (engine/batch_runner.h) as worker lanes grow.
//
// Each cell runs the same batch of K independent seeded problem
// instances (generation + index build + solve, all inside the lanes) at
// x worker lanes. The simulated disks get a small per-access latency so
// that lanes overlap I/O stalls the way a real disk-resident deployment
// would — without it a 1-CPU runner shows no scaling at all, with it
// the figure measures exactly what batching buys: stall overlap.
//
// Row columns keep their registry meaning, summed over the batch:
// io/pairs/loops are batch totals (deterministic, so the figure's
// declared invariants require them identical across lane counts),
// cpu_ms is the batch WALL time — the column whose x-to-x ratio is the
// throughput scaling — and mem_mb the largest single-item peak.
#include <string>
#include <utility>
#include <vector>

#include "driver/figure_registry.h"
#include "fairmatch/engine/batch_runner.h"

namespace fairmatch::bench {

namespace {

/// Per-physical-I/O latency of the batch items' simulated disks.
constexpr int kIoLatencyUs = 200;

/// Worker-lane counts swept as the x axis.
const int kLanes[] = {1, 2, 4, 8};

/// Batch size for the current scale.
int BatchItems() { return Scaled(64, 8); }

BatchProblemSpec SpecFromConfig(const BenchConfig& config) {
  BatchProblemSpec spec;
  spec.num_functions = config.num_functions;
  spec.num_objects = config.num_objects;
  spec.dims = config.dims;
  spec.distribution = config.distribution;
  spec.base_seed = config.seed;
  spec.function_capacity = config.function_capacity;
  spec.object_capacity = config.object_capacity;
  spec.max_gamma = config.max_gamma;
  spec.disk_resident_functions = config.disk_resident_functions;
  spec.buffer_fraction = config.buffer_fraction;
  spec.io_latency_us = kIoLatencyUs;
  return spec;
}

RunStats RunBatch(const std::string& matcher, const BatchProblemSpec& spec,
                  int threads) {
  BatchRunner runner(threads);
  const BatchResult result =
      runner.RunGenerated(matcher, spec, BatchItems());
  RunStats stats;
  stats.algorithm = matcher;
  stats.cpu_ms = result.stats.wall_ms;
  stats.io_accesses = result.stats.totals.io_accesses;
  stats.pairs = result.stats.totals.pairs;
  stats.loops = result.stats.totals.loops;
  stats.peak_memory_bytes = result.stats.totals.peak_memory_bytes;
  return stats;
}

std::vector<FigureSection> BatchThroughput() {
  FigureSection s;
  s.title = "Batch throughput: independent problems across worker lanes";
  s.subtitle =
      "x = lanes, K = " + std::to_string(BatchItems()) +
      " seeded instances per batch, " + std::to_string(kIoLatencyUs) +
      "us simulated I/O latency (cpu_ms = batch wall time; io/pairs/"
      "loops are batch totals, identical at every x)";

  // The per-item shape (scaled like every figure). Modest on purpose:
  // the figure measures the execution layer, not one giant instance.
  BenchConfig shape;
  shape.num_functions = 1000;
  shape.num_objects = 10000;
  shape.dims = 3;
  shape = Scale(shape);
  const BatchProblemSpec standard = SpecFromConfig(shape);
  BatchProblemSpec disk_f = standard;
  disk_f.disk_resident_functions = true;

  // The runners regenerate every instance inside their lanes, so the
  // cell carries a minimal config: the driver's shared BuildProblem
  // should not generate a full instance nobody reads.
  BenchConfig cell_config;
  cell_config.num_functions = 1;
  cell_config.num_objects = 1;
  cell_config.dims = shape.dims;
  cell_config.seed = shape.seed;

  for (const int threads : kLanes) {
    std::vector<MeasuredRun> runs;
    // Standard setting (per-item paged object tree): the optimized
    // matcher and the paper's strongest baseline.
    for (const char* name : {"SB", "BruteForce"}) {
      MeasuredRun run;
      run.algorithm = name;
      run.runner = [name, standard, threads](const AssignmentProblem&,
                                             const BenchConfig&) {
        return RunBatch(name, standard, threads);
      };
      runs.push_back(std::move(run));
    }
    // Disk-resident-F setting (Section 7.6) rides along so both storage
    // layouts stay covered under concurrency.
    {
      MeasuredRun run;
      run.algorithm = "SB-alt";
      run.runner = [disk_f, threads](const AssignmentProblem&,
                                     const BenchConfig&) {
        return RunBatch("SB-alt", disk_f, threads);
      };
      runs.push_back(std::move(run));
    }
    s.cells.push_back(
        {std::to_string(threads), cell_config, nullptr, std::move(runs)});
  }
  return {s};
}

}  // namespace

void RegisterBatchFigure(FigureRegistry* registry) {
  FigureSpec spec;
  spec.name = "batch_throughput";
  spec.description =
      "Batch execution layer: items/s scaling over worker lanes";
  spec.sections = BatchThroughput;
  // Every lane count runs the same batch, so each algorithm's batch
  // totals are thread-count invariant, over a real sweep of lanes.
  spec.invariants = {
      MinDistinct(nullptr, ByAlgorithm, ByX, "x", 2),
      SameColumns(nullptr, ByAlgorithm, kDeterministicColumns),
  };
  registry->Register(std::move(spec));
}

}  // namespace fairmatch::bench

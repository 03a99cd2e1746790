// Shared harness for the fairmatch_bench driver (bench/driver/).
//
// Provides the experiment configuration (Table 2 defaults), problem
// generation, and the uniform measured-run entry point every figure in
// the FigureRegistry goes through. Measured rows carry the series the
// paper's figures plot (I/O cost, CPU time, memory usage) plus
// provenance (seed, scale, git sha); serialization lives in
// bench/driver/report.h.
//
// Scale is selected by the driver's --scale flag (SetScale) and falls
// back to the FAIRMATCH_SCALE environment variable:
//   paper  — Table 2 parameter values
//   quick  — cardinalities divided by 4 (default; same shapes)
//   smoke  — tiny sizes for CI smoke runs
#ifndef FAIRMATCH_BENCH_BENCH_COMMON_H_
#define FAIRMATCH_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "fairmatch/assign/problem.h"
#include "fairmatch/data/synthetic.h"

namespace fairmatch::bench {

/// Scale multiplier for the current scale (paper=1, quick=0.25,
/// smoke=0.02).
double ScaleFactor();

/// The current scale name. Unrecognized FAIRMATCH_SCALE values resolve
/// to the default ("quick").
const char* ScaleName();

/// Overrides FAIRMATCH_SCALE programmatically. Returns false (and
/// changes nothing) for names other than paper / quick / smoke.
bool SetScale(const std::string& name);

/// value * ScaleFactor(), at least `floor`.
int Scaled(int paper_value, int floor = 1);

/// Server lane counts the serving_latency and fault_recovery figures
/// sweep as their x axis.
inline constexpr int kServeLanes[] = {1, 2, 4};

/// One experiment configuration (Table 2 defaults).
struct BenchConfig {
  int num_functions = 5000;
  int num_objects = 100000;
  int dims = 4;
  Distribution distribution = Distribution::kAntiCorrelated;
  double buffer_fraction = 0.02;
  int function_capacity = 1;
  int object_capacity = 1;
  int max_gamma = 1;
  int weight_clusters = 0;  // 0 = independent weights (Figure 12 sets >0)
  uint64_t seed = 20090824;

  /// Section 7.6 setting (Figure 17): objects in a main-memory R-tree,
  /// function lists on the simulated disk. When false (the standard
  /// setting), objects live on the simulated disk behind the LRU buffer
  /// and functions are indexed in memory.
  bool disk_resident_functions = false;

  /// Pre-generated object points override the synthetic generator
  /// (used by the real-data benches).
  const std::vector<Point>* points_override = nullptr;
};

/// Applies ScaleFactor() to the cardinalities.
BenchConfig Scale(BenchConfig config);

/// True iff the two configurations generate the same problem instance
/// (BuildProblem inputs match; run-time knobs like the buffer fraction
/// are ignored). The driver uses this to share one generated problem
/// across consecutive runs.
bool SameProblemInputs(const BenchConfig& a, const BenchConfig& b);

/// Generates the problem instance for a configuration.
AssignmentProblem BuildProblem(const BenchConfig& config);

/// Empty if the registered matcher `name` can run under `config`;
/// otherwise a diagnostic: unknown name (with the registry listing),
/// reference oracle, or missing disk-resident-F setting. Run() aborts
/// on exactly these conditions — callers that want a clean non-zero
/// exit validate with this first (the driver does, up front).
std::string CheckRunnable(const std::string& name, const BenchConfig& config);

/// Runs the registered matcher `name` (engine/registry.h) on a fresh
/// R-tree built from `problem`, with storage laid out per
/// `config.disk_resident_functions` (Section 7 vs 7.6 settings) and all
/// instrumentation aggregated through one ExecContext. Aborts on the
/// conditions CheckRunnable() reports.
RunStats Run(const std::string& name, const AssignmentProblem& problem,
             const BenchConfig& config);

}  // namespace fairmatch::bench

#endif  // FAIRMATCH_BENCH_BENCH_COMMON_H_

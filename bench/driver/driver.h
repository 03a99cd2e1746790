// Orchestration for the fairmatch_bench binary.
//
// Splitting planning (expand + validate figure and matcher names) from
// execution (generate problems, run, aggregate medians, stream to
// sinks) keeps every failure a clean non-zero exit with the relevant
// registry listing — never an abort() — and lets tests drive the exact
// pipeline the binary uses.
#ifndef FAIRMATCH_BENCH_DRIVER_DRIVER_H_
#define FAIRMATCH_BENCH_DRIVER_DRIVER_H_

#include <ostream>
#include <string>
#include <vector>

#include "driver/figure_registry.h"
#include "driver/report.h"

namespace fairmatch::bench {

/// Parsed command line of fairmatch_bench.
struct DriverOptions {
  /// Figure names; empty or the single entry "all" selects every
  /// registered figure.
  std::vector<std::string> figures;
  /// paper | quick | smoke; empty keeps the FAIRMATCH_SCALE default.
  std::string scale;
  /// Primary output format: text | csv | json.
  std::string format = "text";
  /// Primary output path; empty writes to stdout.
  std::string out_path;
  /// Optional extra copies (CI uploads both from one run).
  std::string csv_path;
  std::string json_path;
  /// Runs per cell; the report keeps per-field medians.
  int repeat = 1;
};

/// One expanded figure, ready to execute.
struct FigurePlan {
  std::string name;
  std::vector<FigureSection> sections;
  std::vector<Invariant> invariants;
};

/// Expands the named figures at the current scale and validates every
/// registry-matcher run up front (bench_common::CheckRunnable). On
/// failure returns an empty plan and sets `error` to a diagnostic that
/// includes the relevant registry listing.
std::vector<FigurePlan> PlanFigures(const std::vector<std::string>& names,
                                    std::string* error);

/// Executes a plan: one generated problem shared across consecutive
/// runs with identical inputs, `repeat` runs per cell aggregated into
/// per-field medians, rows streamed to every sink (Close() included).
/// Each figure's invariants are checked once its rows are aggregated;
/// the failures of every figure are returned. `progress` (may be null)
/// receives one line per section.
std::vector<InvariantFailure> RunPlan(const std::vector<FigurePlan>& plan,
                                      int repeat,
                                      const std::vector<ReportSink*>& sinks,
                                      std::ostream* progress);

/// Full binary behavior behind flag parsing; returns the process exit
/// code (0 success, 1 I/O failure, 2 invalid options, 3 a figure broke
/// one of its invariants). Every report is written in full either way,
/// and each failure is printed to stderr.
int RunDriver(const DriverOptions& options);

}  // namespace fairmatch::bench

#endif  // FAIRMATCH_BENCH_DRIVER_DRIVER_H_

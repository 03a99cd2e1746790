// String-keyed registry of benchmark figures, mirroring MatcherRegistry.
//
// A figure is one parameterized experiment of the paper's evaluation
// (Figs 8–17) or one of our ablations: an x-axis sweep of BenchConfig
// mutations with a set of algorithms measured at every x. Specs expand
// lazily — Sections() runs after the driver has fixed the scale — into
// sections of cells; the driver (driver.h) walks the cells, shares one
// generated problem across runs with identical inputs, and streams
// aggregated rows into report sinks (report.h). New figures plug in by
// registering a spec — no binary to add, no CMake to touch. A spec also
// declares the invariants its rows must satisfy (invariants.h).
#ifndef FAIRMATCH_BENCH_DRIVER_FIGURE_REGISTRY_H_
#define FAIRMATCH_BENCH_DRIVER_FIGURE_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "driver/invariants.h"

namespace fairmatch::bench {

/// One measured run within a cell: a registered matcher name, or —
/// when `runner` is set — a custom measurement for rows that are not
/// registry variants (the SB-options ablation sweeps SBOptions knobs).
/// Custom runners must follow the same instrumentation protocol as
/// bench::Run (one ExecContext per run, counters reset after the tree
/// build).
struct MeasuredRun {
  std::string algorithm;
  std::function<RunStats(const AssignmentProblem&, const BenchConfig&)>
      runner;
};

/// One x-axis position: the fully scaled configuration plus every
/// algorithm measured on the problem instance it generates.
struct FigureCell {
  std::string x;
  BenchConfig config;
  /// Keeps config.points_override alive (real-data figures).
  std::shared_ptr<const std::vector<Point>> owned_points;
  std::vector<MeasuredRun> runs;
};

/// A printed sub-figure. Most figures have exactly one; Figure 9 has
/// one per distribution, the ablation one per design choice. `key` is
/// the machine-readable slug recorded in report rows (empty for
/// single-section figures); `title`/`subtitle` reproduce the figure
/// headline for the text format.
struct FigureSection {
  std::string key;
  std::string title;
  std::string subtitle;
  std::vector<FigureCell> cells;
};

/// Registry entry: name, one-line description, lazy expansion, and the
/// promises the figure's aggregated rows keep.
struct FigureSpec {
  std::string name;
  std::string description;
  std::function<std::vector<FigureSection>()> sections;
  std::vector<Invariant> invariants;
};

/// String-keyed figure registry.
class FigureRegistry {
 public:
  /// The process-wide registry, with all built-in figures (the paper's
  /// Figs 8–17 plus the SB ablation) already registered.
  static FigureRegistry& Global();

  /// Registers a figure. Re-registering a name replaces the entry.
  void Register(FigureSpec spec);

  /// Entry for `name`, or nullptr if unknown.
  const FigureSpec* Find(const std::string& name) const;

  /// All registered names, sorted.
  std::vector<std::string> Names() const;

  size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, FigureSpec> entries_;
};

}  // namespace fairmatch::bench

#endif  // FAIRMATCH_BENCH_DRIVER_FIGURE_REGISTRY_H_

// Registration of the built-in benchmark figures: the paper's
// experimental evaluation (Figs 8–17, with the multi-part figures split
// into one entry per part) plus the SB-options ablation from DESIGN.md.
// Each spec reproduces the sweep of the former per-figure binary; the
// driver owns problem generation, repetition and serialization.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "driver/figure_registry.h"
#include "fairmatch/assign/sb.h"
#include "fairmatch/data/real_sim.h"
#include "fairmatch/engine/exec_context.h"
#include "fairmatch/rtree/node_store.h"

namespace fairmatch::bench {

void RegisterBuiltinFigures(FigureRegistry* registry);

namespace {

std::vector<MeasuredRun> Algos(std::initializer_list<const char*> names) {
  std::vector<MeasuredRun> runs;
  runs.reserve(names.size());
  for (const char* name : names) runs.push_back({name, nullptr});
  return runs;
}

FigureSpec Spec(std::string name, std::string description,
                std::function<std::vector<FigureSection>()> sections) {
  FigureSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.sections = std::move(sections);
  return spec;
}

// --- Figure 8: effectiveness of the Section 5 optimizations ----------
// Anti-correlated objects, |F| = 1000, D in {3, 4, 5}:
// SB vs SB-UpdateSkyline (no 5.1/5.3) vs SB-DeltaSky.
std::vector<FigureSection> Fig08() {
  FigureSection s;
  s.title = "Figure 8: effect of the optimization techniques";
  s.subtitle = "anti-correlated, |F|=1000, |O|=100k, x = dimensionality D";
  for (int dims : {3, 4, 5}) {
    BenchConfig config;
    config.num_functions = 1000;
    config.dims = dims;
    config = Scale(config);
    s.cells.push_back({std::to_string(dims), config, nullptr,
                       Algos({"SB", "SB-UpdateSkyline", "SB-DeltaSky"})});
  }
  return {s};
}

// --- Figure 9: effect of dimensionality D on all three synthetic
// distributions — I/O (a-c), CPU (d-f) and memory (g-i) are columns of
// the emitted rows.
std::vector<FigureSection> Fig09() {
  std::vector<FigureSection> sections;
  for (Distribution dist :
       {Distribution::kIndependent, Distribution::kCorrelated,
        Distribution::kAntiCorrelated}) {
    FigureSection s;
    s.key = DistributionName(dist);
    s.title = std::string("Figure 9: effect of dimensionality (") +
              DistributionName(dist) + ")";
    s.subtitle = "|F|=5k, |O|=100k, x = dimensionality D";
    for (int dims : {3, 4, 5, 6}) {
      BenchConfig config;
      config.dims = dims;
      config.distribution = dist;
      config = Scale(config);
      s.cells.push_back({std::to_string(dims), config, nullptr,
                         Algos({"SB", "BruteForce", "Chain"})});
    }
    sections.push_back(std::move(s));
  }
  return sections;
}

// --- Figure 10: effect of the function cardinality |F| ---------------
std::vector<FigureSection> Fig10() {
  FigureSection s;
  s.title = "Figure 10: effect of function cardinality |F|";
  s.subtitle = "anti-correlated, |O|=100k, D=4, x = |F| (paper-scale)";
  for (int nf : {1000, 2500, 5000, 10000, 20000}) {
    BenchConfig config;
    config.num_functions = nf;
    config = Scale(config);
    s.cells.push_back({std::to_string(nf), config, nullptr,
                       Algos({"SB", "BruteForce", "Chain"})});
  }
  return {s};
}

// --- Figure 11: effect of the object cardinality |O| -----------------
std::vector<FigureSection> Fig11() {
  FigureSection s;
  s.title = "Figure 11: effect of object cardinality |O|";
  s.subtitle = "anti-correlated, |F|=5k, D=4, x = |O| (paper-scale)";
  for (int no : {10000, 50000, 100000, 200000, 400000}) {
    BenchConfig config;
    config.num_objects = no;
    config = Scale(config);
    s.cells.push_back({std::to_string(no), config, nullptr,
                       Algos({"SB", "BruteForce", "Chain"})});
  }
  return {s};
}

// --- Figure 12: effect of the preference weight distribution —
// functions drawn from C Gaussian clusters (stddev 0.05) on the weight
// simplex.
std::vector<FigureSection> Fig12() {
  FigureSection s;
  s.title = "Figure 12: effect of the function distribution";
  s.subtitle = "anti-correlated, |F|=5k, |O|=100k, D=4, x = clusters C";
  for (int clusters : {1, 3, 5, 7, 9}) {
    BenchConfig config;
    config.weight_clusters = clusters;
    config = Scale(config);
    s.cells.push_back({std::to_string(clusters), config, nullptr,
                       Algos({"SB", "BruteForce", "Chain"})});
  }
  return {s};
}

// --- Figure 13: effect of the LRU buffer size (fraction of the object
// R-tree file). SB's I/O is flat (it never re-reads a node); the
// competitors improve with larger buffers.
std::vector<FigureSection> Fig13() {
  FigureSection s;
  s.title = "Figure 13: effect of the buffer size";
  s.subtitle = "anti-correlated, |F|=5k, |O|=100k, D=4, x = buffer %";
  for (double buffer : {0.0, 0.01, 0.02, 0.05, 0.10}) {
    BenchConfig config;
    config.buffer_fraction = buffer;
    config = Scale(config);
    char label[16];
    std::snprintf(label, sizeof(label), "%.0f%%", buffer * 100);
    s.cells.push_back(
        {label, config, nullptr, Algos({"SB", "BruteForce", "Chain"})});
  }
  return {s};
}

// --- Figure 14: capacitated assignment. (a,b) functions with capacity
// k — the problem grows to k*|F| pairs; (c,d) objects with capacity k —
// fewer searches and skyline updates are needed.
std::vector<FigureSection> Fig14Functions() {
  FigureSection s;
  s.title = "Figure 14(a,b): effect of function capacity";
  s.subtitle = "anti-correlated, |F|=5k, |O|=100k, D=4, x = capacity k";
  for (int k : {2, 4, 8, 16}) {
    BenchConfig config;
    config.function_capacity = k;
    config = Scale(config);
    s.cells.push_back({std::to_string(k), config, nullptr,
                       Algos({"SB", "BruteForce", "Chain"})});
  }
  return {s};
}

std::vector<FigureSection> Fig14Objects() {
  FigureSection s;
  s.title = "Figure 14(c,d): effect of object capacity";
  s.subtitle = "anti-correlated, |F|=5k, |O|=100k, D=4, x = capacity k";
  for (int k : {2, 4, 8, 16}) {
    BenchConfig config;
    config.object_capacity = k;
    config = Scale(config);
    s.cells.push_back({std::to_string(k), config, nullptr,
                       Algos({"SB", "BruteForce", "Chain"})});
  }
  return {s};
}

// --- Figure 15: prioritized functions (gamma uniform in [1, max]) —
// standard SB (whose TA threshold gets loose) vs the two-skyline
// variant of Section 6.2.
std::vector<FigureSection> Fig15() {
  FigureSection s;
  s.title = "Figure 15: effect of function priorities";
  s.subtitle = "anti-correlated, |F|=5k, |O|=100k, D=4, x = max gamma";
  for (int gamma : {2, 4, 8, 16}) {
    BenchConfig config;
    config.max_gamma = gamma;
    config = Scale(config);
    s.cells.push_back(
        {std::to_string(gamma), config, nullptr,
         Algos({"SB", "SB-TwoSkylines", "BruteForce", "Chain"})});
  }
  return {s};
}

// --- Figure 16: real-data experiments. (a,b) Zillow-like objects with
// varying |O|; (c,d) NBA-like objects with capacitated functions.
// See DESIGN.md "Substitutions" for the dataset stand-ins.
std::vector<FigureSection> Fig16Zillow() {
  FigureSection s;
  s.title = "Figure 16(a,b): Zillow, effect of |O|";
  s.subtitle = "Zillow-like 5-attr objects, |F|=5k, x = |O| (paper-scale)";
  auto all_points = std::make_shared<const std::vector<Point>>(
      ZillowSim(Scaled(400000, 2000), 424242));
  for (int no : {10000, 50000, 100000, 200000, 400000}) {
    BenchConfig config;
    config.dims = 5;
    config.num_objects = no;
    config = Scale(config);
    config.points_override = all_points.get();
    s.cells.push_back({std::to_string(no), config, all_points,
                       Algos({"SB", "BruteForce", "Chain"})});
  }
  return {s};
}

std::vector<FigureSection> Fig16Nba() {
  FigureSection s;
  s.title = "Figure 16(c,d): NBA, capacitated functions";
  s.subtitle = "NBA-like 5-attr objects (12278), |F|=1000, x = capacity k";
  auto nba =
      std::make_shared<const std::vector<Point>>(NbaSim(kNbaSize, 616161));
  for (int k : {1, 5, 9, 12}) {
    BenchConfig config;
    config.dims = 5;
    config.num_objects = static_cast<int>(nba->size());
    config.num_functions = Scaled(1000, 10);
    config.function_capacity = k;
    config.points_override = nba.get();
    s.cells.push_back({std::to_string(k), config, nba,
                       Algos({"SB", "BruteForce", "Chain"})});
  }
  return {s};
}

// --- Figure 17: disk-resident functions (Section 7.6). The
// cardinalities of F and O are swapped relative to the defaults: at
// paper scale |F|=100k on the simulated disk (sorted coefficient
// lists), |O|=5k in a main-memory R-tree. SB-alt's batch best-pair
// search saves the I/O.
std::vector<FigureSection> Fig17() {
  BenchConfig sizes;
  sizes.num_functions = 100000;
  sizes.num_objects = 5000;
  sizes = Scale(sizes);
  std::vector<FigureSection> sections;
  for (Distribution dist :
       {Distribution::kIndependent, Distribution::kAntiCorrelated}) {
    FigureSection s;
    s.key = DistributionName(dist);
    s.title = std::string("Figure 17: disk-resident F (") +
              DistributionName(dist) + ")";
    s.subtitle = "|F|=" + std::to_string(sizes.num_functions) +
                 " on disk, |O|=" + std::to_string(sizes.num_objects) +
                 " in memory, x = dimensionality D";
    for (int dims : {3, 4, 5, 6}) {
      BenchConfig config = sizes;
      config.dims = dims;
      config.distribution = dist;
      config.disk_resident_functions = true;
      s.cells.push_back({std::to_string(dims), config, nullptr,
                         Algos({"SB", "SB-alt", "BruteForce", "Chain"})});
    }
    sections.push_back(std::move(s));
  }
  return sections;
}

// --- Ablation (ours, beyond the paper's figures): isolates each SB
// design choice called out in DESIGN.md — the Omega queue cap, biased
// vs round-robin probing, resumable searches, and multi-pair loops.
// Option-level sweeps are SBOptions knobs, not registry variants, so
// these cells carry custom runners — instrumented through the same
// ExecContext protocol as bench::Run.
RunStats RunSBWith(const AssignmentProblem& problem,
                   const BenchConfig& config, const SBOptions& options) {
  ExecContext ctx;
  ctx.set_parallel(false);  // one core, as bench::Run
  PagedNodeStore store(problem.dims, 4096, &ctx.counters());
  RTree tree(&store);
  BuildObjectTree(problem, &tree);
  store.ResetCounters();
  store.SetBufferFraction(config.buffer_fraction);
  ctx.BeginRun();
  SBAssignment sb(&problem, &tree, options, nullptr, &ctx);
  AssignResult result = sb.Run();
  result.stats.algorithm = "SB";
  result.stats.pairs = result.matching.size();
  ctx.Finish(&result.stats);
  return result.stats;
}

FigureCell SBCell(std::string x, const BenchConfig& config,
                  const SBOptions& options) {
  MeasuredRun run;
  run.algorithm = "SB";
  run.runner = [options](const AssignmentProblem& problem,
                         const BenchConfig& c) {
    return RunSBWith(problem, c, options);
  };
  return {std::move(x), config, nullptr, {std::move(run)}};
}

std::vector<FigureSection> AblationSB() {
  BenchConfig config;
  config = Scale(config);

  FigureSection omega;
  omega.key = "omega";
  omega.title = "Ablation A: Omega (resume-queue capacity, % of |F|)";
  omega.subtitle = "anti-correlated defaults; x = omega";
  for (double value : {0.005, 0.01, 0.025, 0.05, 0.10}) {
    SBOptions options;
    options.ta.omega = value;
    char label[16];
    std::snprintf(label, sizeof(label), "%.1f%%", value * 100);
    omega.cells.push_back(SBCell(label, config, options));
  }

  FigureSection probing;
  probing.key = "probing";
  probing.title = "Ablation B: TA probing and resume strategy";
  probing.subtitle = "anti-correlated defaults; x = strategy";
  {
    SBOptions options;
    probing.cells.push_back(SBCell("biased", config, options));
  }
  {
    SBOptions options;
    options.ta.biased_probing = false;
    probing.cells.push_back(SBCell("round-robin", config, options));
  }
  {
    SBOptions options;
    options.ta.resume = false;
    probing.cells.push_back(SBCell("no-resume", config, options));
  }

  FigureSection pairs;
  pairs.key = "multi-pair";
  pairs.title = "Ablation C: multiple pairs per loop (Section 5.3)";
  pairs.subtitle = "anti-correlated defaults; x = mode";
  {
    SBOptions options;
    pairs.cells.push_back(SBCell("multi-pair", config, options));
  }
  {
    SBOptions options;
    options.multi_pair = false;
    pairs.cells.push_back(SBCell("single-pair", config, options));
  }

  return {std::move(omega), std::move(probing), std::move(pairs)};
}

}  // namespace

void RegisterBuiltinFigures(FigureRegistry* registry) {
  registry->Register(Spec(
      "fig08_optimizations",
      "Effect of the Section 5 optimization techniques (SB ablations)",
      Fig08));
  registry->Register(Spec(
      "fig09_dimensionality",
      "Effect of dimensionality D on all three synthetic distributions",
      Fig09));
  registry->Register(Spec("fig10_function_cardinality",
                          "Effect of the function cardinality |F|", Fig10));
  registry->Register(Spec("fig11_object_cardinality",
                          "Effect of the object cardinality |O|", Fig11));
  registry->Register(Spec("fig12_function_distribution",
                          "Effect of clustered preference weights", Fig12));
  registry->Register(
      Spec("fig13_buffer_size", "Effect of the LRU buffer size", Fig13));
  registry->Register(Spec("fig14_function_capacity",
                          "Capacitated functions (Figure 14 a,b)",
                          Fig14Functions));
  registry->Register(Spec("fig14_object_capacity",
                          "Capacitated objects (Figure 14 c,d)",
                          Fig14Objects));
  registry->Register(Spec(
      "fig15_priority",
      "Prioritized functions: SB vs the two-skyline variant", Fig15));
  registry->Register(Spec("fig16_zillow",
                          "Zillow-like real data, effect of |O| "
                          "(Figure 16 a,b)",
                          Fig16Zillow));
  registry->Register(Spec("fig16_nba",
                          "NBA-like real data, capacitated functions "
                          "(Figure 16 c,d)",
                          Fig16Nba));
  registry->Register(Spec("fig17_disk_functions",
                          "Disk-resident function lists (Section 7.6)",
                          Fig17));
  registry->Register(Spec("ablation_sb",
                          "SB design-choice ablation (omega, probing, "
                          "multi-pair)",
                          AblationSB));
}

}  // namespace fairmatch::bench

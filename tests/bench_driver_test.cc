// The fairmatch_bench driver: figure registry completeness, up-front
// validation (clean errors instead of abort()), and golden checks of
// the CSV/JSON report shapes a smoke-scale figure produces, and the
// figures' declared report invariants.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/driver.h"
#include "driver/figure_registry.h"
#include "driver/invariants.h"
#include "driver/report.h"

namespace fairmatch::bench {
namespace {

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

/// Parses a non-negative decimal number (integer or fixed-point).
bool NonNegativeNumber(const std::string& field) {
  if (field.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(field.c_str(), &end);
  return end == field.c_str() + field.size() && value >= 0.0;
}

class BenchDriverTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(SetScale("smoke")); }

  std::vector<ReportRow> RunFigure(const std::string& name, int repeat,
                                   std::vector<ReportSink*> sinks) {
    std::string error;
    std::vector<FigurePlan> plan = PlanFigures({name}, &error);
    EXPECT_EQ(error, "");
    // A collector on top of the caller's sinks.
    class Collector : public ReportSink {
     public:
      void AddRow(const ReportRow& row) override { rows.push_back(row); }
      std::vector<ReportRow> rows;
    } collector;
    sinks.push_back(&collector);
    RunPlan(plan, repeat, sinks, nullptr);
    return collector.rows;
  }

  /// One smoke run of `name`, shared by every test that reads it.
  const std::vector<ReportRow>& SmokeRows(const std::string& name) {
    static std::map<std::string, std::vector<ReportRow>> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
      it = cache.emplace(name, RunFigure(name, 1, {})).first;
    }
    return it->second;
  }
};

TEST_F(BenchDriverTest, RegistryHasAllBuiltinFigures) {
  const std::vector<std::string> expected = {
      "ablation_sb",
      "fault_recovery",
      "fig08_optimizations",
      "fig09_dimensionality",
      "fig10_function_cardinality",
      "fig11_object_cardinality",
      "fig12_function_distribution",
      "fig13_buffer_size",
      "fig14_function_capacity",
      "fig14_object_capacity",
      "fig15_priority",
      "fig16_nba",
      "fig16_zillow",
      "fig17_disk_functions",
      "micro_bbs",
      "micro_buffer_pool",
      "micro_packed_probe",
      "micro_reverse_top1",
      "micro_simd_score",
      "recovery_time",
      "scale_sweep",
      "serving_latency",
      "update_throughput",
  };
  EXPECT_EQ(FigureRegistry::Global().Names(), expected);
  for (const std::string& name : expected) {
    const FigureSpec* spec = FigureRegistry::Global().Find(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_FALSE(spec->description.empty()) << name;
    ASSERT_NE(spec->sections, nullptr) << name;
  }
}

TEST_F(BenchDriverTest, PlanRejectsUnknownFigureWithListing) {
  std::string error;
  EXPECT_TRUE(PlanFigures({"fig99_nope"}, &error).empty());
  EXPECT_NE(error.find("unknown figure 'fig99_nope'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("fig08_optimizations"), std::string::npos) << error;
}

TEST_F(BenchDriverTest, CheckRunnableReportsCleanDiagnostics) {
  BenchConfig config;
  EXPECT_EQ(CheckRunnable("SB", config), "");
  const std::string unknown = CheckRunnable("NoSuchMatcher", config);
  EXPECT_NE(unknown.find("unknown matcher"), std::string::npos);
  EXPECT_NE(unknown.find("SB"), std::string::npos);  // registry listing
  EXPECT_NE(CheckRunnable("SB-alt", config).find("disk-resident"),
            std::string::npos);
  EXPECT_NE(CheckRunnable("Naive", config).find("reference oracle"),
            std::string::npos);
}

TEST_F(BenchDriverTest, PlanExpandsEveryFigure) {
  std::string error;
  const std::vector<FigurePlan> plan = PlanFigures({"all"}, &error);
  ASSERT_EQ(error, "");
  EXPECT_EQ(plan.size(), FigureRegistry::Global().size());
  for (const FigurePlan& figure : plan) {
    EXPECT_FALSE(figure.sections.empty()) << figure.name;
    for (const FigureSection& section : figure.sections) {
      EXPECT_FALSE(section.cells.empty()) << figure.name;
      for (const FigureCell& cell : section.cells) {
        EXPECT_FALSE(cell.x.empty()) << figure.name;
        EXPECT_FALSE(cell.runs.empty()) << figure.name;
      }
    }
  }
}

TEST_F(BenchDriverTest, CsvGolden) {
  std::ostringstream csv;
  ReportMeta meta{ScaleName(), "testsha", 1};
  CsvSink sink(&csv, meta);
  RunFigure("fig08_optimizations", 1, {&sink});

  const std::vector<std::string> lines = SplitLines(csv.str());
  ASSERT_EQ(lines.size(),
            1u + 3 * 3);  // header + 3 dims x {SB, UpdateSkyline, DeltaSky}
  EXPECT_EQ(lines[0],
            "figure,section,x,algorithm,io_accesses,cpu_ms,cpu_ms_min,"
            "cpu_ms_stddev,mem_mb,pairs,loops,seed,scale,git_sha");
  EXPECT_EQ(lines[0], CsvHeader());

  const std::set<std::string> algos = {"SB", "SB-UpdateSkyline",
                                       "SB-DeltaSky"};
  const std::set<std::string> xs = {"3", "4", "5"};
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string> f = SplitFields(lines[i]);
    ASSERT_EQ(f.size(), 14u) << lines[i];
    EXPECT_EQ(f[0], "fig08_optimizations");
    EXPECT_EQ(f[1], "");  // single-section figure
    EXPECT_EQ(xs.count(f[2]), 1u) << f[2];
    EXPECT_EQ(algos.count(f[3]), 1u) << f[3];
    for (int n = 4; n <= 11; ++n) {
      EXPECT_TRUE(NonNegativeNumber(f[n])) << lines[i];
    }
    EXPECT_EQ(f[12], "smoke");
    EXPECT_EQ(f[13], "testsha");
  }
}

TEST_F(BenchDriverTest, JsonSchema) {
  std::ostringstream json;
  ReportMeta meta{ScaleName(), "testsha", 2};
  JsonSink sink(&json, meta);
  const std::vector<ReportRow> rows =
      RunFigure("fig08_optimizations", 1, {&sink});
  const std::string doc = json.str();

  EXPECT_NE(doc.find("\"schema\": \"fairmatch-bench/v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"scale\": \"smoke\""), std::string::npos);
  EXPECT_NE(doc.find("\"git_sha\": \"testsha\""), std::string::npos);
  EXPECT_NE(doc.find("\"repeat\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"figures\": {"), std::string::npos);
  EXPECT_NE(doc.find("\"fig08_optimizations\": ["), std::string::npos);
  for (const char* key :
       {"\"section\"", "\"x\"", "\"algorithm\"", "\"io_accesses\"",
        "\"cpu_ms\"", "\"cpu_ms_min\"", "\"cpu_ms_stddev\"", "\"mem_mb\"",
        "\"pairs\"", "\"loops\"", "\"seed\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  }
  // One row object per measurement (plus the document and "figures"
  // objects), balanced braces, no NaN/negatives.
  EXPECT_EQ(static_cast<size_t>(std::count(doc.begin(), doc.end(), '{')),
            2u + rows.size());
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  EXPECT_EQ(doc.find("nan"), std::string::npos);
  EXPECT_EQ(doc.find(": -"), std::string::npos);
}

// The repeat-spread columns: cpu_ms_min is the fastest sample (never
// above the median), the stddev is non-negative, and with repeat=1
// both collapse (min == median, stddev == 0) so single-run reports
// stay self-consistent.
TEST_F(BenchDriverTest, RepeatRowsCarryMinAndStddev) {
  const std::vector<ReportRow> once = RunFigure("fig08_optimizations", 1, {});
  for (const ReportRow& row : once) {
    EXPECT_EQ(row.cpu_ms_min, row.cpu_ms) << row.algorithm;
    EXPECT_EQ(row.cpu_ms_stddev, 0.0) << row.algorithm;
  }
  const std::vector<ReportRow> thrice =
      RunFigure("fig08_optimizations", 3, {});
  for (const ReportRow& row : thrice) {
    EXPECT_LE(row.cpu_ms_min, row.cpu_ms) << row.algorithm;
    EXPECT_GE(row.cpu_ms_stddev, 0.0) << row.algorithm;
  }
}

TEST_F(BenchDriverTest, RowsCarryDeterministicFieldsAcrossRepeats) {
  const std::vector<ReportRow> once = RunFigure("fig08_optimizations", 1, {});
  const std::vector<ReportRow> thrice =
      RunFigure("fig08_optimizations", 3, {});
  ASSERT_EQ(once.size(), thrice.size());
  for (size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(once[i].figure, thrice[i].figure);
    EXPECT_EQ(once[i].x, thrice[i].x);
    EXPECT_EQ(once[i].algorithm, thrice[i].algorithm);
    // Everything but the clock is deterministic, so the median-of-3
    // must reproduce the single run exactly.
    EXPECT_EQ(once[i].io_accesses, thrice[i].io_accesses);
    EXPECT_EQ(once[i].pairs, thrice[i].pairs);
    EXPECT_EQ(once[i].loops, thrice[i].loops);
    EXPECT_EQ(once[i].seed, thrice[i].seed);
    EXPECT_GT(once[i].pairs, 0u);
  }
}

// Every failure of `figure`'s declared invariants on `rows`, one line
// each; empty when they all hold.
std::string Failures(const std::string& figure,
                     const std::vector<ReportRow>& rows) {
  const FigureSpec* spec = FigureRegistry::Global().Find(figure);
  EXPECT_NE(spec, nullptr) << figure;
  if (spec == nullptr) return "unknown figure";
  std::string lines;
  for (const InvariantFailure& failure :
       CheckInvariants(figure, spec->invariants, rows)) {
    lines += Describe(failure) + "\n";
  }
  return lines;
}

// The serving figure: its sections and cells, and its declared
// invariants (deterministic columns identical across every lane count
// and arrival rate, an exact overload partition) hold — the invariant
// tests/serve_test.cc proves at the engine layer, asserted on the
// report surface.
TEST_F(BenchDriverTest, ServingLatencyRowsAreLaneAndRateInvariant) {
  const std::vector<ReportRow>& rows = SmokeRows("serving_latency");
  std::set<std::string> sections;
  std::map<std::string, int> rate_rows;
  for (const ReportRow& row : rows) {
    EXPECT_EQ(row.figure, "serving_latency");
    sections.insert(row.section);
    if (row.section.rfind("rate", 0) == 0) {
      ++rate_rows[row.algorithm];
      EXPECT_GT(row.pairs, 0u) << row.section << "/" << row.algorithm;
    }
  }
  EXPECT_EQ(sections, (std::set<std::string>{"rate100", "rate400", "open",
                                             "overload"}));
  const std::set<std::string> expected_algos = {
      "SB",     "SB:p99",        "SB-Packed", "SB-Packed:p99",
      "SB-alt", "SB-alt:p99",    "mix:throughput"};
  ASSERT_EQ(rate_rows.size(), expected_algos.size());
  for (const auto& [algo, count] : rate_rows) {
    EXPECT_EQ(expected_algos.count(algo), 1u) << algo;
    EXPECT_EQ(count, 6) << algo;  // 2 rates x 3 lane counts
  }
  // 2 rates x 3 lanes x 7 rows + 2 open rows + 4 overload rows.
  EXPECT_EQ(rows.size(), 2u * 3 * 7 + 2 + 4);
  EXPECT_EQ(Failures("serving_latency", rows), "");

  // Empty responses at every lane count and rate are lane- and
  // rate-invariant, yet still break the figure's promises.
  std::vector<ReportRow> emptied = rows;
  for (ReportRow& row : emptied) {
    if (row.section.rfind("rate", 0) == 0) row.pairs = 0;
  }
  EXPECT_NE(Failures("serving_latency", emptied)
                .find("serving_latency section=rate100 x=1 algorithm=SB "
                      "field=pairs: "),
            std::string::npos);
}

// Each figure that declares invariants keeps them on its smoke rows,
// and one perturbed deterministic cell breaks them with a failure that
// names the figure, section, x and field of the perturbed row.
class FigureInvariantTest : public BenchDriverTest,
                            public ::testing::WithParamInterface<const char*> {
};

TEST_P(FigureInvariantTest, HoldOnSmokeRowsAndNameAPerturbedCell) {
  const std::string figure = GetParam();
  ASSERT_FALSE(FigureRegistry::Global().Find(figure)->invariants.empty());
  std::vector<ReportRow> rows = SmokeRows(figure);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(Failures(figure, rows), "");

  // The last row is never the first of its group, so the failure names
  // it rather than the rows it is compared with.
  ReportRow& perturbed = rows.back();
  perturbed.pairs += 1;
  const std::string failures = Failures(figure, rows);
  const std::string section =
      perturbed.section.empty() ? "-" : perturbed.section;
  EXPECT_NE(failures.find(figure + " section=" + section + " x=" +
                          perturbed.x + " algorithm=" +
                          perturbed.algorithm + " field=pairs: "),
            std::string::npos)
      << failures;
}

INSTANTIATE_TEST_SUITE_P(
    DeclaredInvariants, FigureInvariantTest,
    ::testing::Values("micro_packed_probe", "scale_sweep", "serving_latency",
                      "fault_recovery", "update_throughput",
                      "recovery_time"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

/// A figure whose custom runner breaks its own invariant: the "drift"
/// row's pairs grow with x although the figure promises they do not.
FigureSpec DriftingFigure(const std::string& name) {
  FigureSpec spec;
  spec.name = name;
  spec.description = "a figure that breaks its own invariant";
  spec.sections = [] {
    FigureSection section;
    section.key = "lanes";
    BenchConfig config;
    config.num_functions = 1;
    config.num_objects = 1;
    for (const int x : {1, 2}) {
      MeasuredRun run;
      run.algorithm = "drift";
      run.runner = [x](const AssignmentProblem&, const BenchConfig&) {
        RunStats stats;
        stats.algorithm = "drift";
        stats.pairs = static_cast<size_t>(x);
        return stats;
      };
      section.cells.push_back({std::to_string(x), config, nullptr, {run}});
    }
    return std::vector<FigureSection>{section};
  };
  spec.invariants = {SameColumns(nullptr, ByAlgorithm, {Column::kPairs})};
  return spec;
}

TEST_F(BenchDriverTest, RunPlanReportsABrokenInvariantAndKeepsTheRows) {
  const FigureSpec spec = DriftingFigure("drifting");
  const std::vector<FigurePlan> plan = {
      {spec.name, spec.sections(), spec.invariants}};
  std::ostringstream csv;
  CsvSink sink(&csv, ReportMeta{ScaleName(), "testsha", 1});
  const std::vector<InvariantFailure> failures =
      RunPlan(plan, 1, {&sink}, nullptr);

  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].figure, "drifting");
  EXPECT_EQ(failures[0].section, "lanes");
  EXPECT_EQ(failures[0].x, "2");
  EXPECT_EQ(failures[0].algorithm, "drift");
  EXPECT_EQ(failures[0].field, "pairs");
  EXPECT_EQ(SplitLines(csv.str()).size(), 1u + 2);  // header + both rows
}

/// Restores a registry entry on scope exit.
struct RegistryEntryGuard {
  explicit RegistryEntryGuard(const std::string& name)
      : saved(*FigureRegistry::Global().Find(name)) {}
  ~RegistryEntryGuard() { FigureRegistry::Global().Register(saved); }
  FigureSpec saved;
};

// The binary's exit code for a broken invariant is 3, distinct from I/O
// failures (1) and invalid options (2), and the report is still written
// in full. RunDriver only runs registered figures, so the drifting
// figure stands in for a registered one for the length of the test.
TEST_F(BenchDriverTest, RunDriverExitsThreeOnABrokenInvariant) {
  RegistryEntryGuard guard("micro_bbs");
  FigureRegistry::Global().Register(DriftingFigure("micro_bbs"));
  const std::string out_path =
      ::testing::TempDir() + "/fairmatch_broken_invariant.csv";
  DriverOptions options;
  options.figures = {"micro_bbs"};
  options.scale = "smoke";
  options.format = "csv";
  options.out_path = out_path;
  EXPECT_EQ(RunDriver(options), 3);

  std::ifstream in(out_path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::vector<std::string> lines = SplitLines(buffer.str());
  ASSERT_EQ(lines.size(), 1u + 2);
  EXPECT_EQ(lines[0], CsvHeader());
  for (size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(SplitFields(lines[i])[3], "drift") << lines[i];
  }
  std::remove(out_path.c_str());
}

TEST_F(BenchDriverTest, AblationRunsThroughCustomRunners) {
  const std::vector<ReportRow> rows = RunFigure("ablation_sb", 1, {});
  ASSERT_EQ(rows.size(), 10u);  // 5 omega + 3 probing + 2 multi-pair
  std::set<std::string> sections;
  for (const ReportRow& row : rows) {
    sections.insert(row.section);
    EXPECT_EQ(row.algorithm, "SB");
    EXPECT_GT(row.pairs, 0u);
  }
  EXPECT_EQ(sections,
            (std::set<std::string>{"omega", "probing", "multi-pair"}));
}

}  // namespace
}  // namespace fairmatch::bench

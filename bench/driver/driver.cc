#include "driver/driver.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <utility>

#include "fairmatch/common/check.h"

namespace fairmatch::bench {

namespace {

template <typename T>
T Median(std::vector<T> values) {
  FAIRMATCH_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

/// Per-field median: with repeat=1 this is the sample itself; the
/// deterministic fields (io, pairs, loops) are identical across
/// repeats anyway, so the median only smooths cpu_ms and mem_mb. The
/// cpu_ms spread (min + population stddev over the repeat samples)
/// rides along so report artifacts carry reproducible perf deltas.
ReportRow Aggregate(const std::string& figure, const FigureSection& section,
                    const FigureCell& cell, const std::string& algorithm,
                    const std::vector<RunStats>& samples) {
  ReportRow row;
  row.figure = figure;
  row.section = section.key;
  row.x = cell.x;
  row.algorithm = algorithm;
  row.seed = cell.config.seed;
  std::vector<int64_t> io, loops;
  std::vector<double> cpu, mem;
  std::vector<uint64_t> pairs;
  for (const RunStats& s : samples) {
    io.push_back(s.io_accesses);
    loops.push_back(s.loops);
    cpu.push_back(s.cpu_ms);
    mem.push_back(s.peak_memory_mb());
    pairs.push_back(s.pairs);
  }
  row.io_accesses = Median(io);
  row.loops = Median(loops);
  row.cpu_ms = Median(cpu);
  row.mem_mb = Median(mem);
  row.pairs = Median(pairs);
  row.cpu_ms_min = *std::min_element(cpu.begin(), cpu.end());
  double mean = 0.0;
  for (double c : cpu) mean += c;
  mean /= static_cast<double>(cpu.size());
  double var = 0.0;
  for (double c : cpu) var += (c - mean) * (c - mean);
  row.cpu_ms_stddev = std::sqrt(var / static_cast<double>(cpu.size()));
  return row;
}

std::string FigureListing() {
  std::string listing = "registered figures:";
  for (const std::string& name : FigureRegistry::Global().Names()) {
    listing += "\n  " + name;
  }
  return listing;
}

}  // namespace

std::vector<FigurePlan> PlanFigures(const std::vector<std::string>& names,
                                    std::string* error) {
  const FigureRegistry& registry = FigureRegistry::Global();
  std::vector<std::string> selected = names;
  // "all" anywhere in the list selects every registered figure.
  if (selected.empty() ||
      std::find(selected.begin(), selected.end(), "all") != selected.end()) {
    selected = registry.Names();
  }
  std::vector<FigurePlan> plan;
  for (const std::string& name : selected) {
    const FigureSpec* spec = registry.Find(name);
    if (spec == nullptr) {
      *error = "unknown figure '" + name + "'; " + FigureListing();
      return {};
    }
    FigurePlan figure;
    figure.name = name;
    figure.sections = spec->sections();
    figure.invariants = spec->invariants;
    // Validate every registry-matcher run before anything executes, so
    // a misconfigured figure is a clean exit, not an abort mid-sweep.
    for (const FigureSection& section : figure.sections) {
      for (const FigureCell& cell : section.cells) {
        for (const MeasuredRun& run : cell.runs) {
          if (run.runner != nullptr) continue;
          const std::string message =
              CheckRunnable(run.algorithm, cell.config);
          if (!message.empty()) {
            *error = "figure '" + name + "': " + message;
            return {};
          }
        }
      }
    }
    plan.push_back(std::move(figure));
  }
  error->clear();
  return plan;
}

std::vector<InvariantFailure> RunPlan(const std::vector<FigurePlan>& plan,
                                      int repeat,
                                      const std::vector<ReportSink*>& sinks,
                                      std::ostream* progress) {
  FAIRMATCH_CHECK(repeat >= 1);
  std::vector<InvariantFailure> failures;
  // Consecutive cells often share a problem instance (the ablation
  // sweeps options over one instance; multi-algorithm cells always
  // do) — generate once and reuse.
  std::optional<AssignmentProblem> problem;
  BenchConfig generated_config;
  for (const FigurePlan& figure : plan) {
    std::vector<ReportRow> rows;
    for (const FigureSection& section : figure.sections) {
      if (progress != nullptr) {
        *progress << "[" << figure.name
                  << (section.key.empty() ? "" : "/" + section.key) << "] "
                  << section.title << std::endl;
      }
      for (ReportSink* sink : sinks) {
        sink->BeginSection(section.title, section.subtitle);
      }
      for (const FigureCell& cell : section.cells) {
        if (!problem.has_value() ||
            !SameProblemInputs(generated_config, cell.config)) {
          problem.emplace(BuildProblem(cell.config));
          generated_config = cell.config;
        }
        for (const MeasuredRun& run : cell.runs) {
          std::vector<RunStats> samples;
          samples.reserve(repeat);
          for (int r = 0; r < repeat; ++r) {
            samples.push_back(run.runner != nullptr
                                  ? run.runner(*problem, cell.config)
                                  : Run(run.algorithm, *problem,
                                        cell.config));
          }
          const ReportRow row =
              Aggregate(figure.name, section, cell, run.algorithm, samples);
          for (ReportSink* sink : sinks) sink->AddRow(row);
          rows.push_back(row);
        }
      }
    }
    for (InvariantFailure& failure :
         CheckInvariants(figure.name, figure.invariants, rows)) {
      failures.push_back(std::move(failure));
    }
  }
  for (ReportSink* sink : sinks) sink->Close();
  return failures;
}

int RunDriver(const DriverOptions& options) {
  if (!options.scale.empty() && !SetScale(options.scale)) {
    std::cerr << "unknown scale '" << options.scale
              << "'; expected paper, quick or smoke\n";
    return 2;
  }
  if (options.repeat < 1) {
    std::cerr << "--repeat must be >= 1\n";
    return 2;
  }
  if (options.format != "text" && options.format != "csv" &&
      options.format != "json") {
    std::cerr << "unknown format '" << options.format
              << "'; expected text, csv or json\n";
    return 2;
  }

  std::string error;
  const std::vector<FigurePlan> plan = PlanFigures(options.figures, &error);
  if (!error.empty()) {
    std::cerr << error << "\n";
    return 2;
  }

  const ReportMeta meta{ScaleName(), GitSha(), options.repeat};

  // Assemble the sinks: the primary format to --out (or stdout), plus
  // the optional extra CSV/JSON copies.
  std::vector<std::unique_ptr<std::ofstream>> files;
  auto open = [&files](const std::string& path) -> std::ostream* {
    files.push_back(std::make_unique<std::ofstream>(path));
    return files.back()->is_open() ? files.back().get() : nullptr;
  };
  std::vector<std::unique_ptr<ReportSink>> owned;
  std::vector<ReportSink*> sinks;
  auto add = [&](const std::string& format,
                 std::ostream* out) -> std::unique_ptr<ReportSink> {
    if (format == "csv") return std::make_unique<CsvSink>(out, meta);
    if (format == "json") return std::make_unique<JsonSink>(out, meta);
    return std::make_unique<TextSink>(out, meta);
  };

  std::ostream* primary = &std::cout;
  if (!options.out_path.empty()) {
    primary = open(options.out_path);
    if (primary == nullptr) {
      std::cerr << "cannot open --out path '" << options.out_path << "'\n";
      return 1;
    }
  }
  owned.push_back(add(options.format, primary));
  if (!options.csv_path.empty()) {
    std::ostream* out = open(options.csv_path);
    if (out == nullptr) {
      std::cerr << "cannot open --csv path '" << options.csv_path << "'\n";
      return 1;
    }
    owned.push_back(add("csv", out));
  }
  if (!options.json_path.empty()) {
    std::ostream* out = open(options.json_path);
    if (out == nullptr) {
      std::cerr << "cannot open --json path '" << options.json_path
                << "'\n";
      return 1;
    }
    owned.push_back(add("json", out));
  }
  for (const auto& sink : owned) sinks.push_back(sink.get());

  // Progress narration on stderr, unless the primary format already
  // streams to the terminal.
  std::ostream* progress =
      (primary == &std::cout && options.format == "text") ? nullptr
                                                          : &std::cerr;
  const std::vector<InvariantFailure> failures =
      RunPlan(plan, options.repeat, sinks, progress);
  for (const InvariantFailure& failure : failures) {
    std::cerr << "invariant failed: " << Describe(failure) << "\n";
  }

  for (const auto& file : files) {
    // Not every sink flushes as it writes (CsvSink buffers); force the
    // data out before judging stream health, or a full disk exits 0.
    file->flush();
    if (!file->good()) {
      std::cerr << "write failure on an output file\n";
      return 1;
    }
  }
  if (!failures.empty()) {
    std::cerr << failures.size() << " report invariant(s) failed\n";
    return 3;
  }
  return 0;
}

}  // namespace fairmatch::bench

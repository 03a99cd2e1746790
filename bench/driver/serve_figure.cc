// The serving_latency figure: end-to-end request latency of the
// fairmatchd serving core (src/fairmatch/serve/) under open-loop load.
//
// One section per arrival rate; the x axis is the server's lane count.
// Each cell submits the same fixed request sequence — SB (shared
// resident tree), SB-Packed (shared packed image through per-request
// views), SB-alt (per-request disk-resident function lists on the
// lane's recycled disk) round-robin — paced at the section's
// arrival rate, and reports per-matcher latency percentiles:
//
//   <m>       cpu_ms = p50 end-to-end latency (queue + execution)
//   <m>:p99   cpu_ms = p99 end-to-end latency
//   mix:throughput   cpu_ms = achieved requests/second over the run
//
// The deterministic columns keep their engine meaning and are the CI
// hook: io_accesses and pairs are totals over the row's requests, and
// loops carries a 48-bit digest of the matchings in submission order.
// Because every request runs in its own ExecContext over shared
// immutable structures, these three columns are byte-identical at
// every lane count and every arrival rate — the figure's declared
// invariants assert exactly that, turning the smoke bench into a
// concurrency determinism gate. Only the latency columns may vary.
//
// A final "open" section measures the dataset lifecycle: cold open
// (build the R-tree + packed image; cpu_ms = build wall time, mem_mb =
// resident footprint) vs warm open (share the resident structures).
//
// An "overload" section measures admission control: a registered
// BenchHold matcher pins the single lane while a burst overruns the
// bounded queue, so every rejected / timed-out / completed count is
// decided by the server's limits, not by timing — the rows are exact
// request-rate columns the declared invariants assert.
#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "driver/figure_registry.h"
#include "fairmatch/common/check.h"
#include "fairmatch/common/timer.h"
#include "fairmatch/engine/exec_context.h"
#include "fairmatch/engine/registry.h"
#include "fairmatch/serve/dataset_registry.h"
#include "fairmatch/serve/server.h"

namespace fairmatch::bench {

namespace {

/// The fixed matcher rotation every experiment serves. Covers all
/// three function backends (resident tree, packed image view, disk
/// lists on the recycled lane disk).
const char* const kServeMix[] = {"SB", "SB-Packed", "SB-alt"};
constexpr int kServeMixSize = 3;

/// Open-loop arrival rates (requests/second), one section each.
const int kArrivalPerSec[] = {100, 400};

/// Requests per experiment for the current scale.
int ServeRequests() { return Scaled(192, 24); }

/// Everything one open-loop run produces for one matcher.
struct MatcherSeries {
  std::vector<double> total_ms;  // per response, submission order
  int64_t io_accesses = 0;
  uint64_t pairs = 0;
  uint64_t digest = 1469598103934665603ull;  // FNV offset basis
};

struct ExperimentResult {
  std::map<std::string, MatcherSeries> per_matcher;
  double wall_ms = 0.0;
  int requests = 0;
};

/// Per-cell memo: rows of the same cell (and the same repeat index)
/// share one experiment run instead of re-driving the server per row.
struct ExperimentCache {
  std::vector<ExperimentResult> samples;
};

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t HashMatching(const Matching& matching) {
  uint64_t h = 1469598103934665603ull;
  for (const MatchPair& p : matching) {
    h = Fnv1a(h, static_cast<uint64_t>(p.fid));
    h = Fnv1a(h, static_cast<uint64_t>(p.oid));
  }
  return h;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index =
      static_cast<size_t>(p * static_cast<double>(values.size() - 1));
  return values[index];
}

ExperimentResult RunServeExperiment(const AssignmentProblem& problem,
                                    int lanes, int arrival_per_sec) {
  const int requests = ServeRequests();

  serve::DatasetRegistry registry;
  registry.Open("bench", problem);
  serve::ServerOptions options;
  options.lanes = lanes;
  // Admit the full request set: rejections would make the
  // deterministic columns depend on timing.
  options.max_queue = static_cast<size_t>(requests);
  serve::Server server(&registry, options);

  // Open-loop arrivals: Submit() fires on a fixed schedule regardless
  // of how far behind the lanes are (that lag IS the measured queueing).
  const auto interval =
      std::chrono::nanoseconds(1000000000ll / arrival_per_sec);
  const auto start = std::chrono::steady_clock::now();
  std::vector<serve::ResponseFuture> futures;
  futures.reserve(static_cast<size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    std::this_thread::sleep_until(start + i * interval);
    serve::Request request;
    request.dataset = "bench";
    request.matcher = kServeMix[i % kServeMixSize];
    futures.push_back(server.Submit(std::move(request)));
  }

  ExperimentResult result;
  result.requests = requests;
  for (int i = 0; i < requests; ++i) {
    const serve::Response& response =
        futures[static_cast<size_t>(i)].Wait();
    FAIRMATCH_CHECK(response.status.ok());
    MatcherSeries& series = result.per_matcher[kServeMix[i % kServeMixSize]];
    series.total_ms.push_back(response.total_ms);
    series.io_accesses += response.stats.io_accesses;
    series.pairs += response.stats.pairs;
    series.digest = Fnv1a(series.digest, HashMatching(response.matching));
  }
  result.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  server.Close();
  return result;
}

/// The repeat-aware lookup: row runners share the cell's cache; each
/// runner advances its own sample cursor so repeat r of every row reads
/// the same experiment run.
const ExperimentResult& SampleFor(
    const std::shared_ptr<ExperimentCache>& cache,
    const std::shared_ptr<size_t>& cursor, const AssignmentProblem& problem,
    int lanes, int arrival_per_sec) {
  const size_t index = (*cursor)++;
  while (cache->samples.size() <= index) {
    cache->samples.push_back(
        RunServeExperiment(problem, lanes, arrival_per_sec));
  }
  return cache->samples[index];
}

/// Holds its lane for a fixed wall interval, then succeeds. Long
/// enough that the overload burst (microseconds of Submit calls) is
/// fully adjudicated — queued or rejected — before the lane frees up.
class HoldMatcher : public Matcher {
 public:
  explicit HoldMatcher(ExecContext* ctx) : ctx_(ctx) {}
  std::string Name() const override { return "BenchHold"; }
  AssignResult Run() override {
    AssignResult result;
    result.stats.algorithm = "BenchHold";
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
    while (std::chrono::steady_clock::now() < until &&
           !(ctx_ != nullptr && ctx_->ShouldAbort())) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (ctx_ != nullptr) result.status = ctx_->status();
    return result;
  }

 private:
  ExecContext* ctx_;
};

/// Registers BenchHold once. Safe here because figures run one at a
/// time and no server lane is alive between experiments (Register is
/// not synchronized).
void EnsureHoldMatcherRegistered() {
  static const bool registered = [] {
    MatcherInfo info;
    info.name = "BenchHold";
    info.description = "bench stub: occupies a lane for a fixed interval";
    info.factory = [](const MatcherEnv& env) {
      return std::make_unique<HoldMatcher>(env.ctx);
    };
    MatcherRegistry::Global().Register(std::move(info));
    return true;
  }();
  (void)registered;
}

struct OverloadResult {
  int submitted = 0;
  int ok = 0;
  int rejected = 0;   // kOverloaded at Submit
  int deadline = 0;   // kDeadlineExceeded while queued
};

/// One lane, a 4-deep queue, a BenchHold pinning the lane, then a
/// 12-request burst with 1 ms deadlines: 4 requests queue (and expire
/// at dequeue, since the lane stays held far longer than 1 ms), 8 are
/// rejected at admission, and only the blocker completes. Every count
/// is forced by the configured limits.
OverloadResult RunOverloadExperiment(const AssignmentProblem& problem) {
  EnsureHoldMatcherRegistered();
  serve::DatasetRegistry registry;
  registry.Open("bench", problem);

  serve::ServerOptions options;
  options.lanes = 1;
  options.max_queue = 4;
  serve::Server server(&registry, options);

  serve::Request blocker;
  blocker.dataset = "bench";
  blocker.matcher = "BenchHold";
  serve::ResponseFuture held = server.Submit(blocker);
  // The burst must find the blocker *running*, not queued, or it would
  // occupy one of the four queue slots.
  while (server.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  constexpr int kBurst = 12;
  std::vector<serve::ResponseFuture> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    serve::Request request;
    request.dataset = "bench";
    request.matcher = kServeMix[i % kServeMixSize];
    request.deadline_ms = 1.0;
    futures.push_back(server.Submit(std::move(request)));
  }

  OverloadResult result;
  result.submitted = kBurst + 1;
  if (held.Wait().status.ok()) ++result.ok;
  for (serve::ResponseFuture& future : futures) {
    const serve::Response& response = future.Wait();
    if (response.status.ok()) {
      ++result.ok;
    } else if (response.status.code == ErrorCode::kOverloaded) {
      ++result.rejected;
    } else if (response.status.code == ErrorCode::kDeadlineExceeded) {
      ++result.deadline;
    }
  }
  server.Close();
  return result;
}

/// Deterministic columns shared by every row of one matcher. loops is
/// masked to 48 bits so the digest survives any double-typed JSON
/// round-trip exactly.
void FillDeterministicColumns(const MatcherSeries& series, RunStats* stats) {
  stats->io_accesses = series.io_accesses;
  stats->pairs = static_cast<size_t>(series.pairs);
  stats->loops =
      static_cast<int64_t>(series.digest & ((1ull << 48) - 1));
}

std::vector<FigureSection> ServingLatency() {
  const int requests = ServeRequests();

  // The resident dataset's shape (scaled like every figure). Modest:
  // the figure measures the serving layer, not one giant instance.
  BenchConfig shape;
  shape.num_functions = 1000;
  shape.num_objects = 20000;
  shape.dims = 3;
  shape = Scale(shape);

  std::vector<FigureSection> sections;
  for (const int rate : kArrivalPerSec) {
    FigureSection s;
    s.key = "rate" + std::to_string(rate);
    s.title = "Serving latency at " + std::to_string(rate) +
              " req/s open-loop arrivals";
    s.subtitle =
        "x = server lanes, " + std::to_string(requests) +
        " requests round-robin over SB / SB-Packed / SB-alt "
        "(cpu_ms = p50 end-to-end ms; :p99 rows = p99; mix:throughput = "
        "achieved req/s; io/pairs/loops are per-matcher totals + "
        "matching digest, identical at every x and every rate)";
    for (const int lanes : kServeLanes) {
      FigureCell cell;
      cell.x = std::to_string(lanes);
      cell.config = shape;
      auto cache = std::make_shared<ExperimentCache>();
      for (const char* name : kServeMix) {
        for (const bool p99 : {false, true}) {
          MeasuredRun run;
          run.algorithm = p99 ? std::string(name) + ":p99" : name;
          auto cursor = std::make_shared<size_t>(0);
          run.runner = [cache, cursor, name, p99, lanes, rate](
                           const AssignmentProblem& problem,
                           const BenchConfig&) {
            const ExperimentResult& sample =
                SampleFor(cache, cursor, problem, lanes, rate);
            const MatcherSeries& series = sample.per_matcher.at(name);
            RunStats stats;
            stats.algorithm = name;
            stats.cpu_ms = Percentile(series.total_ms, p99 ? 0.99 : 0.50);
            FillDeterministicColumns(series, &stats);
            return stats;
          };
          cell.runs.push_back(std::move(run));
        }
      }
      {
        MeasuredRun run;
        run.algorithm = "mix:throughput";
        auto cursor = std::make_shared<size_t>(0);
        run.runner = [cache, cursor, lanes, rate](
                         const AssignmentProblem& problem,
                         const BenchConfig&) {
          const ExperimentResult& sample =
              SampleFor(cache, cursor, problem, lanes, rate);
          RunStats stats;
          stats.algorithm = "mix:throughput";
          stats.cpu_ms = sample.wall_ms > 0.0
                             ? 1000.0 * sample.requests / sample.wall_ms
                             : 0.0;
          // Whole-mix totals/digest: one more lane-invariant line.
          uint64_t digest = 1469598103934665603ull;
          for (const auto& [name, series] : sample.per_matcher) {
            stats.io_accesses += series.io_accesses;
            stats.pairs += static_cast<size_t>(series.pairs);
            digest = Fnv1a(digest, series.digest);
          }
          stats.loops =
              static_cast<int64_t>(digest & ((1ull << 48) - 1));
          return stats;
        };
        cell.runs.push_back(std::move(run));
      }
      s.cells.push_back(std::move(cell));
    }
    sections.push_back(std::move(s));
  }

  // Dataset lifecycle: what an open costs cold (build everything) vs
  // warm (share the resident structures).
  {
    FigureSection s;
    s.key = "open";
    s.title = "Dataset open cost: cold build vs warm share";
    s.subtitle =
        "cpu_ms = wall ms per open (cold = R-tree bulk load + packed "
        "image build; warm = registry lookup); mem_mb = resident "
        "footprint";
    for (const char* which : {"cold", "warm"}) {
      FigureCell cell;
      cell.x = which;
      cell.config = shape;
      MeasuredRun run;
      run.algorithm = "open";
      const bool warm = std::string(which) == "warm";
      run.runner = [warm](const AssignmentProblem& problem,
                          const BenchConfig&) {
        serve::DatasetRegistry registry;
        serve::DatasetHandle handle = registry.Open("bench", problem);
        RunStats stats;
        stats.algorithm = "open";
        if (warm) {
          Timer timer;
          handle = registry.Open("bench", problem);
          stats.cpu_ms = timer.ElapsedMs();
        } else {
          stats.cpu_ms = handle->build_ms();
        }
        stats.peak_memory_bytes = handle->memory_bytes();
        return stats;
      };
      cell.runs.push_back(std::move(run));
      s.cells.push_back(std::move(cell));
    }
    sections.push_back(std::move(s));
  }

  // Admission control under a deliberate overload (see file comment).
  // cpu_ms = share of submitted requests (%), io_accesses = the raw
  // count, pairs = requests submitted: exact integers the declared
  // invariants assert (ok + rejected + deadline == submitted, ...).
  {
    FigureSection s;
    s.key = "overload";
    s.title = "Admission control: burst against a held lane";
    s.subtitle =
        "1 lane pinned by BenchHold, queue bound 4, then a 12-request "
        "burst with 1 ms deadlines (cpu_ms = % of submitted, io = "
        "count, pairs = submitted; rejected = kOverloaded at Submit, "
        "deadline = expired while queued)";
    FigureCell cell;
    cell.x = "burst";
    cell.config = shape;
    auto cache = std::make_shared<std::vector<OverloadResult>>();
    struct Row {
      const char* name;
      int OverloadResult::*count;
    };
    const Row kRows[] = {{"submitted", &OverloadResult::submitted},
                         {"ok", &OverloadResult::ok},
                         {"rejected", &OverloadResult::rejected},
                         {"deadline", &OverloadResult::deadline}};
    for (const Row& row : kRows) {
      MeasuredRun run;
      run.algorithm = row.name;
      auto cursor = std::make_shared<size_t>(0);
      const char* name = row.name;
      int OverloadResult::*count = row.count;
      run.runner = [cache, cursor, name, count](
                       const AssignmentProblem& problem,
                       const BenchConfig&) {
        const size_t index = (*cursor)++;
        while (cache->size() <= index) {
          cache->push_back(RunOverloadExperiment(problem));
        }
        const OverloadResult& sample = (*cache)[index];
        RunStats stats;
        stats.algorithm = name;
        stats.cpu_ms = sample.submitted > 0
                           ? 100.0 * (sample.*count) / sample.submitted
                           : 0.0;
        stats.io_accesses = sample.*count;
        stats.pairs = static_cast<size_t>(sample.submitted);
        return stats;
      };
      cell.runs.push_back(std::move(run));
    }
    s.cells.push_back(std::move(cell));
    sections.push_back(std::move(s));
  }
  return sections;
}

}  // namespace

void RegisterServeFigure(FigureRegistry* registry) {
  FigureSpec spec;
  spec.name = "serving_latency";
  spec.description =
      "fairmatchd serving core: open-loop p50/p99 latency over lanes "
      "and arrival rates";
  spec.sections = ServingLatency;

  const RowFilter rate = [](const ReportRow& row) {
    return row.section.rfind("rate", 0) == 0;
  };
  const RowFilter open = InSection("open");
  const RowFilter overload = InSection("overload");
  spec.invariants = {
      // Every cell serves the same request sequence, so the
      // deterministic columns are lane- and rate-invariant per matcher,
      // over real sweeps of both axes.
      MinDistinct(rate, nullptr, BySection, "section", 2),
      MinDistinct(rate, nullptr, ByX, "x", 2),
      RequireRows(rate, {"SB", "SB:p99", "SB-Packed", "SB-Packed:p99",
                         "SB-alt", "SB-alt:p99", "mix:throughput"}),
      SameColumns(rate, ByAlgorithm, kDeterministicColumns),
      // Every response carries a matching. The digest starts at the FNV
      // basis, so a zero one means the column was never filled in.
      EachRow(rate, "pairs",
              [](const ReportRow& row) { return row.pairs > 0; },
              "no pair served: the responses were empty"),
      EachRow(
          [rate](const ReportRow& row) {
            return rate(row) && row.algorithm != "mix:throughput";
          },
          "loops", [](const ReportRow& row) { return row.loops != 0; },
          "zero matching digest: the digest column was not filled in"),
      // A matcher's p50 and p99 rows come from the same responses.
      SameColumns(
          rate,
          [](const ReportRow& row) {
            return ByCell(row) + "/" +
                   row.algorithm.substr(0, row.algorithm.rfind(":p99"));
          },
          kDeterministicColumns),
      // Exactly a cold and a warm open; a cold open builds a dataset.
      MinDistinct(open, nullptr, ByX, "x", 2),
      EachRow(open, "x",
              [](const ReportRow& row) {
                return row.x == "cold" || row.x == "warm";
              },
              "the open section has exactly the cells cold and warm"),
      EachRow(Both(open, [](const ReportRow& row) { return row.x == "cold"; }),
              "mem_mb", [](const ReportRow& row) { return row.mem_mb > 0; },
              "a cold open reports a zero resident footprint"),
      // The admission limits force the overload counts exactly: the
      // outcomes partition the submitted requests, both rejection paths
      // fire, and every row reports the submitted count in pairs.
      RequireRows(overload, {"submitted", "ok", "rejected", "deadline"}),
      [](const std::vector<ReportRow>& rows,
         std::vector<InvariantFailure>* failures) {
        std::map<std::string, const ReportRow*> count;
        for (const ReportRow& row : rows) {
          if (row.section == "overload") count[row.algorithm] = &row;
        }
        for (const char* name : {"submitted", "ok", "rejected", "deadline"}) {
          if (count[name] == nullptr) return;  // left to RequireRows
        }
        const ReportRow& submitted = *count["submitted"];
        const int64_t sum = count["ok"]->io_accesses +
                            count["rejected"]->io_accesses +
                            count["deadline"]->io_accesses;
        if (sum == submitted.io_accesses) return;
        failures->push_back(
            {"", submitted.section, submitted.x, submitted.algorithm,
             "io_accesses",
             "ok + rejected + deadline = " + std::to_string(sum) + ", not " +
                 std::to_string(submitted.io_accesses) +
                 "; the outcomes must partition the submitted requests"});
      },
      EachRow(Both(overload, AlgorithmIn({"rejected", "deadline"})),
              "io_accesses",
              [](const ReportRow& row) { return row.io_accesses > 0; },
              "admission control never engaged"),
      SameColumns(overload, ByCell, {Column::kPairs}),
      EachRow(Both(overload, AlgorithmIn({"submitted"})), "pairs",
              [](const ReportRow& row) {
                return static_cast<int64_t>(row.pairs) == row.io_accesses;
              },
              "pairs must carry the submitted count"),
  };
  registry->Register(std::move(spec));
}

}  // namespace fairmatch::bench

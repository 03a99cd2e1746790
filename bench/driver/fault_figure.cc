// The fault_recovery figure: serving resilience under seeded storage
// faults (src/fairmatch/storage/fault_injector.h).
//
// One section per injected-fault intensity; the x axis is the server's
// lane count. Each cell replays the same request sequence — SB /
// SB-alt round-robin, every request on per-request disk-resident
// function lists (the lane disk is the fault surface) — under
// a FaultInjector plan seeded per (request id, attempt), with retries
// enabled, and reports:
//
//   mix          cpu_ms = p50 end-to-end latency (failed requests too)
//   mix:p99      cpu_ms = p99 end-to-end latency
//   mix:success  cpu_ms = % of requests that completed OK
//
// Intensities are calibrated, not absolute: a per-access rate is only
// meaningful relative to how many physical accesses one attempt makes,
// so each non-zero section measures a fault-free probe request and sets
// the per-access rates to an expected 1 (rate1) or 8 (rate8) injected
// faults per attempt. rate0 runs with the injector disabled — the
// configuration every other figure measures.
//
// The figure's declared invariants check the deterministic columns:
// io_accesses carries the total injected faults, pairs the total retry
// attempts, and loops a 48-bit digest of every (status, matching) in
// submission order. Because fault schedules depend only on (plan seed,
// request id, attempt), all three are byte-identical at every lane
// count — and all-zero in the rate0 section.
#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "driver/figure_registry.h"
#include "fairmatch/common/check.h"
#include "fairmatch/serve/dataset_registry.h"
#include "fairmatch/serve/server.h"

namespace fairmatch::bench {

namespace {

/// Both chaos matchers exercise the faulted disk through per-request
/// DiskFunctionStores; SB-alt additionally requires one.
const char* const kFaultMix[] = {"SB", "SB-alt"};
constexpr int kFaultMixSize = 2;

/// Requests per experiment for the current scale.
int FaultRequests() { return Scaled(96, 16); }

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

serve::Request FaultRequest(int index) {
  serve::Request request;
  request.dataset = "bench";
  request.matcher = kFaultMix[index % kFaultMixSize];
  request.disk_resident_functions = true;
  return request;
}

struct FaultExperimentResult {
  std::vector<double> total_ms;  // per response, submission order
  int64_t injected_faults = 0;
  int64_t retries = 0;
  int ok = 0;
  int requests = 0;
  uint64_t digest = 1469598103934665603ull;
};

/// Per-cell memo shared by the cell's rows (same pattern as
/// serve_figure.cc): repeat r of every row reads the same run.
struct FaultExperimentCache {
  std::vector<FaultExperimentResult> samples;
};

FaultExperimentResult RunFaultExperiment(const AssignmentProblem& problem,
                                         int lanes, double faults_per_run) {
  const int requests = FaultRequests();

  serve::DatasetRegistry registry;
  registry.Open("bench", problem);

  serve::ServerOptions options;
  options.lanes = lanes;
  options.max_queue = static_cast<size_t>(requests);
  options.max_attempts = 3;
  if (faults_per_run > 0.0) {
    // Calibrate the per-access rates against a fault-free probe of the
    // same request: one attempt makes probe-io physical accesses, so
    // rate = faults_per_run / probe-io injects that many in expectation.
    serve::Server probe(&registry);
    const serve::Response probed = probe.Execute(FaultRequest(0));
    FAIRMATCH_CHECK(probed.status.ok());
    FAIRMATCH_CHECK(probed.stats.io_accesses > 0);
    const double unit =
        faults_per_run / static_cast<double>(probed.stats.io_accesses);
    options.fault_plan.seed = 20090824;
    options.fault_plan.read_fail_rate = unit / 2;
    options.fault_plan.corrupt_rate = unit / 2;
  }
  serve::Server server(&registry, options);

  // Open-loop arrivals at a fixed pace, as in serving_latency: the
  // latency columns then show how retries inflate the tail.
  const auto interval = std::chrono::microseconds(4000);
  const auto start = std::chrono::steady_clock::now();
  std::vector<serve::ResponseFuture> futures;
  futures.reserve(static_cast<size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    std::this_thread::sleep_until(start + i * interval);
    futures.push_back(server.Submit(FaultRequest(i)));
  }

  FaultExperimentResult result;
  result.requests = requests;
  for (int i = 0; i < requests; ++i) {
    const serve::Response& response =
        futures[static_cast<size_t>(i)].Wait();
    result.total_ms.push_back(response.total_ms);
    result.injected_faults += response.injected_faults;
    result.retries += response.attempts > 0 ? response.attempts - 1 : 0;
    if (response.status.ok()) ++result.ok;
    result.digest =
        Fnv1a(result.digest, static_cast<uint64_t>(response.status.code));
    result.digest = Fnv1a(result.digest, HashMatching(response.matching));
  }
  server.Close();
  return result;
}

const FaultExperimentResult& SampleFor(
    const std::shared_ptr<FaultExperimentCache>& cache,
    const std::shared_ptr<size_t>& cursor, const AssignmentProblem& problem,
    int lanes, double faults_per_run) {
  const size_t index = (*cursor)++;
  while (cache->samples.size() <= index) {
    cache->samples.push_back(
        RunFaultExperiment(problem, lanes, faults_per_run));
  }
  return cache->samples[index];
}

/// The lane-invariant columns every row carries: injected faults,
/// retries, and the (status, matching) digest in submission order.
void FillDeterministicColumns(const FaultExperimentResult& sample,
                              RunStats* stats) {
  stats->io_accesses = sample.injected_faults;
  stats->pairs = static_cast<size_t>(sample.retries);
  stats->loops = static_cast<int64_t>(sample.digest & ((1ull << 48) - 1));
}

std::vector<FigureSection> FaultRecovery() {
  const int requests = FaultRequests();

  BenchConfig shape;
  shape.num_functions = 500;
  shape.num_objects = 10000;
  shape.dims = 3;
  shape = Scale(shape);

  struct Intensity {
    const char* key;
    double faults_per_run;
  };
  const Intensity kIntensities[] = {{"rate0", 0.0},   // injector disabled
                                    {"rate1", 1.0},   // ~1 fault / attempt
                                    {"rate8", 8.0}};  // mostly doomed runs

  std::vector<FigureSection> sections;
  for (const Intensity& intensity : kIntensities) {
    FigureSection s;
    s.key = intensity.key;
    s.title = intensity.faults_per_run == 0.0
                  ? "Fault recovery baseline: injector disabled"
                  : "Fault recovery at ~" +
                        std::to_string(
                            static_cast<int>(intensity.faults_per_run)) +
                        " injected faults per attempt";
    s.subtitle =
        "x = server lanes, " + std::to_string(requests) +
        " requests round-robin over SB / SB-alt on per-request disk "
        "function lists, 3 attempts with per-(request, attempt) seeded "
        "fault schedules (cpu_ms: mix = p50 end-to-end ms, :p99 = p99, "
        ":success = % OK; io = injected faults, pairs = retries, loops "
        "= status+matching digest — identical at every x, all zero at "
        "rate0)";
    for (const int lanes : kServeLanes) {
      FigureCell cell;
      cell.x = std::to_string(lanes);
      cell.config = shape;
      auto cache = std::make_shared<FaultExperimentCache>();
      struct Row {
        const char* name;
        int kind;  // 0 = p50, 1 = p99, 2 = success %
      };
      const Row kRows[] = {
          {"mix", 0}, {"mix:p99", 1}, {"mix:success", 2}};
      for (const Row& row : kRows) {
        MeasuredRun run;
        run.algorithm = row.name;
        auto cursor = std::make_shared<size_t>(0);
        const double faults_per_run = intensity.faults_per_run;
        const int kind = row.kind;
        const char* name = row.name;
        run.runner = [cache, cursor, lanes, faults_per_run, kind, name](
                         const AssignmentProblem& problem,
                         const BenchConfig&) {
          const FaultExperimentResult& sample =
              SampleFor(cache, cursor, problem, lanes, faults_per_run);
          RunStats stats;
          stats.algorithm = name;
          switch (kind) {
            case 0:
              stats.cpu_ms = Percentile(sample.total_ms, 0.50);
              break;
            case 1:
              stats.cpu_ms = Percentile(sample.total_ms, 0.99);
              break;
            default:
              stats.cpu_ms = sample.requests > 0
                                 ? 100.0 * sample.ok / sample.requests
                                 : 0.0;
              break;
          }
          FillDeterministicColumns(sample, &stats);
          return stats;
        };
        cell.runs.push_back(std::move(run));
      }
      s.cells.push_back(std::move(cell));
    }
    sections.push_back(std::move(s));
  }
  return sections;
}

}  // namespace

void RegisterFaultFigure(FigureRegistry* registry) {
  FigureSpec spec;
  spec.name = "fault_recovery";
  spec.description =
      "serving resilience under seeded storage faults: success rate, "
      "latency tail and retry counts vs fault intensity";
  spec.sections = FaultRecovery;

  const RowFilter rate0 = InSection("rate0");
  spec.invariants = {
      // The rate0 baseline and at least one faulted intensity, each
      // swept over lane counts with every row in every cell.
      MinDistinct(nullptr, nullptr, BySection, "section", 2),
      RequireRows(rate0, {"mix", "mix:p99", "mix:success"}),
      MinDistinct(nullptr, BySection, ByX, "x", 2),
      RequireRows(nullptr, {"mix", "mix:p99", "mix:success"}),
      // Fault schedules depend only on (plan seed, request id,
      // attempt), so faults, retries and digest are lane-invariant.
      SameColumns(nullptr, BySection, kDeterministicColumns),
      // The disabled injector injects nothing and every request
      // succeeds; a faulted section does inject.
      EachRow(rate0, "io_accesses",
              [](const ReportRow& row) { return row.io_accesses == 0; },
              "the disabled injector must inject no fault"),
      EachRow(rate0, "pairs",
              [](const ReportRow& row) { return row.pairs == 0; },
              "the disabled injector must cause no retry"),
      EachRow(Both(rate0, AlgorithmIn({"mix:success"})), "cpu_ms",
              [](const ReportRow& row) { return row.cpu_ms == 100.0; },
              "a fault-free run must succeed completely"),
      [rate0](const std::vector<ReportRow>& rows,
              std::vector<InvariantFailure>* failures) {
        if (std::none_of(rows.begin(), rows.end(), [&](const ReportRow& row) {
              return !rate0(row) && row.io_accesses > 0;
            })) {
          failures->push_back({"", "", "", "", "io_accesses",
                               "no faulted section injected a single fault; "
                               "the injector never engaged"});
        }
      },
  };
  registry->Register(std::move(spec));
}

}  // namespace fairmatch::bench

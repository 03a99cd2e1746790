// The recovery_time figure: restart cost of the durable epoch layer
// (src/fairmatch/recover/) and the snapshot-threshold knob that trades
// steady-state checkpoint work against it.
//
// No crash is staged: Recover() from a healthy log directory walks the
// exact code path a crashed restart walks (manifest election, snapshot
// load, WAL replay through a fresh DeltaBuilder), so a clean shutdown
// measures the same work a SIGKILL recovery performs. Two sections:
//
//   replay     x = WAL records since the last snapshot (threshold set
//              so no checkpoint ever fires; every batch is replayed)
//   threshold  x = snapshot_threshold over a fixed 12-batch trace
//              (small thresholds checkpoint often, shrinking the
//              replayed suffix and the restart time)
//
// Rows per cell:
//
//   recover:time_to_serving_ms   wall ms of Recover() — manifest read
//                                through replayed, serveable epoch
//   recover:replay_records_per_s WAL records replayed per second
//   state:recovered              cpu_ms = replay phase ms
//   state:uncrashed              cpu_ms = total live Apply() ms
//
// The figure's declared invariants check the deterministic columns:
// every row carries the replayed record count in `io_accesses` and the
// recovered (resp. uncrashed) epoch's digest — skyline ids + SB
// matching, 48 bits — in `loops` with the matching size in `pairs`.
// state:recovered must equal state:uncrashed on both digest columns in
// every cell — the restart-equals-no-crash differential on the report
// surface — and in the replay section the replayed count must equal
// the cell's x.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>
#endif

#include "driver/figure_registry.h"
#include "fairmatch/common/check.h"
#include "fairmatch/common/rng.h"
#include "fairmatch/common/timer.h"
#include "fairmatch/recover/durable_builder.h"
#include "fairmatch/serve/dataset_registry.h"
#include "fairmatch/skyline/delta_sky.h"
#include "fairmatch/update/delta_builder.h"

namespace fairmatch::bench {

namespace {

constexpr int kThresholdTraceSteps = 12;

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

/// Digest of what an epoch serves: epoch number, the ids of the skyline
/// of its tree (ascending; BBS on demand, since epochs carry none), SB
/// matching. 48 bits so the JSON report's double-typed `loops` column
/// holds it exactly.
struct EpochDigest {
  int64_t digest = 0;
  size_t pairs = 0;
};

EpochDigest DigestEpoch(const serve::ResidentDataset& dataset) {
  uint64_t h = 1469598103934665603ull;
  h = Fnv1a(h, static_cast<uint64_t>(dataset.epoch()));
  DeltaSkyManager sky(dataset.tree());
  sky.ComputeInitial();
  std::vector<ObjectId> skyline;
  sky.skyline().ForEach(
      [&skyline](int, const SkylineObject& m) { skyline.push_back(m.id); });
  std::sort(skyline.begin(), skyline.end());
  for (ObjectId id : skyline) h = Fnv1a(h, static_cast<uint64_t>(id));
  const AssignResult sb = update::RunOnDataset(dataset, "SB");
  FAIRMATCH_CHECK(sb.status.ok());
  for (const MatchPair& p : sb.matching) {
    h = Fnv1a(h, static_cast<uint64_t>(p.fid));
    h = Fnv1a(h, static_cast<uint64_t>(p.oid));
  }
  EpochDigest out;
  out.digest = static_cast<int64_t>(h & ((1ull << 48) - 1));
  out.pairs = sb.matching.size();
  return out;
}

std::string MakeLogDir() {
#if defined(__unix__) || defined(__APPLE__)
  char tmpl[] = "/tmp/fairmatch_recovery_XXXXXX";
  const char* made = mkdtemp(tmpl);
  if (made != nullptr) return std::string(made);
#endif
  const std::string fallback = "fairmatch_recovery_bench";
  return fallback;
}

void RemoveLogDir(const std::string& dir) {
#if defined(__unix__) || defined(__APPLE__)
  DIR* d = opendir(dir.c_str());
  if (d != nullptr) {
    while (dirent* entry = readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      std::remove((dir + "/" + name).c_str());
    }
    closedir(d);
  }
  rmdir(dir.c_str());
#endif
}

/// Half deletes + half inserts (update_figure.cc's generator): the
/// object count is back where it started after every batch.
update::UpdateBatch SeededBatch(const AssignmentProblem& problem,
                                int batch_size, Rng* rng) {
  update::UpdateBatch batch;
  const int num_objects = static_cast<int>(problem.objects.size());
  const int half = std::max(1, batch_size / 2);
  std::vector<bool> picked(num_objects, false);
  while (static_cast<int>(batch.delete_objects.size()) <
         std::min(half, num_objects - 1)) {
    const int id = static_cast<int>(rng->UniformInt(0, num_objects - 1));
    if (picked[id]) continue;
    picked[id] = true;
    batch.delete_objects.push_back(id);
  }
  for (int i = 0; i < half; ++i) {
    ObjectItem o;
    o.point = Point(problem.dims);
    for (int d = 0; d < problem.dims; ++d) {
      o.point[d] = static_cast<float>(rng->Uniform());
    }
    batch.insert_objects.push_back(o);
  }
  return batch;
}

struct RecoveryExperiment {
  double apply_ms = 0.0;    // live Apply() total, uncrashed run
  double recover_ms = 0.0;  // Recover() wall: manifest -> serveable
  recover::RecoveryStats stats;
  EpochDigest uncrashed;
  EpochDigest recovered;
};

RecoveryExperiment RunRecoveryExperiment(const AssignmentProblem& problem,
                                         const BenchConfig& config,
                                         int batches, int threshold) {
  RecoveryExperiment result;
  const std::string dir = MakeLogDir();

  recover::DurableOptions options;
  options.dir = dir;
  options.snapshot_threshold = threshold;

  serve::DatasetRegistry registry;
  serve::DatasetHandle base = registry.Open("bench", problem);
  std::unique_ptr<recover::DurableBuilder> builder;
  Status status =
      recover::DurableBuilder::Bootstrap(base, options, &builder);
  FAIRMATCH_CHECK(status.ok());

  Rng rng(config.seed ^ (static_cast<uint64_t>(batches) << 16) ^
          (static_cast<uint64_t>(threshold) << 32));
  const int batch_size = Scaled(100, 8);
  for (int i = 0; i < batches; ++i) {
    const update::UpdateBatch batch =
        SeededBatch(builder->current()->problem(), batch_size, &rng);
    Timer timer;
    status = builder->Apply(batch);
    result.apply_ms += timer.ElapsedMs();
    FAIRMATCH_CHECK(status.ok());
  }
  result.uncrashed = DigestEpoch(*builder->current());
  builder.reset();  // clean shutdown; the log directory stays

  Timer timer;
  status = recover::DurableBuilder::Recover(options, &builder, &result.stats);
  result.recover_ms = timer.ElapsedMs();
  FAIRMATCH_CHECK(status.ok());
  result.recovered = DigestEpoch(*builder->current());
  builder.reset();
  RemoveLogDir(dir);
  return result;
}

/// Repeat-aware shared experiment per cell (serve_figure.cc pattern).
struct ExperimentCache {
  std::vector<RecoveryExperiment> samples;
};

const RecoveryExperiment& SampleFor(
    const std::shared_ptr<ExperimentCache>& cache,
    const std::shared_ptr<size_t>& cursor, const AssignmentProblem& problem,
    const BenchConfig& config, int batches, int threshold) {
  const size_t index = (*cursor)++;
  while (cache->samples.size() <= index) {
    cache->samples.push_back(
        RunRecoveryExperiment(problem, config, batches, threshold));
  }
  return cache->samples[index];
}

void AppendCell(FigureSection* section, const BenchConfig& shape,
                const std::string& x, int batches, int threshold) {
  FigureCell cell;
  cell.x = x;
  cell.config = shape;
  auto cache = std::make_shared<ExperimentCache>();

  struct Row {
    const char* name;
    double (*value)(const RecoveryExperiment&);
    const EpochDigest& (*digest)(const RecoveryExperiment&);
  };
  const Row kRows[] = {
      {"recover:time_to_serving_ms",
       [](const RecoveryExperiment& e) { return e.recover_ms; },
       [](const RecoveryExperiment& e) -> const EpochDigest& {
         return e.recovered;
       }},
      {"recover:replay_records_per_s",
       [](const RecoveryExperiment& e) {
         return e.stats.replay_ms > 0.0
                    ? 1000.0 * e.stats.wal_records_replayed /
                          e.stats.replay_ms
                    : 0.0;
       },
       [](const RecoveryExperiment& e) -> const EpochDigest& {
         return e.recovered;
       }},
      {"state:recovered",
       [](const RecoveryExperiment& e) { return e.stats.replay_ms; },
       [](const RecoveryExperiment& e) -> const EpochDigest& {
         return e.recovered;
       }},
      {"state:uncrashed",
       [](const RecoveryExperiment& e) { return e.apply_ms; },
       [](const RecoveryExperiment& e) -> const EpochDigest& {
         return e.uncrashed;
       }},
  };
  for (const Row& row : kRows) {
    MeasuredRun run;
    run.algorithm = row.name;
    auto cursor = std::make_shared<size_t>(0);
    const char* name = row.name;
    auto value = row.value;
    auto digest = row.digest;
    run.runner = [cache, cursor, name, value, digest, batches, threshold](
                     const AssignmentProblem& problem,
                     const BenchConfig& config) {
      const RecoveryExperiment& sample =
          SampleFor(cache, cursor, problem, config, batches, threshold);
      RunStats stats;
      stats.algorithm = name;
      stats.cpu_ms = value(sample);
      stats.io_accesses = sample.stats.wal_records_replayed;
      const EpochDigest& d = digest(sample);
      stats.pairs = d.pairs;
      stats.loops = d.digest;
      return stats;
    };
    cell.runs.push_back(std::move(run));
  }
  section->cells.push_back(std::move(cell));
}

std::vector<FigureSection> RecoveryTime() {
  BenchConfig shape;
  shape.num_functions = 300;
  shape.num_objects = 8000;
  shape.dims = 3;
  shape = Scale(shape);

  FigureSection replay;
  replay.key = "replay";
  replay.title = "Restart cost vs WAL records since the last snapshot";
  replay.subtitle =
      "x = update batches in the WAL suffix (snapshot threshold "
      "disabled, every batch replays on restart); io = records "
      "replayed (== x), pairs/loops = matching size + epoch digest — "
      "state:recovered must equal state:uncrashed in every cell";
  for (const int batches : {4, 8, 16}) {
    AppendCell(&replay, shape, std::to_string(batches), batches,
               /*threshold=*/1 << 20);
  }

  FigureSection threshold;
  threshold.key = "threshold";
  threshold.title = "The snapshot-threshold knob over a fixed trace";
  threshold.subtitle =
      "x = snapshot_threshold over a " +
      std::to_string(kThresholdTraceSteps) +
      "-batch trace (small thresholds checkpoint often and shrink the "
      "replayed suffix); columns as in the replay section";
  for (const int t : {2, 5, 1 << 20}) {
    AppendCell(&threshold, shape,
               t == (1 << 20) ? "off" : std::to_string(t),
               kThresholdTraceSteps, t);
  }
  return {std::move(replay), std::move(threshold)};
}

}  // namespace

void RegisterRecoveryFigure(FigureRegistry* registry) {
  FigureSpec spec;
  spec.name = "recovery_time";
  spec.description =
      "durable-epoch restart: recovery time vs WAL suffix length and "
      "the snapshot-threshold knob, with recovered-vs-uncrashed epoch "
      "digests";
  spec.sections = RecoveryTime;

  const RowFilter recovered = AlgorithmIn({"state:recovered"});
  spec.invariants = {
      // Both sections, each a sweep, with the four rows in every cell.
      MinDistinct(InSection("replay"), nullptr, ByX, "x", 2),
      MinDistinct(InSection("threshold"), nullptr, ByX, "x", 2),
      RequireRows(nullptr,
                  {"recover:time_to_serving_ms", "recover:replay_records_per_s",
                   "state:recovered", "state:uncrashed"}),
      // Restart converges to the pre-shutdown epoch.
      EachRow(recovered, "pairs",
              [](const ReportRow& row) { return row.pairs > 0; },
              "empty matching: the recovered epoch served nothing"),
      // The digest starts at the FNV basis; zero means it was not filled.
      EachRow(recovered, "loops",
              [](const ReportRow& row) { return row.loops != 0; },
              "zero epoch digest: the digest column was not filled in"),
      SameColumns(AlgorithmIn({"state:recovered", "state:uncrashed"}), ByCell,
                  {Column::kLoops, Column::kPairs}),
      // One experiment per cell; with snapshots disabled every batch
      // replays, and the threshold knob shrinks the replayed suffix.
      SameColumns(nullptr, ByCell, {Column::kIoAccesses}),
      EachRow(InSection("replay"), "io_accesses",
              [](const ReportRow& row) {
                return std::to_string(row.io_accesses) == row.x;
              },
              "with snapshots disabled every one of the x batches must "
              "replay"),
      MinDistinct(Both(InSection("threshold"), recovered), nullptr,
                  [](const ReportRow& row) {
                    return std::to_string(row.io_accesses);
                  },
                  "io_accesses", 2),
  };
  registry->Register(std::move(spec));
}

}  // namespace fairmatch::bench

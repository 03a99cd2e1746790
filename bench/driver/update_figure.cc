// The update_throughput figure: incremental index updates
// (src/fairmatch/update/) against the from-scratch rebuild they must
// be indistinguishable from.
//
// One section; the x axis is the update batch size. Each cell opens a
// resident dataset, drives a DeltaBuilder through a fixed number of
// seeded batches (half deletes, half inserts, so the object count
// stays put) and reports:
//
//   apply:updates_per_s  cpu_ms = applied updates per second
//   apply:epoch_ms       cpu_ms = mean wall ms per epoch (batch)
//   query:updated        cpu_ms = SB query ms on the updated epoch
//   query:rebuilt        cpu_ms = SB query ms on a from-scratch
//                                 rebuild of the same final problem
//
// The figure's declared invariants check the deterministic columns:
// both query rows carry the size of their matching in `pairs` and a
// 48-bit digest of it in `loops`, and because the update path is
// exact, the updated row's digest and pair count must equal the
// rebuilt row's in every cell — the
// update-vs-rebuild differential on the report surface. The apply rows
// carry the total updates applied (`pairs`) and R-tree node edits
// (`io_accesses`), both pure functions of the cell's seed. Only the
// latency/throughput columns may vary run to run; the query ratio is
// the figure's degradation story (an updated epoch serves from
// incrementally edited R-tree pages; its packed image is built flat).
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "driver/figure_registry.h"
#include "fairmatch/common/check.h"
#include "fairmatch/common/rng.h"
#include "fairmatch/common/timer.h"
#include "fairmatch/data/synthetic.h"
#include "fairmatch/serve/dataset_registry.h"
#include "fairmatch/update/delta_builder.h"

namespace fairmatch::bench {

namespace {

constexpr int kEpochs = 6;
constexpr int kQueryReps = 3;

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

int64_t MatchingDigest48(const Matching& matching) {
  uint64_t h = 1469598103934665603ull;
  for (const MatchPair& p : matching) {
    h = Fnv1a(h, static_cast<uint64_t>(p.fid));
    h = Fnv1a(h, static_cast<uint64_t>(p.oid));
  }
  return static_cast<int64_t>(h & ((1ull << 48) - 1));
}

/// Half deletes (distinct, seeded) + half inserts: the object count is
/// back where it started after every batch.
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

struct UpdateExperiment {
  double apply_ms = 0.0;
  int64_t updates_applied = 0;
  int64_t tree_ops = 0;
  double updated_query_ms = 0.0;
  double rebuilt_query_ms = 0.0;
  size_t updated_pairs = 0;
  size_t rebuilt_pairs = 0;
  int64_t updated_digest = 0;
  int64_t rebuilt_digest = 0;
};

double TimedQueryMs(const serve::ResidentDataset& dataset,
                    Matching* matching) {
  double best = 0.0;
  for (int rep = 0; rep < kQueryReps; ++rep) {
    Timer timer;
    AssignResult result = update::RunOnDataset(dataset, "SB");
    const double ms = timer.ElapsedMs();
    FAIRMATCH_CHECK(result.status.ok());
    if (rep == 0 || ms < best) best = ms;
    *matching = std::move(result.matching);
  }
  return best;
}

UpdateExperiment RunUpdateExperiment(const AssignmentProblem& problem,
                                     const BenchConfig& config,
                                     int batch_size) {
  serve::DatasetRegistry registry;
  serve::DatasetHandle base = registry.Open("bench", problem);
  update::DeltaBuilder builder(base);

  UpdateExperiment result;
  Rng rng(config.seed ^ (static_cast<uint64_t>(batch_size) << 20));
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    update::UpdateBatch batch =
        SeededBatch(builder.current()->problem(), batch_size, &rng);
    const int64_t updates = static_cast<int64_t>(
        batch.delete_objects.size() + batch.insert_objects.size());
    update::UpdateStats stats;
    Timer timer;
    Status status = builder.Apply(batch, &stats);
    result.apply_ms += timer.ElapsedMs();
    FAIRMATCH_CHECK(status.ok());
    result.updates_applied += updates;
    result.tree_ops += stats.tree_ops;
  }

  Matching updated;
  result.updated_query_ms = TimedQueryMs(*builder.current(), &updated);
  result.updated_pairs = updated.size();
  result.updated_digest = MatchingDigest48(updated);

  // The from-scratch rebuild of the identical final problem: the
  // updated epoch's responses must be byte-identical to this one's.
  serve::DatasetRegistry rebuilt_registry;
  serve::DatasetHandle rebuilt =
      rebuilt_registry.Open("bench", builder.current()->problem());
  Matching rebuilt_matching;
  result.rebuilt_query_ms = TimedQueryMs(*rebuilt, &rebuilt_matching);
  result.rebuilt_pairs = rebuilt_matching.size();
  result.rebuilt_digest = MatchingDigest48(rebuilt_matching);
  return result;
}

/// Repeat-aware shared experiment per cell (serve_figure.cc pattern).
struct ExperimentCache {
  std::vector<UpdateExperiment> samples;
};

const UpdateExperiment& SampleFor(
    const std::shared_ptr<ExperimentCache>& cache,
    const std::shared_ptr<size_t>& cursor, const AssignmentProblem& problem,
    const BenchConfig& config, int batch_size) {
  const size_t index = (*cursor)++;
  while (cache->samples.size() <= index) {
    cache->samples.push_back(RunUpdateExperiment(problem, config, batch_size));
  }
  return cache->samples[index];
}

std::vector<FigureSection> UpdateThroughput() {
  BenchConfig shape;
  shape.num_functions = 1000;
  shape.num_objects = 20000;
  shape.dims = 3;
  shape = Scale(shape);

  FigureSection s;
  s.key = "apply";
  s.title = "Incremental updates: apply throughput vs query degradation";
  s.subtitle =
      "x = updates per batch (half deletes, half inserts), " +
      std::to_string(kEpochs) +
      " epochs per run (apply rows: cpu_ms = updates/s and wall ms per "
      "epoch, pairs = updates applied, io = R-tree node edits; query "
      "rows: cpu_ms = SB ms on the updated epoch vs a from-scratch "
      "rebuild, pairs/loops = matching size + digest — identical "
      "between the two rows of every cell)";
  for (const int batch_size :
       {Scaled(200, 8), Scaled(800, 16), Scaled(3200, 32)}) {
    FigureCell cell;
    cell.x = std::to_string(batch_size);
    cell.config = shape;
    auto cache = std::make_shared<ExperimentCache>();

    struct Row {
      const char* name;
      double (*value)(const UpdateExperiment&);
      void (*fill)(const UpdateExperiment&, RunStats*);
    };
    const Row kRows[] = {
        {"apply:updates_per_s",
         [](const UpdateExperiment& e) {
           return e.apply_ms > 0.0 ? 1000.0 * e.updates_applied / e.apply_ms
                                   : 0.0;
         },
         [](const UpdateExperiment& e, RunStats* stats) {
           stats->io_accesses = e.tree_ops;
           stats->pairs = static_cast<size_t>(e.updates_applied);
           stats->loops = e.updated_digest;
         }},
        {"apply:epoch_ms",
         [](const UpdateExperiment& e) { return e.apply_ms / kEpochs; },
         [](const UpdateExperiment& e, RunStats* stats) {
           stats->io_accesses = e.tree_ops;
           stats->pairs = static_cast<size_t>(e.updates_applied);
           stats->loops = e.updated_digest;
         }},
        {"query:updated",
         [](const UpdateExperiment& e) { return e.updated_query_ms; },
         [](const UpdateExperiment& e, RunStats* stats) {
           stats->pairs = e.updated_pairs;
           stats->loops = e.updated_digest;
         }},
        {"query:rebuilt",
         [](const UpdateExperiment& e) { return e.rebuilt_query_ms; },
         [](const UpdateExperiment& e, RunStats* stats) {
           stats->pairs = e.rebuilt_pairs;
           stats->loops = e.rebuilt_digest;
         }},
    };
    for (const Row& row : kRows) {
      MeasuredRun run;
      run.algorithm = row.name;
      auto cursor = std::make_shared<size_t>(0);
      const char* name = row.name;
      auto value = row.value;
      auto fill = row.fill;
      run.runner = [cache, cursor, name, value, fill, batch_size](
                       const AssignmentProblem& problem,
                       const BenchConfig& config) {
        const UpdateExperiment& sample =
            SampleFor(cache, cursor, problem, config, batch_size);
        RunStats stats;
        stats.algorithm = name;
        stats.cpu_ms = value(sample);
        fill(sample, &stats);
        return stats;
      };
      cell.runs.push_back(std::move(run));
    }
    s.cells.push_back(std::move(cell));
  }
  return {std::move(s)};
}

}  // namespace

void RegisterUpdateFigure(FigureRegistry* registry) {
  FigureSpec spec;
  spec.name = "update_throughput";
  spec.description =
      "incremental updates: DeltaBuilder apply rate over batch sizes, "
      "with updated-vs-rebuilt query latency and matching digests";
  spec.sections = UpdateThroughput;

  const RowFilter apply =
      AlgorithmIn({"apply:updates_per_s", "apply:epoch_ms"});
  spec.invariants = {
      // A sweep over batch sizes, with the four rows in every cell.
      MinDistinct(nullptr, nullptr, ByX, "x", 2),
      RequireRows(nullptr, {"apply:updates_per_s", "apply:epoch_ms",
                            "query:updated", "query:rebuilt"}),
      // The update path is byte-exact: the updated epoch serves the
      // rebuilt epoch's matching.
      EachRow(AlgorithmIn({"query:updated"}), "pairs",
              [](const ReportRow& row) { return row.pairs > 0; },
              "empty matching: the updated epoch served nothing"),
      // The digest starts at the FNV basis; zero means it was not filled.
      EachRow(AlgorithmIn({"query:updated"}), "loops",
              [](const ReportRow& row) { return row.loops != 0; },
              "zero matching digest: the digest column was not filled in"),
      SameColumns(AlgorithmIn({"query:updated", "query:rebuilt"}), ByCell,
                  {Column::kLoops, Column::kPairs}),
      // Both apply rows come from one experiment that did work.
      EachRow(apply, "pairs",
              [](const ReportRow& row) { return row.pairs > 0; },
              "the apply phase applied no update"),
      EachRow(apply, "io_accesses",
              [](const ReportRow& row) { return row.io_accesses > 0; },
              "the apply phase edited no R-tree node"),
      SameColumns(apply, ByCell, {Column::kPairs, Column::kIoAccesses}),
  };
  registry->Register(std::move(spec));
}

}  // namespace fairmatch::bench

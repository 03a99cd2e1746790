// Micro figures: registry entries that isolate the optimized inner
// loops (the reverse top-1 search, BBS/UpdateSkyline, the SIMD
// scoring kernel and the buffer pool) so the perf trajectory of the
// hot-path work stays CI-visible in BENCH_<scale>.json — the
// regression gate diffs their deterministic columns across commits
// alongside the paper figures.
//
// Unlike the paper figures these cells do not run a whole matcher; the
// custom runners drive the component directly but report through the
// same RunStats columns:
//
//   micro_reverse_top1 — a full drain over a packed image by SB's
//     in-memory kernel, biased TA over impact-ordered blocks
//     ("TA-impact"), and by round-robin TA over the image's entries
//     ("TA-round-robin"); io = ReverseTop1::probes() (probed list
//     entries), loops = Omega restarts, pairs = completed Best()
//     assignments (equal rows). mem = the image and the query states.
//   micro_bbs — io = counted R-tree node reads (paged store), loops =
//     RemoveAndUpdate rounds, pairs = skyline members drained.
//   micro_simd_score — old (scalar) vs new (vector) block-scoring
//     kernel on one member block; io = scored (member, function)
//     pairs, pairs = best-candidate updates, loops = functions. The
//     deterministic columns are backend-independent (the kernels are
//     bit-identical), which the regression gate cross-checks between
//     the SIMD and scalar CI builds.
//   micro_buffer_pool — the sharded open-addressing + intrusive-LRU
//     pool on one seeded fetch sequence per hit/miss mix (every
//     seventh fetch writes, so dirty frames copy-on-write and evict
//     through a counted write; the read-only `tiny` mix at 2 frames
//     reuses a clean victim's frame on nearly every miss); io =
//     physical reads + writes, pairs = fetches, loops = buffer hits.
//     cpu_ms is the frame-table, LRU and copy-on-write cost per fetch.
#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "driver/figure_registry.h"
#include "fairmatch/common/rng.h"
#include "fairmatch/common/simd.h"
#include "fairmatch/common/timer.h"
#include "fairmatch/engine/exec_context.h"
#include "fairmatch/rtree/node_store.h"
#include "fairmatch/skyline/bbs.h"
#include "fairmatch/storage/buffer_pool.h"
#include "fairmatch/storage/disk_manager.h"
#include "fairmatch/topk/packed_function_lists.h"
#include "fairmatch/topk/reverse_top1.h"

namespace fairmatch::bench {

namespace {

// Drains the whole function set through resumable Best() calls from a
// rotating pool of query objects — the exact usage pattern SB's loop
// produces (interleaved queries and assignments).
RunStats RunMicroReverseTop1(const AssignmentProblem& problem,
                             bool biased) {
  Timer timer;
  RunStats stats;
  stats.algorithm = biased ? "TA-impact" : "TA-round-robin";
  PackedFunctionStore packed(problem.functions);
  ReverseTop1Options options;
  options.biased_probing = biased;
  ReverseTop1 rt1(&packed, options);
  std::vector<uint8_t> assigned(problem.functions.size(), 0);
  int64_t remaining = static_cast<int64_t>(problem.functions.size());
  const size_t nq =
      std::min<size_t>(64, std::max<size_t>(1, problem.objects.size()));
  std::vector<ReverseTop1State> states(nq);
  size_t i = 0;
  while (remaining > 0) {
    const size_t q = i++ % nq;
    auto best =
        rt1.Best(&states[q], problem.objects[q].point, assigned, remaining);
    if (!best.has_value()) break;
    assigned[best->first] = 1;
    remaining--;
    stats.pairs++;
  }
  stats.cpu_ms = timer.ElapsedMs();
  stats.io_accesses = rt1.probes();
  stats.loops = rt1.restarts();
  size_t state_bytes = packed.footprint_bytes();
  for (const ReverseTop1State& s : states) state_bytes += s.memory_bytes();
  stats.peak_memory_bytes = state_bytes;
  return stats;
}

// Full BBS + UpdateSkyline drain over a paged (counted-I/O) object
// tree: compute the initial skyline, then repeatedly remove every
// member until the tree is exhausted — the skyline-maintenance work an
// entire assignment performs, without the TA/pairing layers.
RunStats RunMicroBbs(const AssignmentProblem& problem,
                     const BenchConfig& config) {
  ExecContext ctx;
  PagedNodeStore store(problem.dims, 4096, &ctx.counters());
  RTree tree(&store);
  BuildObjectTree(problem, &tree);
  store.ResetCounters();  // exclude the build phase
  store.SetBufferFraction(config.buffer_fraction);
  ctx.BeginRun();
  RunStats stats;
  stats.algorithm = "UpdateSkyline";
  SkylineManager mgr(&tree);
  mgr.ComputeInitial();
  std::vector<ObjectId> victims;
  while (mgr.skyline().size() > 0) {
    stats.loops++;
    victims.clear();
    mgr.skyline().ForEach(
        [&](int, const SkylineObject& m) { victims.push_back(m.id); });
    stats.pairs += victims.size();
    mgr.RemoveAndUpdate(victims);
    ctx.memory().Set(mgr.memory_bytes());
  }
  ctx.Finish(&stats);
  return stats;
}

// The SB-alt scoring inner loop in isolation: one member block scored
// against every function's effective-coefficient vector, tracking each
// member's best candidate with the engine's tie rule. The "scalar" row
// is the old kernel — the member-major (row per member) loop SB-alt
// ran before the SoA rewrite, which neither the compiler nor hardware
// can vectorize across members, scoring every member and then testing
// it; the "simd" row is the fused score-and-compare block kernel SB-alt
// runs now (common/simd.h, whatever backend this binary compiled in —
// the scalar fallback in a FAIRMATCH_SIMD=OFF build), which hands back
// only the members whose best a function may beat. Scores are
// bit-identical (same per-member ascending-dimension accumulation), so
// the deterministic columns (pairs = best updates) double as a
// cross-backend parity check the report gate diffs between the SIMD
// and scalar CI builds.
RunStats RunMicroSimdScore(const AssignmentProblem& problem,
                           bool block_kernel) {
  Timer timer;
  RunStats stats;
  stats.algorithm = block_kernel ? "simd" : "scalar";
  const int dims = problem.dims;
  const int members =
      static_cast<int>(std::min<size_t>(256, problem.objects.size()));
  // Both layouts of the same block: rows for the old kernel, dim-major
  // columns padded to whole kernel blocks for the new one.
  const size_t stride = simd::ScoreBlockStride(members);
  std::vector<float> rows(static_cast<size_t>(members) * dims);
  std::vector<float> cols(static_cast<size_t>(dims) * stride);
  for (int j = 0; j < members; ++j) {
    for (int d = 0; d < dims; ++d) {
      const float v = problem.objects[j].point[d];
      rows[static_cast<size_t>(j) * dims + d] = v;
      cols[static_cast<size_t>(d) * stride + j] = v;
    }
  }
  std::vector<double> weights(dims);
  std::vector<double> scores(stride);  // the fused kernel writes whole blocks
  std::vector<FunctionId> best_f(members, kInvalidFunction);
  std::vector<double> best_s(members, 0.0);
  // The fused kernel's bars: best_s, or -inf while a member has none.
  std::vector<double> bars(stride, -std::numeric_limits<double>::infinity());
  const auto offer = [&](int j, FunctionId fid, double s) {
    if (best_f[j] == kInvalidFunction || s > best_s[j] ||
        (s == best_s[j] && fid < best_f[j])) {
      best_f[j] = fid;
      best_s[j] = s;
      bars[j] = s;
      stats.pairs++;
    }
  };
  for (const PrefFunction& f : problem.functions) {
    stats.loops++;
    for (int d = 0; d < dims; ++d) weights[d] = f.eff(d);
    if (block_kernel) {
      for (int j0 = 0; j0 < members; j0 += simd::kScoreBlock) {
        uint32_t hits = simd::ScoreBlockAtLeast(
            &cols[j0], stride, dims, weights.data(), &bars[j0], members - j0,
            &scores[j0]);
        for (; hits != 0; hits &= hits - 1) {
          const int lane = __builtin_ctz(hits);
          offer(j0 + lane, f.id, scores[j0 + lane]);
        }
      }
    } else {
      for (int j = 0; j < members; ++j) {
        const float* pt = &rows[static_cast<size_t>(j) * dims];
        double s = 0.0;
        for (int d = 0; d < dims; ++d) s += weights[d] * pt[d];
        scores[j] = s;
      }
      for (int j = 0; j < members; ++j) offer(j, f.id, scores[j]);
    }
    stats.io_accesses += members;
  }
  stats.cpu_ms = timer.ElapsedMs();
  // Unpadded sizes, so both rows report the same footprint.
  stats.peak_memory_bytes =
      2 * static_cast<size_t>(members) * dims * sizeof(float) +
      members * (sizeof(double) * 2 + sizeof(FunctionId));
  return stats;
}

constexpr int kMicroPoolPages = 256;

// One seeded fetch sequence (uniform page picks; with `writes`, every
// seventh access a dirty write) against a pool of `capacity` frames.
RunStats RunMicroBufferPool(size_t capacity, bool writes) {
  const int accesses = Scaled(400000, 2000);

  DiskManager disk;
  PerfCounters counters;
  std::vector<PageId> pids;
  pids.reserve(kMicroPoolPages);
  for (int i = 0; i < kMicroPoolPages; ++i) {
    pids.push_back(disk.AllocatePage());
  }

  RunStats stats;
  stats.algorithm = "sharded";
  Rng rng(4242);
  Timer timer;
  {
    BufferPool pool(&disk, capacity, &counters);
    for (int i = 0; i < accesses; ++i) {
      PageHandle h =
          pool.FetchPage(pids[rng.UniformInt(0, kMicroPoolPages - 1)]);
      if (writes && i % 7 == 0) h.mutable_bytes()[0] = std::byte{1};
    }
  }
  stats.cpu_ms = timer.ElapsedMs();
  stats.io_accesses = counters.page_reads + counters.page_writes;
  stats.pairs = static_cast<uint64_t>(accesses);
  stats.loops = counters.buffer_hits;
  stats.peak_memory_bytes = capacity * sizeof(PageData);
  return stats;
}

std::vector<FigureSection> MicroSimdScore() {
  FigureSection s;
  s.title = "Micro: SIMD member-block scoring";
  s.subtitle =
      std::string("SoA member block (<=256) x |F| functions, backend=") +
      simd::BackendName() +
      ", x = D (io = scored pairs, pairs = best updates)";
  for (int dims : {3, 4, 5}) {
    BenchConfig config;
    config.dims = dims;
    config.num_functions = 20000;
    config.num_objects = 1000;
    config = Scale(config);
    std::vector<MeasuredRun> runs;
    for (bool block_kernel : {false, true}) {
      MeasuredRun run;
      run.algorithm = block_kernel ? "simd" : "scalar";
      run.runner = [block_kernel](const AssignmentProblem& problem,
                                  const BenchConfig&) {
        return RunMicroSimdScore(problem, block_kernel);
      };
      runs.push_back(std::move(run));
    }
    s.cells.push_back(
        {std::to_string(dims), config, nullptr, std::move(runs)});
  }
  return {s};
}

std::vector<FigureSection> MicroBufferPool() {
  FigureSection s;
  s.title = "Micro: buffer pool fetch/unpin";
  s.subtitle =
      "256-page disk, seeded uniform fetches, x = hit mix "
      "(io = physical reads+writes, loops = hits)";
  // Hit mixes: all-resident (pure hit cost), half-sized buffer
  // (eviction churn), the paper's 0% buffer (every fetch a miss, never
  // a victim), and a read-only 2-frame buffer, the shape of
  // assign_diskf's coefficient fetches, where nearly every miss reuses
  // a clean victim's frame.
  struct Mix {
    const char* label;
    size_t frames;
    bool writes;
  };
  const Mix mixes[] = {{"hit", kMicroPoolPages, true},
                       {"mix", kMicroPoolPages / 2, true},
                       {"miss", 0, true},
                       {"tiny", 2, false}};
  for (const Mix& mix : mixes) {
    BenchConfig config;
    config.num_functions = 10;
    config.num_objects = 100;
    config = Scale(config);
    MeasuredRun run;
    run.algorithm = "sharded";
    run.runner = [mix](const AssignmentProblem&, const BenchConfig&) {
      return RunMicroBufferPool(mix.frames, mix.writes);
    };
    s.cells.push_back({mix.label, config, nullptr, {std::move(run)}});
  }
  return {s};
}

std::vector<FigureSection> MicroReverseTop1() {
  FigureSection s;
  s.title = "Micro: reverse top-1 drain";
  s.subtitle =
      "in-memory packed image, 64 resumable query states, x = |F| "
      "(io = list probes, loops = restarts)";
  for (int nf : {1000, 5000, 20000}) {
    BenchConfig config;
    config.num_functions = nf;
    config.num_objects = 1000;
    config = Scale(config);
    std::vector<MeasuredRun> runs;
    for (bool biased : {true, false}) {
      MeasuredRun run;
      run.algorithm = biased ? "TA-impact" : "TA-round-robin";
      run.runner = [biased](const AssignmentProblem& problem,
                            const BenchConfig&) {
        return RunMicroReverseTop1(problem, biased);
      };
      runs.push_back(std::move(run));
    }
    s.cells.push_back({std::to_string(nf), config, nullptr, std::move(runs)});
  }
  return {s};
}

std::vector<FigureSection> MicroBbs() {
  FigureSection s;
  s.title = "Micro: BBS + UpdateSkyline full drain";
  s.subtitle =
      "paged object tree, remove-all loop until empty, x = |O| "
      "(io = node reads, pairs = members drained)";
  for (int no : {20000, 100000}) {
    BenchConfig config;
    config.num_objects = no;
    config.num_functions = 10;  // unused by the runner; keep generation cheap
    config = Scale(config);
    MeasuredRun run;
    run.algorithm = "UpdateSkyline";
    run.runner = [](const AssignmentProblem& problem,
                    const BenchConfig& c) {
      return RunMicroBbs(problem, c);
    };
    s.cells.push_back({std::to_string(no), config, nullptr, {std::move(run)}});
  }
  return {s};
}

}  // namespace

void RegisterMicroFigures(FigureRegistry* registry) {
  FigureSpec rt1;
  rt1.name = "micro_reverse_top1";
  rt1.description =
      "Microbench: reverse top-1 drain, impact-ordered vs round-robin "
      "TA";
  rt1.sections = MicroReverseTop1;
  registry->Register(std::move(rt1));

  FigureSpec bbs;
  bbs.name = "micro_bbs";
  bbs.description =
      "Microbench: BBS/UpdateSkyline drain (arena-backed plists)";
  bbs.sections = MicroBbs;
  registry->Register(std::move(bbs));

  FigureSpec score;
  score.name = "micro_simd_score";
  score.description =
      "Microbench: member-block scoring kernel, scalar vs SIMD";
  score.sections = MicroSimdScore;
  registry->Register(std::move(score));

  FigureSpec pool;
  pool.name = "micro_buffer_pool";
  pool.description =
      "Microbench: buffer pool fetch/unpin (sharded open addressing, "
      "copy-on-write frames)";
  pool.sections = MicroBufferPool;
  registry->Register(std::move(pool));
}

}  // namespace fairmatch::bench

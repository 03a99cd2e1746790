// Randomized differential sweep at the engine layer: for N seeded
// instances x every registered matcher, the result produced through
// MatcherRegistry/Matcher::Run must (a) pass the Definition-1 verifier
// (assign/verifier.h) and (b) agree with the naive by-definition oracle
// — same (fid, oid) matching and same objective value — both with
// in-memory function lists and with the disk-resident-F layout forced.
//
// This differs from stress_test.cc (which drives the algorithm entry
// points directly) by exercising the exact surface production callers
// and the serving lanes use, and by checking stability rather than only
// cross-implementation agreement.
//
// A second sweep pins SB's fan-out of each loop's reverse top-1
// searches over the shared helper pool: with ExecContext::parallel on
// and off, SB and SB-Packed must produce byte-identical matchings and
// identical loop, probe and restart counts. This suite is part of the
// TSan CI matrix.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fairmatch/assign/naive_matcher.h"
#include "fairmatch/assign/sb.h"
#include "fairmatch/assign/verifier.h"
#include "fairmatch/common/thread_pool.h"
#include "fairmatch/engine/exec_context.h"
#include "fairmatch/engine/registry.h"
#include "fairmatch/skyline/bbs.h"
#include "test_util.h"

namespace fairmatch {
namespace {

using fairmatch::testing::GridFunctions;
using fairmatch::testing::MemTree;
using fairmatch::testing::ProblemSpec;
using fairmatch::testing::RandomProblem;
using fairmatch::testing::RunRegisteredMatcher;

/// Objective value in canonical pair order, so the floating-point sum
/// is comparable across algorithms that discover pairs in different
/// orders.
double CanonicalObjective(Matching matching) {
  CanonicalizeMatching(&matching);
  double sum = 0.0;
  for (const MatchPair& pair : matching) sum += pair.score;
  return sum;
}

/// A randomized shape drawn from the sweep seed, mirroring the
/// stress-test methodology (small enough for the O(P*|F|*|O|) oracle).
ProblemSpec SpecForSeed(int seed) {
  Rng shape_rng(static_cast<uint64_t>(seed) * 6271 + 29);
  ProblemSpec spec;
  spec.num_functions = 5 + static_cast<int>(shape_rng.UniformInt(0, 35));
  spec.num_objects = 20 + static_cast<int>(shape_rng.UniformInt(0, 100));
  spec.dims = 2 + static_cast<int>(shape_rng.UniformInt(0, 3));
  spec.distribution = static_cast<Distribution>(shape_rng.UniformInt(0, 2));
  spec.seed = static_cast<uint64_t>(seed) * 70001 + 17;
  spec.function_capacity = 1 + static_cast<int>(shape_rng.UniformInt(0, 1));
  spec.object_capacity = 1 + static_cast<int>(shape_rng.UniformInt(0, 1));
  spec.max_gamma = 1 + static_cast<int>(shape_rng.UniformInt(0, 3));
  return spec;
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, EngineResultsMatchOracleAndVerify) {
  const int seed = GetParam();
  const AssignmentProblem problem = RandomProblem(SpecForSeed(seed));
  const Matching want = NaiveStableMatching(problem);
  const double want_objective = CanonicalObjective(want);

  // The oracle itself must pass its own definition.
  ASSERT_TRUE(VerifyStableMatching(problem, want).ok) << "seed " << seed;

  for (const std::string& name : MatcherRegistry::Global().Names()) {
    // Both storage layouts: in-memory function lists, and the Section
    // 7.6 disk-resident-F setting forced onto every matcher (variants
    // without a disk-F code path ignore the store and must still agree).
    for (const bool disk_f : {false, true}) {
      const AssignResult got = RunRegisteredMatcher(
          name, problem, /*ctx=*/nullptr, /*force_disk_functions=*/disk_f);
      const std::string label =
          name + (disk_f ? " (disk-F)" : " (in-memory)") + ", seed " +
          std::to_string(seed);

      const VerifyResult verdict =
          VerifyStableMatching(problem, got.matching);
      EXPECT_TRUE(verdict.ok) << label << ": " << verdict.message;

      EXPECT_TRUE(SameMatching(got.matching, want))
          << label << " diverges from the oracle (|want|=" << want.size()
          << ", |got|=" << got.matching.size() << ")";
      EXPECT_DOUBLE_EQ(CanonicalObjective(got.matching), want_objective)
          << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Range(0, 12));

// --- parallel vs inline reverse top-1 searches -----------------------

/// Instances whose skylines hold many members per loop, so searches
/// fan out: three anti-correlated shapes (one with priorities and
/// function capacities) and one tie-heavy shape — anti-correlated
/// points snapped to a coarse grid (duplicates, equal coordinates)
/// against grid-weight functions (equal scores across functions).
AssignmentProblem ParallelCase(int index) {
  if (index == 3) {
    constexpr int kLevels = 10;
    Rng rng(811);
    std::vector<Point> points =
        GeneratePoints(Distribution::kAntiCorrelated, 800, 4, &rng);
    for (Point& p : points) {
      for (int d = 0; d < p.dims(); ++d) {
        p[d] = std::round(p[d] * kLevels) / kLevels;
      }
    }
    return MakeProblem(std::move(points), GridFunctions(80, 4, 4, 812),
                       /*object_capacity=*/1);
  }
  ProblemSpec spec;
  spec.distribution = Distribution::kAntiCorrelated;
  spec.num_objects = 800;
  spec.num_functions = 80;
  spec.dims = index == 0 ? 5 : 4;
  spec.seed = 9100 + static_cast<uint64_t>(index);
  if (index == 2) {
    spec.function_capacity = 2;
    spec.max_gamma = 3;
  }
  return RandomProblem(spec);
}

struct SBRun {
  AssignResult result;
  int64_t probes;
  int64_t restarts;
};

/// SB (in-memory lists) or SB-Packed (impact-ordered packed blocks)
/// with fan-out allowed or not.
SBRun RunSB(const AssignmentProblem& problem, bool packed, bool parallel) {
  MemTree mem(problem);
  std::unique_ptr<PackedFunctionStore> store;
  SBOptions options;
  if (packed) {
    store = std::make_unique<PackedFunctionStore>(problem.functions);
    options.ta.impact_ordered = true;
  }
  ExecContext ctx;
  ctx.set_parallel(parallel);
  SBAssignment sb(&problem, &mem.tree, options, store.get(), &ctx);
  AssignResult result = sb.Run();
  return SBRun{std::move(result), sb.probes(), sb.restarts()};
}

uint64_t ScoreBits(double score) {
  uint64_t bits;
  std::memcpy(&bits, &score, sizeof(bits));
  return bits;
}

class ParallelVsInlineTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelVsInlineTest, SearchesFanOutWithoutChangingAnything) {
  const AssignmentProblem problem = ParallelCase(GetParam());
  if (const ThreadPool* pool = ThreadPool::Shared(); pool != nullptr) {
    // The first loop searches for every skyline member; it must fill
    // one chunk (SB's kSearchChunk = 8) per thread to fan out.
    MemTree mem(problem);
    SkylineManager sky(&mem.tree);
    sky.ComputeInitial();
    ASSERT_GE(sky.skyline().size(), 8 * (pool->size() + 1));
  }
  for (const bool packed : {false, true}) {
    const std::string label = std::string(packed ? "SB-Packed" : "SB") +
                              ", case " + std::to_string(GetParam());
    const SBRun inline_run = RunSB(problem, packed, /*parallel=*/false);
    const SBRun parallel_run = RunSB(problem, packed, /*parallel=*/true);
    ASSERT_TRUE(parallel_run.result.status.ok()) << label;
    const Matching& want = inline_run.result.matching;
    const Matching& got = parallel_run.result.matching;
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].fid, want[i].fid) << label << ", pair " << i;
      ASSERT_EQ(got[i].oid, want[i].oid) << label << ", pair " << i;
      ASSERT_EQ(ScoreBits(got[i].score), ScoreBits(want[i].score))
          << label << ", pair " << i;
    }
    EXPECT_EQ(parallel_run.result.stats.loops, inline_run.result.stats.loops)
        << label;
    EXPECT_EQ(parallel_run.probes, inline_run.probes) << label;
    EXPECT_EQ(parallel_run.restarts, inline_run.restarts) << label;
    EXPECT_GT(inline_run.probes, 0) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Instances, ParallelVsInlineTest,
                         ::testing::Range(0, 4));

}  // namespace
}  // namespace fairmatch

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
//
// A third pins SB's result to its function index: SB over its own
// packed image, over a supplied PackedFunctionStore and over
// FunctionLists (the generic TA loop) must produce the same matching.
//
// A fourth runs SB-alt against the oracle on instances whose active
// sets span several SIMD score blocks.
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
#include "fairmatch/common/simd.h"
#include "fairmatch/common/thread_pool.h"
#include "fairmatch/engine/exec_context.h"
#include "fairmatch/engine/registry.h"
#include "fairmatch/skyline/bbs.h"
#include "fairmatch/topk/function_lists.h"
#include "fairmatch/topk/packed_function_lists.h"
#include "test_util.h"

namespace fairmatch {
namespace {

using fairmatch::testing::GridFunctions;
using fairmatch::testing::GridPoints;
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

/// SB over its own packed image, or SB-Packed (a supplied one), with
/// fan-out allowed or not.
SBRun RunSB(const AssignmentProblem& problem, bool packed, bool parallel) {
  MemTree mem(problem);
  std::unique_ptr<PackedFunctionStore> store;
  if (packed) {
    store = std::make_unique<PackedFunctionStore>(problem.functions);
  }
  ExecContext ctx;
  ctx.set_parallel(parallel);
  SBAssignment sb(&problem, &mem.tree, SBOptions{}, store.get(), &ctx);
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

// --- SB's matching does not depend on its function index -------------

/// Random shapes (0-7), the fan-out instances (8-11, the last
/// tie-heavy), and grid points against grid functions (12-13: equal
/// scores everywhere, duplicated points, capacities on 13).
AssignmentProblem IndexCase(int index) {
  if (index < 8) return RandomProblem(SpecForSeed(200 + index));
  if (index < 12) return ParallelCase(index - 8);
  const int dims = index == 12 ? 3 : 4;
  FunctionSet fns = GridFunctions(90, dims, 3, 1200 + index);
  if (index == 13) SetFunctionCapacities(&fns, 2);
  return MakeProblem(GridPoints(400, dims, 4, 1300 + index), std::move(fns),
                     /*object_capacity=*/index == 13 ? 2 : 1);
}

class SBIndexAgreementTest : public ::testing::TestWithParam<int> {};

// SB with no index (it builds an anonymous packed image and runs the
// impact-ordered kernel), SB over a supplied PackedFunctionStore (small
// blocks, so the frontier moves often), and SB over FunctionLists (the
// generic TA loop, which the benchmark suite's traced replay runs)
// pick the same winner on every search, so they emit the same matching
// in the same order with the same score bits and loop count.
TEST_P(SBIndexAgreementTest, SameMatchingOverEveryIndex) {
  const AssignmentProblem problem = IndexCase(GetParam());
  PackedStoreOptions small_blocks;
  small_blocks.block_entries = 8;
  PackedFunctionStore packed(problem.functions, small_blocks);
  FunctionLists lists(&problem.functions);
  const auto run = [&](FunctionIndexBase* index) {
    MemTree mem(problem);
    SBAssignment sb(&problem, &mem.tree, SBOptions{}, index);
    return sb.Run();
  };
  const AssignResult want = run(nullptr);
  ASSERT_TRUE(VerifyStableMatching(problem, want.matching).ok);
  ASSERT_FALSE(want.matching.empty());
  for (FunctionIndexBase* index :
       {static_cast<FunctionIndexBase*>(&packed),
        static_cast<FunctionIndexBase*>(&lists)}) {
    const std::string label =
        std::string(index == &lists ? "FunctionLists" : "packed") +
        ", case " + std::to_string(GetParam());
    const AssignResult got = run(index);
    ASSERT_EQ(got.matching.size(), want.matching.size()) << label;
    for (size_t i = 0; i < want.matching.size(); ++i) {
      ASSERT_EQ(got.matching[i].fid, want.matching[i].fid)
          << label << ", pair " << i;
      ASSERT_EQ(got.matching[i].oid, want.matching[i].oid)
          << label << ", pair " << i;
      ASSERT_EQ(ScoreBits(got.matching[i].score),
                ScoreBits(want.matching[i].score))
          << label << ", pair " << i;
    }
    EXPECT_EQ(got.stats.loops, want.stats.loops) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Instances, SBIndexAgreementTest,
                         ::testing::Range(0, 14));

// --- SB-alt over active sets of several score blocks -----------------

/// Anti-correlated shapes whose first skylines span several
/// simd::kScoreBlock blocks and whose function sets are large enough
/// that members retire while the scan still has functions to score
/// (one with priorities and function capacities, one with priorities).
ProblemSpec MultiBlockSpec(int index) {
  struct Shape {
    int objects, functions, dims, max_gamma, function_capacity;
    uint64_t seed;
  };
  static constexpr Shape kShapes[] = {{726, 286, 4, 1, 1, 9382},
                                      {593, 271, 3, 3, 2, 9370},
                                      {470, 293, 3, 3, 1, 9414}};
  const Shape& shape = kShapes[index];
  ProblemSpec spec;
  spec.distribution = Distribution::kAntiCorrelated;
  spec.num_objects = shape.objects;
  spec.num_functions = shape.functions;
  spec.dims = shape.dims;
  spec.max_gamma = shape.max_gamma;
  spec.function_capacity = shape.function_capacity;
  spec.seed = shape.seed;
  return spec;
}

class SBAltMultiBlockTest : public ::testing::TestWithParam<int> {};

// SB-alt's batch search keeps its active members' columns and bars
// (each member's best score so far) in whole simd::kScoreBlock blocks
// and swap-removes a retired member from both. A bar left behind by a
// retired member makes the member moved into its slot skip functions
// that beat its own best, so its candidate, and then the matching,
// drift from the oracle's. The random shapes above are too small for
// that to show.
TEST_P(SBAltMultiBlockTest, MatchesOracle) {
  const AssignmentProblem problem = RandomProblem(MultiBlockSpec(GetParam()));
  {
    MemTree mem(problem);
    SkylineManager sky(&mem.tree);
    sky.ComputeInitial();
    ASSERT_GT(sky.skyline().size(), size_t{2} * simd::kScoreBlock);
  }
  const Matching want = NaiveStableMatching(problem);
  const AssignResult got = RunRegisteredMatcher("SB-alt", problem);
  ASSERT_TRUE(got.status.ok());
  EXPECT_TRUE(VerifyStableMatching(problem, got.matching).ok);
  EXPECT_TRUE(SameMatching(got.matching, want))
      << "|want|=" << want.size() << ", |got|=" << got.matching.size();
  EXPECT_DOUBLE_EQ(CanonicalObjective(got.matching),
                   CanonicalObjective(want));
}

INSTANTIATE_TEST_SUITE_P(Instances, SBAltMultiBlockTest,
                         ::testing::Range(0, 3));

}  // namespace
}  // namespace fairmatch

// Correctness of the assignment algorithms on the standard problem:
// every matcher in the engine registry must produce exactly the
// matching defined by iterative best-pair extraction (plus targeted
// SB-option ablations, which are SBOptions knobs rather than registry
// variants).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "fairmatch/assign/naive_matcher.h"
#include "fairmatch/assign/sb.h"
#include "fairmatch/assign/skyline_loop.h"
#include "fairmatch/assign/verifier.h"
#include "fairmatch/common/thread_pool.h"
#include "fairmatch/engine/exec_context.h"
#include "fairmatch/engine/registry.h"
#include "test_util.h"

namespace fairmatch {
namespace {

using fairmatch::testing::GridFunctions;
using fairmatch::testing::GridPoints;
using fairmatch::testing::MemTree;
using fairmatch::testing::ProblemSpec;
using fairmatch::testing::RandomProblem;
using fairmatch::testing::RunRegisteredMatcher;

std::string Describe(const Matching& m) {
  std::string out;
  for (const auto& p : m) {
    out += "(f" + std::to_string(p.fid) + ",o" + std::to_string(p.oid) +
           ") ";
  }
  return out;
}

void ExpectSame(const Matching& got, const Matching& want,
                const std::string& label) {
  EXPECT_TRUE(SameMatching(got, want))
      << label << "\n got: " << Describe(got) << "\nwant: " << Describe(want);
}

class AssignParamTest : public ::testing::TestWithParam<ProblemSpec> {};

TEST_P(AssignParamTest, EveryRegisteredMatcherMatchesNaive) {
  AssignmentProblem problem = RandomProblem(GetParam());
  Matching want = NaiveStableMatching(problem);
  for (const std::string& name : MatcherRegistry::Global().Names()) {
    AssignResult got = RunRegisteredMatcher(name, problem);
    ExpectSame(got.matching, want, name + " vs naive");
    auto verdict = VerifyStableMatching(problem, got.matching);
    EXPECT_TRUE(verdict.ok) << name << ": " << verdict.message;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AssignParamTest,
    ::testing::Values(
        // |F| << |O|, the paper's standard setting.
        ProblemSpec{15, 150, 3, Distribution::kIndependent, 1001},
        ProblemSpec{15, 150, 3, Distribution::kAntiCorrelated, 1002},
        ProblemSpec{15, 150, 3, Distribution::kCorrelated, 1003},
        ProblemSpec{25, 120, 4, Distribution::kAntiCorrelated, 1004},
        ProblemSpec{10, 400, 5, Distribution::kIndependent, 1005},
        ProblemSpec{40, 60, 2, Distribution::kAntiCorrelated, 1006},
        // |F| > |O|: unmatched functions remain.
        ProblemSpec{80, 30, 3, Distribution::kIndependent, 1007},
        ProblemSpec{120, 20, 4, Distribution::kAntiCorrelated, 1008},
        // |F| == |O|.
        ProblemSpec{50, 50, 3, Distribution::kCorrelated, 1009},
        // Tiny edge cases.
        ProblemSpec{1, 1, 2, Distribution::kIndependent, 1010},
        ProblemSpec{1, 50, 3, Distribution::kAntiCorrelated, 1011},
        ProblemSpec{50, 1, 3, Distribution::kIndependent, 1012},
        ProblemSpec{2, 2, 6, Distribution::kIndependent, 1013}));

// SB option ablations must not change the result, only the cost.
struct SBVariant {
  const char* name;
  SBOptions options;
};

class SBOptionTest : public ::testing::TestWithParam<int> {};

TEST_P(SBOptionTest, AllVariantsAgree) {
  ProblemSpec spec;
  spec.num_functions = 30;
  spec.num_objects = 200;
  spec.dims = 3;
  spec.distribution = Distribution::kAntiCorrelated;
  spec.seed = 2000 + GetParam();
  AssignmentProblem problem = RandomProblem(spec);
  Matching want = NaiveStableMatching(problem);

  std::vector<SBVariant> variants;
  variants.push_back({"default", SBOptions{}});
  {
    SBOptions o;
    o.multi_pair = false;
    variants.push_back({"single-pair", o});
  }
  {
    SBOptions o;
    o.best_pair_mode = BestPairMode::kExhaustive;
    o.multi_pair = false;
    variants.push_back({"SB-UpdateSkyline (ablation)", o});
  }
  {
    SBOptions o;
    o.skyline_mode = SkylineMode::kDeltaSky;
    o.best_pair_mode = BestPairMode::kExhaustive;
    o.multi_pair = false;
    variants.push_back({"SB-DeltaSky (ablation)", o});
  }
  {
    SBOptions o;
    o.ta.omega = 0.004;  // tiny queue: forces restarts
    variants.push_back({"tiny-omega", o});
  }
  {
    SBOptions o;
    o.ta.biased_probing = false;
    variants.push_back({"round-robin", o});
  }
  {
    SBOptions o;
    o.ta.resume = false;
    variants.push_back({"no-resume", o});
  }
  {
    SBOptions o;
    o.skyline_mode = SkylineMode::kDeltaSky;
    variants.push_back({"deltasky+multipair", o});
  }

  for (const SBVariant& variant : variants) {
    MemTree mem(problem);
    SBAssignment sb(&problem, &mem.tree, variant.options);
    AssignResult got = sb.Run();
    ExpectSame(got.matching, want, variant.name);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SBOptionTest, ::testing::Range(0, 6));

// Tie-heavy instances: duplicate points and duplicate/grid weights.
//
// Under exact score ties the stable matching is not unique: a dominated
// object can tie a skyline member (e.g. under a zero weight), and the
// skyline-based algorithms then legitimately pick the member while the
// full-scan algorithms pick the smallest object id. Contract tested
// here: BF and Chain (full-object-set searches with the canonical tie
// order) reproduce naive *exactly*; the SB family produces a matching
// that is (a) stable per Definition 1, (b) of the same size, and
// (c) deterministic.
TEST(AssignTieTest, GridInstancesAllAlgorithmsAgree) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    auto points = GridPoints(80, 3, 3, 3000 + seed);
    FunctionSet fns = GridFunctions(25, 3, 3, 4000 + seed);
    AssignmentProblem problem = MakeProblem(points, fns);
    Matching want = NaiveStableMatching(problem);
    for (const std::string& name : MatcherRegistry::Global().Names()) {
      const MatcherInfo* info = MatcherRegistry::Global().Find(name);
      std::string label = name + " grid seed=" + std::to_string(seed);
      Matching got = RunRegisteredMatcher(name, problem).matching;
      if (info->exact_under_ties) {
        ExpectSame(got, want, label);
      } else {
        // The SB family: stable, same size, deterministic — but free to
        // resolve exact score ties differently from the full-scan
        // algorithms (see the contract above).
        auto verdict = VerifyStableMatching(problem, got);
        EXPECT_TRUE(verdict.ok) << label << ": " << verdict.message;
        EXPECT_EQ(got.size(), want.size()) << label;
        ExpectSame(RunRegisteredMatcher(name, problem).matching, got,
                   label + " determinism");
      }
    }
  }
}

TEST(AssignTieTest, IdenticalFunctionsShareObjectsDeterministically) {
  // Five identical functions compete for distinct objects.
  FunctionSet fns;
  for (int i = 0; i < 5; ++i) {
    PrefFunction f;
    f.id = i;
    f.dims = 2;
    f.alpha = {0.5, 0.5};
    fns.push_back(f);
  }
  Rng rng(5005);
  auto points = GeneratePoints(Distribution::kIndependent, 30, 2, &rng);
  AssignmentProblem problem = MakeProblem(points, fns);
  Matching want = NaiveStableMatching(problem);
  Matching got = RunRegisteredMatcher("SB", problem).matching;
  ExpectSame(got, want, "identical functions");
  // All five matched (|F| < |O|).
  EXPECT_EQ(got.size(), 5u);
}

TEST(AssignTest, PaperRunningExample) {
  // Figure 1: f1=0.8X+0.2Y, f2=0.2X+0.8Y, f3=0.5X+0.5Y over
  // a=(0.5,0.6) b=(0.2,0.7) c=(0.8,0.2) d=(0.4,0.4).
  FunctionSet fns(3);
  fns[0] = PrefFunction{0, 2, {0.8, 0.2}, 1.0, 1};
  fns[1] = PrefFunction{1, 2, {0.2, 0.8}, 1.0, 1};
  fns[2] = PrefFunction{2, 2, {0.5, 0.5}, 1.0, 1};
  std::vector<Point> points(4, Point(2));
  points[0][0] = 0.5f;
  points[0][1] = 0.6f;  // a
  points[1][0] = 0.2f;
  points[1][1] = 0.7f;  // b
  points[2][0] = 0.8f;
  points[2][1] = 0.2f;  // c
  points[3][0] = 0.4f;
  points[3][1] = 0.4f;  // d
  AssignmentProblem problem = MakeProblem(points, fns);

  Matching got = RunRegisteredMatcher("SB", problem).matching;
  CanonicalizeMatching(&got);
  // The paper's outcome: c -> f1, b -> f2, a -> f3.
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].fid, 0);
  EXPECT_EQ(got[0].oid, 2);
  EXPECT_EQ(got[1].fid, 1);
  EXPECT_EQ(got[1].oid, 1);
  EXPECT_EQ(got[2].fid, 2);
  EXPECT_EQ(got[2].oid, 0);
}

TEST(AssignTest, ProgressiveOutputOrderIsDescendingScore) {
  ProblemSpec spec;
  spec.num_functions = 30;
  spec.num_objects = 150;
  spec.seed = 6006;
  AssignmentProblem problem = RandomProblem(spec);
  Matching got = RunRegisteredMatcher("SB", problem).matching;
  // Multi-pair loops emit batches, and batches are in score order across
  // loops: the first pair of the run is the global maximum.
  Matching naive = NaiveStableMatching(problem);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0].fid, naive[0].fid);
  EXPECT_EQ(got[0].oid, naive[0].oid);
}

// --- the skyline loop's early-job contract ------------------------------

/// A candidate source that starts a job at every step 7 and records, on
/// each Candidates call, whether every index of every job started so
/// far has run. Candidates come from a plain scan of the unassigned
/// functions. Each job reads all of `assigned`, so a write to it during
/// a job is a race for TSan.
class RecordingSource final : public CandidateSource {
 public:
  static constexpr size_t kJobSize = 24;

  RecordingSource(const FunctionSet* fns, ThreadPool* pool,
                  ExecContext* expire_after_first_loop)
      : fns_(fns), pool_(pool), expire_(expire_after_first_loop) {}

  bool Candidates(const SkylineSet& sky, const std::vector<uint8_t>& assigned,
                  int64_t /*remaining*/,
                  std::vector<MemberCandidate>* out) override {
    ++candidates_calls;
    if (ran_.load() != started) ++unjoined_at_candidates;
    bool found_all = true;
    sky.ForEach([&](int, const SkylineObject& m) {
      FunctionId best = kInvalidFunction;
      double best_score = 0.0;
      for (const PrefFunction& f : *fns_) {
        if (assigned[f.id]) continue;
        const double score = f.Score(m.point);
        if (best == kInvalidFunction || score > best_score) {
          best = f.id;
          best_score = score;
        }
      }
      found_all &= best != kInvalidFunction;
      out->push_back(MemberCandidate{m.id, &m.point, best, best_score});
    });
    return found_all;
  }

  ThreadPool::Job StartEarly(const std::vector<uint8_t>& assigned,
                             int64_t remaining) override {
    ++jobs;
    started += kJobSize;
    last_remaining = remaining;
    if (expire_ != nullptr && jobs == 1) {
      expire_->set_deadline(std::chrono::steady_clock::time_point{});
    }
    return pool_->StartParallelFor(kJobSize, 1, [this, &assigned](size_t) {
      int unassigned = 0;
      for (const uint8_t a : assigned) unassigned += a == 0;
      ran_ += unassigned >= 0;
    });
  }

  size_t memory_bytes() const override { return 0; }

  size_t ran() const { return ran_.load(); }

  int candidates_calls = 0;
  int unjoined_at_candidates = 0;
  int jobs = 0;
  size_t started = 0;
  int64_t last_remaining = -1;

 private:
  const FunctionSet* fns_;
  ThreadPool* pool_;
  ExecContext* expire_;
  std::atomic<size_t> ran_{0};
};

enum class LoopEnd { kObjectsRunOut, kDeadline, kFunctionsRunOut };

struct LoopContractParam {
  LoopEnd end;
  // Park the pool's one worker for the whole run: a job's indexes then
  // run only when the loop joins it, so a missing join shows up as
  // unrun indexes. Unparked, the helper races the loop.
  bool park_helper;
};

class SkylineLoopContractTest
    : public ::testing::TestWithParam<LoopContractParam> {};

// Every job the source starts at step 7 is joined before the next
// Candidates call and before RunSkylineLoop returns, whichever way the
// run ends: the skyline empties, an expired deadline cuts it after the
// first loop, or every function is assigned.
TEST_P(SkylineLoopContractTest, EveryStartedJobIsJoined) {
  const LoopContractParam param = GetParam();
  ProblemSpec spec;
  spec.num_objects = param.end == LoopEnd::kFunctionsRunOut ? 120 : 30;
  spec.num_functions = param.end == LoopEnd::kFunctionsRunOut ? 20 : 60;
  spec.seed = 7007;
  const AssignmentProblem problem = RandomProblem(spec);
  MemTree mem(problem);
  ThreadPool pool(1);
  std::promise<void> release;
  if (param.park_helper) {
    std::promise<void> parked;
    std::shared_future<void> released = release.get_future().share();
    pool.Submit([&parked, released] {
      parked.set_value();
      released.wait();
    });
    parked.get_future().wait();
  }
  ExecContext ctx;
  RecordingSource source(&problem.functions, &pool,
                         param.end == LoopEnd::kDeadline ? &ctx : nullptr);
  const AssignResult result = RunSkylineLoop(
      problem, mem.tree, SkylineLoopOptions{}, &source, &ctx);
  const size_t ran_at_return = source.ran();
  if (param.park_helper) release.set_value();

  EXPECT_EQ(ran_at_return, source.started);
  EXPECT_EQ(source.unjoined_at_candidates, 0);
  EXPECT_GE(source.jobs, 1);
  switch (param.end) {
    case LoopEnd::kObjectsRunOut:
      // The last loop finds the skyline empty and calls nothing.
      EXPECT_TRUE(ctx.status().ok());
      EXPECT_EQ(result.matching.size(), problem.objects.size());
      EXPECT_GT(source.last_remaining, 0);
      EXPECT_EQ(source.jobs, result.stats.loops - 1);
      EXPECT_EQ(source.candidates_calls, source.jobs);
      break;
    case LoopEnd::kDeadline:
      // The second loop's cancellation point ends the run before it
      // counts.
      EXPECT_EQ(ctx.status().code, ErrorCode::kDeadlineExceeded);
      EXPECT_EQ(result.stats.loops, 1);
      EXPECT_EQ(source.jobs, 1);
      EXPECT_EQ(source.candidates_calls, 1);
      break;
    case LoopEnd::kFunctionsRunOut:
      EXPECT_TRUE(ctx.status().ok());
      EXPECT_EQ(result.matching.size(), problem.functions.size());
      EXPECT_EQ(source.last_remaining, 0);
      EXPECT_EQ(source.jobs, result.stats.loops);
      EXPECT_EQ(source.candidates_calls, source.jobs);
      break;
  }
  if (param.end != LoopEnd::kDeadline) {
    const VerifyResult verdict = VerifyStableMatching(problem, result.matching);
    EXPECT_TRUE(verdict.ok) << verdict.message;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ends, SkylineLoopContractTest,
    ::testing::Values(LoopContractParam{LoopEnd::kObjectsRunOut, true},
                      LoopContractParam{LoopEnd::kObjectsRunOut, false},
                      LoopContractParam{LoopEnd::kDeadline, true},
                      LoopContractParam{LoopEnd::kDeadline, false},
                      LoopContractParam{LoopEnd::kFunctionsRunOut, true},
                      LoopContractParam{LoopEnd::kFunctionsRunOut, false}),
    [](const ::testing::TestParamInfo<LoopContractParam>& info) {
      const char* end = info.param.end == LoopEnd::kObjectsRunOut
                            ? "ObjectsRunOut"
                        : info.param.end == LoopEnd::kDeadline
                            ? "Deadline"
                            : "FunctionsRunOut";
      return std::string(end) +
             (info.param.park_helper ? "ParkedHelper" : "RacingHelper");
    });

TEST(VerifierTest, DetectsBlockingPair) {
  ProblemSpec spec;
  spec.num_functions = 10;
  spec.num_objects = 20;
  spec.seed = 7007;
  AssignmentProblem problem = RandomProblem(spec);
  Matching good = NaiveStableMatching(problem);
  EXPECT_TRUE(VerifyStableMatching(problem, good).ok);
  // Swap two assignments: stability breaks (generically).
  ASSERT_GE(good.size(), 2u);
  Matching bad = good;
  std::swap(bad[0].oid, bad[1].oid);
  bad[0].score = problem.functions[bad[0].fid].Score(
      problem.objects[bad[0].oid].point);
  bad[1].score = problem.functions[bad[1].fid].Score(
      problem.objects[bad[1].oid].point);
  EXPECT_FALSE(VerifyStableMatching(problem, bad).ok);
}

TEST(VerifierTest, DetectsNonMaximalMatching) {
  ProblemSpec spec;
  spec.num_functions = 10;
  spec.num_objects = 20;
  spec.seed = 7008;
  AssignmentProblem problem = RandomProblem(spec);
  Matching good = NaiveStableMatching(problem);
  Matching truncated(good.begin(), good.end() - 1);
  EXPECT_FALSE(VerifyStableMatching(problem, truncated).ok);
}

TEST(VerifierTest, DetectsCapacityViolation) {
  ProblemSpec spec;
  spec.num_functions = 5;
  spec.num_objects = 20;
  spec.seed = 7009;
  AssignmentProblem problem = RandomProblem(spec);
  Matching good = NaiveStableMatching(problem);
  Matching bad = good;
  bad.push_back(bad[0]);  // function 0 matched twice with capacity 1
  EXPECT_FALSE(VerifyStableMatching(problem, bad).ok);
}

}  // namespace
}  // namespace fairmatch

// The matcher engine layer: registry contents, environment validation,
// uniform instrumentation, and — most importantly — registry-driven
// parity: every registered matcher must produce the oracle matching on
// randomized instances across dimensionalities, capacities, priorities
// and seeds. New algorithm variants get this coverage just by
// registering; no test edits needed.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fairmatch/assign/naive_matcher.h"
#include "fairmatch/common/status.h"
#include "fairmatch/engine/registry.h"
#include "fairmatch/serve/dataset_registry.h"
#include "fairmatch/update/delta_builder.h"
#include "fairmatch/topk/disk_function_lists.h"
#include "fairmatch/topk/packed_function_lists.h"
#include "test_util.h"

namespace fairmatch {
namespace {

using fairmatch::testing::MemTree;
using fairmatch::testing::ProblemSpec;
using fairmatch::testing::RandomProblem;
using fairmatch::testing::RunRegisteredMatcher;

TEST(RegistryTest, MatcherNameMatchesRegistryKey) {
  ProblemSpec spec;
  AssignmentProblem problem = RandomProblem(spec);
  MemTree mem(problem);
  DiskFunctionStore fstore(problem.functions, 0.02);
  PackedFunctionStore pstore(problem.functions, PackedStoreOptions{});
  MatcherEnv env;
  env.problem = &problem;
  env.tree = &mem.tree;
  env.fn_store = &fstore;
  env.packed_fns = &pstore;
  for (const std::string& name : MatcherRegistry::Global().Names()) {
    auto matcher = MatcherRegistry::Global().Create(name, env);
    ASSERT_NE(matcher, nullptr) << name;
    EXPECT_EQ(matcher->Name(), name);
  }
}

TEST(RegistryTest, ExposesAtLeastEightVariants) {
  const MatcherRegistry& registry = MatcherRegistry::Global();
  EXPECT_GE(registry.Names().size(), 8u);
  // The paper's roster must be present under these exact names.
  for (const char* name :
       {"SB", "SB-SinglePair", "SB-UpdateSkyline", "SB-DeltaSky",
        "SB-TwoSkylines", "SB-alt", "BruteForce", "Chain", "Naive"}) {
    EXPECT_NE(registry.Find(name), nullptr) << name;
  }
}

TEST(RegistryTest, MetadataMatchesAlgorithmContracts) {
  const MatcherRegistry& registry = MatcherRegistry::Global();
  // Chain physically deletes from the object tree; callers key fresh-
  // tree handling off this flag.
  EXPECT_TRUE(registry.Find("Chain")->mutates_tree);
  EXPECT_FALSE(registry.Find("SB")->mutates_tree);
  // The oracle is flagged so harnesses (bench Run) can refuse to
  // benchmark it.
  EXPECT_TRUE(registry.Find("Naive")->reference);
  // Exactly one variant is confined to the disk-resident-F setting.
  EXPECT_TRUE(registry.Find("SB-alt")->needs_disk_functions);
  EXPECT_FALSE(registry.Find("BruteForce")->needs_disk_functions);
}

TEST(RegistryTest, UnknownNameIsRejected) {
  ProblemSpec spec;
  AssignmentProblem problem = RandomProblem(spec);
  MemTree mem(problem);
  MatcherEnv env;
  env.problem = &problem;
  env.tree = &mem.tree;
  EXPECT_EQ(MatcherRegistry::Global().Find("NoSuchAlgorithm"), nullptr);
  EXPECT_EQ(MatcherRegistry::Global().Create("NoSuchAlgorithm", env),
            nullptr);
}

TEST(RegistryTest, CreateValidatesEnvironment) {
  ProblemSpec spec;
  AssignmentProblem problem = RandomProblem(spec);
  MemTree mem(problem);
  const MatcherRegistry& registry = MatcherRegistry::Global();
  {
    MatcherEnv env;  // no problem, no tree
    EXPECT_EQ(registry.Create("SB", env), nullptr);
  }
  {
    MatcherEnv env;
    env.problem = &problem;  // still no tree
    EXPECT_EQ(registry.Create("SB", env), nullptr);
  }
  {
    MatcherEnv env;
    env.problem = &problem;
    env.tree = &mem.tree;
    // SB-alt requires the disk-resident function store.
    ASSERT_TRUE(registry.Find("SB-alt")->needs_disk_functions);
    EXPECT_EQ(registry.Create("SB-alt", env), nullptr);
    EXPECT_NE(registry.Create("SB", env), nullptr);
  }
}

TEST(RegistryTest, ExternalVariantsPlugIn) {
  MatcherRegistry registry;  // private registry: don't pollute Global()
  MatcherInfo info;
  info.name = "AlwaysEmpty";
  info.description = "test stub";
  struct EmptyMatcher : Matcher {
    std::string Name() const override { return "AlwaysEmpty"; }
    AssignResult Run() override { return AssignResult{}; }
  };
  info.factory = [](const MatcherEnv&) {
    return std::make_unique<EmptyMatcher>();
  };
  registry.Register(std::move(info));
  ProblemSpec spec;
  AssignmentProblem problem = RandomProblem(spec);
  MemTree mem(problem);
  MatcherEnv env;
  env.problem = &problem;
  env.tree = &mem.tree;
  auto matcher = registry.Create("AlwaysEmpty", env);
  ASSERT_NE(matcher, nullptr);
  EXPECT_TRUE(matcher->Run().matching.empty());
}

// --- registry-driven parity ------------------------------------------
// Every registered matcher (the reference oracle included — it must
// agree with itself) reproduces the naive stable matching, and reports
// its stats uniformly.
class EngineParityTest : public ::testing::TestWithParam<ProblemSpec> {};

TEST_P(EngineParityTest, EveryRegisteredMatcherMatchesNaive) {
  AssignmentProblem problem = RandomProblem(GetParam());
  Matching want = NaiveStableMatching(problem);
  for (const std::string& name : MatcherRegistry::Global().Names()) {
    ExecContext ctx;
    AssignResult got = RunRegisteredMatcher(name, problem, &ctx);
    EXPECT_TRUE(SameMatching(got.matching, want))
        << name << " diverges from the oracle (|want|=" << want.size()
        << ", |got|=" << got.matching.size() << ")";
    // Uniform reporting: every matcher fills the same RunStats fields
    // through the ExecContext protocol.
    EXPECT_EQ(got.stats.algorithm, name);
    EXPECT_EQ(got.stats.pairs, got.matching.size()) << name;
    EXPECT_GE(got.stats.cpu_ms, 0.0) << name;
  }
}

TEST_P(EngineParityTest, MatchersAreDeterministic) {
  AssignmentProblem problem = RandomProblem(GetParam());
  for (const std::string& name : MatcherRegistry::Global().Names()) {
    AssignResult a = RunRegisteredMatcher(name, problem);
    AssignResult b = RunRegisteredMatcher(name, problem);
    EXPECT_TRUE(SameMatching(a.matching, b.matching)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineParityTest,
    ::testing::Values(
        // Varying dimensionality.
        ProblemSpec{12, 90, 2, Distribution::kIndependent, 11001},
        ProblemSpec{12, 90, 3, Distribution::kAntiCorrelated, 11002},
        ProblemSpec{12, 90, 4, Distribution::kCorrelated, 11003},
        ProblemSpec{10, 70, 5, Distribution::kAntiCorrelated, 11004},
        // Varying cardinality shape (|F| > |O| leaves functions over).
        ProblemSpec{60, 25, 3, Distribution::kIndependent, 11005},
        ProblemSpec{30, 30, 3, Distribution::kAntiCorrelated, 11006},
        // Varying capacities.
        ProblemSpec{10, 60, 3, Distribution::kAntiCorrelated, 11007,
                    /*function_capacity=*/3, /*object_capacity=*/1},
        ProblemSpec{10, 60, 3, Distribution::kIndependent, 11008,
                    /*function_capacity=*/1, /*object_capacity=*/2},
        ProblemSpec{8, 40, 4, Distribution::kAntiCorrelated, 11009,
                    /*function_capacity=*/2, /*object_capacity=*/2},
        // Varying priorities (and priorities + capacities combined).
        ProblemSpec{15, 80, 3, Distribution::kAntiCorrelated, 11010,
                    /*function_capacity=*/1, /*object_capacity=*/1,
                    /*max_gamma=*/4},
        ProblemSpec{12, 50, 3, Distribution::kIndependent, 11011,
                    /*function_capacity=*/2, /*object_capacity=*/2,
                    /*max_gamma=*/8}));

// Run() consumes the environment, so a second call on the same matcher
// instance is a programming error — builtin matchers abort rather than
// silently return garbage (documented in engine/matcher.h).
TEST(MatcherContractTest, SecondRunAborts) {
  ProblemSpec spec;
  AssignmentProblem problem = RandomProblem(spec);
  MemTree mem(problem);
  MatcherEnv env;
  env.problem = &problem;
  env.tree = &mem.tree;
  auto matcher = MatcherRegistry::Global().Create("SB", env);
  ASSERT_NE(matcher, nullptr);
  EXPECT_FALSE(matcher->Run().matching.empty());
  EXPECT_DEATH(matcher->Run(), "called twice");
}

// With an ExecContext attached (the serve path always has one), the
// same misuse must come back typed instead: kFailedPrecondition through
// the ErrorSink, empty matching, process alive — a misbehaving caller
// must not take down a serving lane.
TEST(MatcherContractTest, SecondRunWithContextIsTypedNotFatal) {
  ProblemSpec spec;
  AssignmentProblem problem = RandomProblem(spec);
  MemTree mem(problem);
  ExecContext ctx;
  MatcherEnv env;
  env.problem = &problem;
  env.tree = &mem.tree;
  env.ctx = &ctx;
  auto matcher = MatcherRegistry::Global().Create("SB", env);
  ASSERT_NE(matcher, nullptr);
  const AssignResult first = matcher->Run();
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.matching.empty());

  const AssignResult second = matcher->Run();
  EXPECT_EQ(second.status.code, ErrorCode::kFailedPrecondition);
  EXPECT_NE(second.status.message.find("called twice"), std::string::npos)
      << second.status.message;
  EXPECT_TRUE(second.matching.empty());
  EXPECT_EQ(ctx.errors().status().code, ErrorCode::kFailedPrecondition);
}

// The shared context aggregates multi-store I/O: a disk-F run's
// RunStats must cover both the coefficient lists and any matcher-
// private disk structures, with no hand-stitching by the caller.
TEST(EngineInstrumentationTest, DiskRunsReportAggregatedIo) {
  ProblemSpec spec;
  spec.num_functions = 200;
  spec.num_objects = 40;
  spec.dims = 3;
  spec.seed = 12001;
  AssignmentProblem problem = RandomProblem(spec);
  for (const char* name : {"SB", "SB-alt", "BruteForce", "Chain"}) {
    ExecContext ctx;
    MemTree mem(problem);
    DiskFunctionStore fstore(problem.functions, 0.02, &ctx.counters());
    MatcherEnv env;
    env.problem = &problem;
    env.tree = &mem.tree;
    env.fn_store = &fstore;
    env.ctx = &ctx;
    auto matcher = MatcherRegistry::Global().Create(name, env);
    ASSERT_NE(matcher, nullptr) << name;
    AssignResult got = matcher->Run();
    EXPECT_GT(got.stats.io_accesses, 0) << name;
    EXPECT_EQ(got.stats.io_accesses, ctx.counters().io_accesses()) << name;
  }
}

// Epoch publishes must advance: serving a dataset and then "updating"
// it to an older (or the same) epoch would silently roll back
// acknowledged updates for every request that follows. The registry
// enforces the monotonicity contract both ways — a CHECK-abort on the
// engine-internal Publish (a caller holding stale handles is a
// programming error) and a typed kFailedPrecondition through
// PublishOrError + ErrorSink for the serving/recovery path, where one
// bad publisher must not take the process down.
TEST(DatasetRegistryTest, NonMonotonicPublishAbortsAndTypesPrecondition) {
  ProblemSpec spec;
  AssignmentProblem problem = RandomProblem(spec);
  serve::DatasetRegistry registry;
  serve::DatasetHandle base = registry.Open("epochs", problem, {});
  ASSERT_NE(base, nullptr);

  update::DeltaBuilder builder(base, {});
  update::UpdateBatch batch;
  batch.delete_objects.push_back(0);
  ASSERT_TRUE(builder.Apply(batch).ok());
  ASSERT_GT(builder.epoch(), base->epoch());
  registry.Publish(builder.current());

  // Typed path: re-publishing the superseded epoch (and the live epoch
  // itself) is rejected without touching what is being served.
  ErrorSink sink;
  serve::DatasetHandle replaced;
  const Status stale =
      registry.PublishOrError(base, &replaced, &sink);
  EXPECT_EQ(stale.code, ErrorCode::kFailedPrecondition);
  EXPECT_NE(stale.message.find("non-monotonic"), std::string::npos)
      << stale.message;
  EXPECT_EQ(sink.status().code, ErrorCode::kFailedPrecondition);
  EXPECT_EQ(replaced, nullptr);
  const Status same =
      registry.PublishOrError(builder.current());
  EXPECT_EQ(same.code, ErrorCode::kFailedPrecondition);
  serve::DatasetHandle live = registry.Find("epochs");
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->epoch(), builder.epoch());

  // Engine-internal path: the same misuse is a contract violation.
  EXPECT_DEATH(registry.Publish(base), "non-monotonic");
}

}  // namespace
}  // namespace fairmatch

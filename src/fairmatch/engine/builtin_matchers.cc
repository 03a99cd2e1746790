// Registration of the library's built-in assignment algorithms.
//
// Each variant is an adapter from the uniform MatcherEnv onto one
// algorithm entry point. The adapter also owns the uniform
// instrumentation protocol: BeginRun() on the shared ExecContext before
// the algorithm starts, Finish() into RunStats after it returns, so
// every matcher reports cpu/io/memory identically regardless of how
// many storage objects took part in the run.
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "fairmatch/assign/brute_force.h"
#include "fairmatch/common/check.h"
#include "fairmatch/assign/chain.h"
#include "fairmatch/assign/naive_matcher.h"
#include "fairmatch/assign/sb.h"
#include "fairmatch/assign/sb_alt.h"
#include "fairmatch/assign/two_skyline.h"
#include "fairmatch/engine/registry.h"

namespace fairmatch {

void RegisterBuiltinMatchers(MatcherRegistry* registry);

namespace {

using RunFn = std::function<AssignResult(const MatcherEnv&)>;

/// Generic adapter: captures the environment at construction, applies
/// the instrumentation protocol around one algorithm invocation.
class AdapterMatcher : public Matcher {
 public:
  AdapterMatcher(std::string name, const MatcherEnv& env, RunFn run)
      : name_(std::move(name)), env_(env), run_(std::move(run)) {}

  std::string Name() const override { return name_; }

  AssignResult Run() override {
    // Run() consumes the environment (Chain deletes from the tree, the
    // context's clock and counters are single-run); a second call would
    // silently produce garbage. With an attached context (the serve
    // path) the violation is client-reachable state, so it comes back
    // as a typed kFailedPrecondition — a misbehaving caller must not
    // crash a server lane. Direct context-free use keeps the hard
    // abort: there the caller is library code and the bug is ours.
    if (ran_) {
      FAIRMATCH_CHECK(env_.ctx != nullptr && "Matcher::Run() called twice");
      const std::string message =
          "Matcher::Run() called twice on '" + name_ + "'";
      env_.ctx->errors().Report(ErrorCode::kFailedPrecondition, message);
      AssignResult result;
      result.stats.algorithm = name_;
      result.status = Status::FailedPrecondition(message);
      return result;
    }
    ran_ = true;
    if (env_.ctx != nullptr) env_.ctx->BeginRun();
    AssignResult result = run_(env_);
    result.stats.algorithm = name_;
    result.stats.pairs = result.matching.size();
    if (env_.ctx != nullptr) {
      env_.ctx->Finish(&result.stats);
      // A fault anywhere in the run's storage stack (or an expired
      // deadline) landed in the context's sticky sink; surface it as
      // the run's typed outcome.
      result.status = env_.ctx->status();
    }
    return result;
  }

 private:
  std::string name_;
  MatcherEnv env_;
  RunFn run_;
  bool ran_ = false;
};

MatcherInfo Variant(const std::string& name, const std::string& description,
                    RunFn run) {
  MatcherInfo info;
  info.name = name;
  info.description = description;
  info.factory = [name, run](const MatcherEnv& env) {
    return std::make_unique<AdapterMatcher>(name, env, run);
  };
  return info;
}

/// SB over `env.fn_store` (null: SB builds its own packed image), or
/// with `packed` over the environment's resident packed image.
RunFn RunSBWith(SBOptions options, bool packed = false) {
  return [options, packed](const MatcherEnv& env) {
    FunctionIndexBase* index = env.fn_store;
    if (packed) index = env.packed_fns;
    SBAssignment sb(env.problem, env.tree, options, index, env.ctx);
    return sb.Run();
  };
}

}  // namespace

void RegisterBuiltinMatchers(MatcherRegistry* registry) {
  // --- the SB family ---------------------------------------------------
  registry->Register(Variant(
      "SB", "skyline-based assignment, fully optimized (Algorithms 1 & 3)",
      RunSBWith(SBOptions{})));
  {
    SBOptions o;
    o.multi_pair = false;
    registry->Register(Variant(
        "SB-SinglePair",
        "SB without multi-pair extraction (Section 5.3 disabled)",
        RunSBWith(o)));
  }
  {
    SBOptions o;
    o.best_pair_mode = BestPairMode::kExhaustive;
    o.multi_pair = false;
    registry->Register(Variant(
        "SB-UpdateSkyline",
        "Algorithm 1 + UpdateSkyline, no Section 5.1/5.3 optimizations",
        RunSBWith(o)));
  }
  {
    SBOptions o;
    o.skyline_mode = SkylineMode::kDeltaSky;
    o.best_pair_mode = BestPairMode::kExhaustive;
    o.multi_pair = false;
    registry->Register(Variant(
        "SB-DeltaSky",
        "Algorithm 1 + DeltaSky, no Section 5.1/5.3 optimizations",
        RunSBWith(o)));
  }
  registry->Register(Variant(
      "SB-TwoSkylines",
      "prioritized two-skyline variant (Section 6.2)",
      [](const MatcherEnv& env) {
        return TwoSkylineAssignment(*env.problem, *env.tree, env.ctx);
      }));
  {
    MatcherInfo info = Variant(
        "SB-alt",
        "batch best-pair search over disk-resident function lists "
        "(Section 7.6)",
        [](const MatcherEnv& env) {
          return SBAltAssignment(*env.problem, *env.tree, env.fn_store,
                                 env.ctx);
        });
    info.needs_disk_functions = true;
    registry->Register(std::move(info));
  }

  // --- SB over a supplied packed image ---------------------------------
  {
    MatcherInfo info = Variant(
        "SB-Packed",
        "SB over a supplied packed function-list image "
        "(topk/packed_function_lists.h)",
        RunSBWith(SBOptions{}, /*packed=*/true));
    info.needs_packed_functions = true;
    registry->Register(std::move(info));
  }

  // --- baselines -------------------------------------------------------
  {
    MatcherInfo info = Variant(
        "BruteForce",
        "one resumable BRS top-1 search per function (Section 4.1)",
        [](const MatcherEnv& env) {
          BruteForceOptions options;
          options.disk_functions = env.fn_store;
          options.ctx = env.ctx;
          return BruteForceAssignment(*env.problem, *env.tree, options);
        });
    info.exact_under_ties = true;
    registry->Register(std::move(info));
  }
  {
    MatcherInfo info = Variant(
        "Chain",
        "mutual-top-1 chain over object and function R-trees "
        "(Wong et al., Section 2.1)",
        [](const MatcherEnv& env) {
          ChainOptions options;
          options.disk_functions = env.fn_store;
          options.function_tree_buffer = env.buffer_fraction;
          options.ctx = env.ctx;
          return ChainAssignment(*env.problem, env.tree, options);
        });
    info.exact_under_ties = true;
    info.mutates_tree = true;
    registry->Register(std::move(info));
  }
  {
    MatcherInfo info = Variant(
        "Naive", "the stable matching by definition (reference oracle)",
        [](const MatcherEnv& env) {
          AssignResult result;
          result.matching = NaiveStableMatching(*env.problem);
          return result;
        });
    info.exact_under_ties = true;
    info.reference = true;
    registry->Register(std::move(info));
  }
}

}  // namespace fairmatch

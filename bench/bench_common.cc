#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "fairmatch/common/check.h"
#include "fairmatch/common/rng.h"
#include "fairmatch/engine/registry.h"
#include "fairmatch/rtree/node_store.h"
#include "fairmatch/topk/disk_function_lists.h"

namespace fairmatch::bench {

namespace {

/// --scale override; empty means "use FAIRMATCH_SCALE".
std::string g_scale_override;

bool KnownScale(const char* name) {
  return std::strcmp(name, "paper") == 0 || std::strcmp(name, "quick") == 0 ||
         std::strcmp(name, "smoke") == 0;
}

}  // namespace

const char* ScaleName() {
  if (!g_scale_override.empty()) return g_scale_override.c_str();
  const char* env = std::getenv("FAIRMATCH_SCALE");
  if (env == nullptr || !KnownScale(env)) return "quick";
  return env;
}

double ScaleFactor() {
  const char* name = ScaleName();
  if (std::strcmp(name, "paper") == 0) return 1.0;
  if (std::strcmp(name, "smoke") == 0) return 0.02;
  return 0.25;
}

bool SetScale(const std::string& name) {
  if (!KnownScale(name.c_str())) return false;
  g_scale_override = name;
  return true;
}

int Scaled(int paper_value, int floor) {
  int v = static_cast<int>(paper_value * ScaleFactor());
  return v < floor ? floor : v;
}

BenchConfig Scale(BenchConfig config) {
  config.num_functions = Scaled(config.num_functions, 10);
  config.num_objects = Scaled(config.num_objects, 100);
  return config;
}

bool SameProblemInputs(const BenchConfig& a, const BenchConfig& b) {
  return a.num_functions == b.num_functions &&
         a.num_objects == b.num_objects && a.dims == b.dims &&
         a.distribution == b.distribution &&
         a.function_capacity == b.function_capacity &&
         a.object_capacity == b.object_capacity &&
         a.max_gamma == b.max_gamma &&
         a.weight_clusters == b.weight_clusters && a.seed == b.seed &&
         a.points_override == b.points_override;
}

AssignmentProblem BuildProblem(const BenchConfig& config) {
  Rng rng(config.seed);
  std::vector<Point> points;
  if (config.points_override != nullptr) {
    points.assign(config.points_override->begin(),
                  config.points_override->begin() + config.num_objects);
  } else {
    points = GeneratePoints(config.distribution, config.num_objects,
                            config.dims, &rng);
  }
  FunctionSet fns =
      config.weight_clusters > 0
          ? GenerateClusteredFunctions(config.num_functions, config.dims,
                                       config.weight_clusters, 0.05, &rng)
          : GenerateFunctions(config.num_functions, config.dims, &rng);
  if (config.max_gamma > 1) AssignPriorities(&fns, config.max_gamma, &rng);
  if (config.function_capacity != 1) {
    SetFunctionCapacities(&fns, config.function_capacity);
  }
  return MakeProblem(std::move(points), std::move(fns),
                     config.object_capacity);
}

std::string CheckRunnable(const std::string& name,
                          const BenchConfig& config) {
  const MatcherRegistry& registry = MatcherRegistry::Global();
  const MatcherInfo* info = registry.Find(name);
  if (info == nullptr) {
    std::string message = "unknown matcher '" + name + "'; registered:";
    for (const std::string& n : registry.Names()) message += "\n  " + n;
    return message;
  }
  if (info->needs_disk_functions && !config.disk_resident_functions) {
    return "matcher '" + name +
           "' requires the disk-resident-F setting; set "
           "BenchConfig::disk_resident_functions";
  }
  if (info->reference) {
    return "matcher '" + name +
           "' is a reference oracle (O(P*|F|*|O|)); it is excluded from "
           "benches";
  }
  return std::string();
}

RunStats Run(const std::string& name, const AssignmentProblem& problem,
             const BenchConfig& config) {
  const std::string error = CheckRunnable(name, config);
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::abort();
  }

  // One shared instrumentation context per measured run: every storage
  // entity below counts its simulated-disk traffic here.
  ExecContext ctx;
  // The paper's figures time every algorithm on one core, so SB is not
  // measured against sequential baselines with helper threads.
  ctx.set_parallel(false);
  MatcherEnv env;
  env.problem = &problem;
  env.buffer_fraction = config.buffer_fraction;
  env.ctx = &ctx;

  // Storage layout per the paper's Section 7 / 7.6 settings. Objects on
  // the paged store (standard) or in memory (disk-F); the function
  // lists on disk only in the disk-F setting.
  std::optional<PagedNodeStore> paged_store;
  std::optional<MemNodeStore> mem_store;
  std::optional<DiskFunctionStore> fstore;
  std::optional<RTree> tree;
  if (config.disk_resident_functions) {
    mem_store.emplace(problem.dims);
    tree.emplace(&*mem_store);
    BuildObjectTree(problem, &*tree);
    fstore.emplace(problem.functions, config.buffer_fraction,
                   &ctx.counters());
    env.fn_store = &*fstore;
  } else {
    paged_store.emplace(problem.dims, /*buffer_frames=*/4096,
                        &ctx.counters());
    tree.emplace(&*paged_store);
    BuildObjectTree(problem, &*tree);
    paged_store->ResetCounters();  // exclude the build phase
    paged_store->SetBufferFraction(config.buffer_fraction);
  }
  env.tree = &*tree;

  std::unique_ptr<Matcher> matcher =
      MatcherRegistry::Global().Create(name, env);
  FAIRMATCH_CHECK(matcher != nullptr);
  return matcher->Run().stats;
}

}  // namespace fairmatch::bench

// The Matcher engine seam: one interface, many assignment algorithms.
//
// Every algorithm in the library — SB and its ablations, the two-skyline
// prioritized variant, SB-alt's batch search, Brute Force, Chain, and
// the naive oracle — runs on the same inputs (a problem instance, an
// object R-tree, optionally a disk-resident function index) and produces
// the same outputs (a Matching plus RunStats). MatcherEnv captures the
// inputs once; Matcher exposes the uniform run surface; MatcherRegistry
// (registry.h) maps string names to factories so harnesses never
// hand-roll per-algorithm dispatch.
#ifndef FAIRMATCH_ENGINE_MATCHER_H_
#define FAIRMATCH_ENGINE_MATCHER_H_

#include <string>

#include "fairmatch/assign/problem.h"
#include "fairmatch/engine/exec_context.h"
#include "fairmatch/topk/disk_function_lists.h"

namespace fairmatch {

class PackedFunctionStore;

/// Everything a matcher needs to run, assembled by the caller. The
/// referenced objects must outlive the matcher. For concurrent
/// execution the environment must be run-private (tree, stores and
/// ctx are stateful even on reads) — see serve/server.h.
struct MatcherEnv {
  /// The problem instance. Required.
  const AssignmentProblem* problem = nullptr;

  /// R-tree over the problem's objects. Required. Matchers whose info
  /// sets `mutates_tree` (Chain) physically delete from it — pass a
  /// freshly built tree to those.
  RTree* tree = nullptr;

  /// Disk-resident function lists (Section 7.6). When set, matchers
  /// that can exploit it run in the disk-resident-F setting; SB-alt
  /// requires it. When null, functions are indexed in memory.
  DiskFunctionStore* fn_store = nullptr;

  /// Packed block-compressed function lists
  /// (topk/packed_function_lists.h). Required by the *-Packed variants,
  /// which traverse its blocks in impact order; ignored by everything
  /// else.
  PackedFunctionStore* packed_fns = nullptr;

  /// Buffer fraction for a matcher's private disk structures (Chain's
  /// disk-resident function R-tree in the disk-F setting).
  double buffer_fraction = 0.02;

  /// Shared instrumentation for the run. Optional: matchers fall back
  /// to private trackers, but then I/O of multi-store runs is no longer
  /// aggregated for you.
  ExecContext* ctx = nullptr;
};

/// Uniform run surface over one configured algorithm instance.
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// The registry name this matcher was created under (also recorded in
  /// RunStats::algorithm).
  virtual std::string Name() const = 0;

  /// Runs the assignment to completion. Call at most once per instance:
  /// matchers may consume their environment (Chain deletes from the
  /// object tree). Builtin matchers CHECK-fail on a second call;
  /// external implementations should do the same.
  virtual AssignResult Run() = 0;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_ENGINE_MATCHER_H_

// SB — the paper's skyline-based stable assignment (Algorithms 1 & 3).
//
// SB runs the shared skyline-assignment loop (assign/skyline_loop.h,
// which states the loop contract) with resumable TA-based reverse top-1
// searches (Section 5.1) as its candidate source: a member keeps its
// candidate until that function is assigned, then resumes its search.
// Supports capacities (Section 6.1) and priorities (Section 6.2); see
// two_skyline.h for the prioritized two-skyline variant and sb_alt.h
// for disk-resident function batches.
//
// Threading: Run() is single-threaded except for one step. Each loop
// first gathers, in skyline order, the members whose candidate is
// missing or assigned; then runs their reverse top-1 searches, which
// read only the loop's fixed assigned set, the immutable function index,
// the searcher's live masks and each member's own state; then emits
// candidates in skyline order. The masks change only between loops,
// when the loop reports an assigned function
// (ReverseTop1::OnFunctionAssigned).
// The middle step fans out over ThreadPool::Shared() when the run's
// ExecContext allows it (ExecContext::parallel, default on; no context
// counts as on), the index supports concurrent searches
// (ReverseTop1::concurrent), and the loop has at least one chunk of
// searches per thread. Helpers touch no ExecContext member. Matchings,
// loop counts and probe/restart totals are identical either way.
#ifndef FAIRMATCH_ASSIGN_SB_H_
#define FAIRMATCH_ASSIGN_SB_H_

#include <memory>

#include "fairmatch/assign/problem.h"
#include "fairmatch/assign/skyline_loop.h"
#include "fairmatch/topk/packed_function_lists.h"
#include "fairmatch/topk/reverse_top1.h"

namespace fairmatch {

class ExecContext;

/// Which best-pair search SB uses.
enum class BestPairMode {
  kThresholdAlgorithm,  // Section 5.1 (TA over sorted coefficient lists)
  kExhaustive,          // plain |F| scan per member (the "SB-UpdateSkyline"
                        // ablation: Algorithm 1 without Section 5.1)
};

/// SB configuration.
struct SBOptions {
  SkylineMode skyline_mode = SkylineMode::kUpdateSkyline;
  BestPairMode best_pair_mode = BestPairMode::kThresholdAlgorithm;
  /// Emit multiple stable pairs per loop (Section 5.3). The ablation
  /// variants disable this and emit one pair per loop (Algorithm 1).
  bool multi_pair = true;
  /// TA tuning (omega, biased probing, resume, impact order).
  ReverseTop1Options ta;
};

/// The SB assignment algorithm.
class SBAssignment {
 public:
  /// `tree` must contain exactly the problem's objects. If `fn_index` is
  /// null an anonymous in-memory PackedFunctionStore is built (its
  /// construction time is charged to the run, matching the paper's
  /// accounting); a supplied PackedFunctionStore (a resident dataset's
  /// image) is searched in place, and passing a DiskFunctionStore
  /// yields the disk-resident-F setting.
  /// When `ctx` is given, search-structure memory is reported to its
  /// shared MemoryTracker (engine/exec_context.h) instead of a private
  /// one.
  SBAssignment(const AssignmentProblem* problem, const RTree* tree,
               SBOptions options, FunctionIndexBase* fn_index = nullptr,
               ExecContext* ctx = nullptr);

  /// Runs the assignment to completion.
  AssignResult Run();

  /// Reverse top-1 list probes and Omega restarts over the run (zero
  /// for the exhaustive best-pair ablation).
  int64_t probes() const;
  int64_t restarts() const;

 private:
  const AssignmentProblem* problem_;
  const RTree* tree_;
  SBOptions options_;
  FunctionIndexBase* fn_index_;
  ExecContext* ctx_;

  std::unique_ptr<PackedFunctionStore> owned_store_;
  std::unique_ptr<ReverseTop1> rt1_;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_ASSIGN_SB_H_

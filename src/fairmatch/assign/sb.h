// SB — the paper's skyline-based stable assignment (Algorithms 1 & 3).
//
// Maintains the skyline of the unassigned objects (I/O-optimally via
// UpdateSkyline, or with DeltaSky for the Figure 8 ablation), finds each
// skyline member's best unassigned function with the resumable TA-based
// reverse top-1 search (Section 5.1), and emits every mutual-best pair
// per loop (Section 5.3). Supports capacities (Section 6.1) and
// priorities (Section 6.2); see two_skyline.h for the prioritized
// two-skyline variant and sb_alt.h for disk-resident function batches.
//
// Threading: Run() is single-threaded except for one step. Each loop
// first gathers, in skyline order, the members whose candidate is
// missing or assigned; then runs their reverse top-1 searches, which
// read only the loop's fixed assigned set, the immutable function index
// and each member's own state; then emits candidates in skyline order.
// The middle step fans out over ThreadPool::Shared() when the run's
// ExecContext allows it (ExecContext::parallel, default on; no context
// counts as on), the index supports concurrent searches
// (ReverseTop1::concurrent), and the loop has at least one chunk of
// searches per thread. Helpers touch no ExecContext member. Matchings,
// loop counts and probe/restart totals are identical either way.
#ifndef FAIRMATCH_ASSIGN_SB_H_
#define FAIRMATCH_ASSIGN_SB_H_

#include <memory>
#include <unordered_map>

#include "fairmatch/assign/best_pair.h"
#include "fairmatch/assign/problem.h"
#include "fairmatch/skyline/bbs.h"
#include "fairmatch/skyline/delta_sky.h"
#include "fairmatch/topk/reverse_top1.h"

namespace fairmatch {

class ExecContext;

/// Which skyline maintenance module SB uses.
enum class SkylineMode {
  kUpdateSkyline,  // the paper's Algorithm 2 (I/O-optimal)
  kDeltaSky,       // baseline for the Figure 8 ablation
};

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
  /// TA tuning (omega, biased probing, resume).
  ReverseTop1Options ta;
};

/// The SB assignment algorithm.
class SBAssignment {
 public:
  /// `tree` must contain exactly the problem's objects. If `fn_index` is
  /// null an in-memory FunctionLists index is built (its construction
  /// time is charged to the run, matching the paper's accounting);
  /// passing a DiskFunctionStore yields the disk-resident-F setting.
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
  struct ObjectState {
    ReverseTop1State ta;
    FunctionId cand_fid = kInvalidFunction;
    double cand_score = 0.0;
  };

  /// One member of the current loop's skyline.
  struct MemberSlot {
    const SkylineObject* member;
    ObjectState* state;
    bool found;  // false: Search() found every function exhausted
  };

  /// Whether `state`'s candidate must be (re)computed this loop.
  bool NeedsSearch(const ObjectState& state) const;

  /// Finds `point`'s best unassigned function into `state`. Returns
  /// false when every function is exhausted. Safe to run concurrently
  /// on distinct states when rt1_->concurrent().
  bool Search(ObjectState* state, const Point& point);

  size_t StateBytes() const;

  const AssignmentProblem* problem_;
  const RTree* tree_;
  SBOptions options_;
  FunctionIndexBase* fn_index_;
  ExecContext* ctx_;

  std::unique_ptr<FunctionLists> owned_lists_;
  std::unique_ptr<ReverseTop1> rt1_;
  std::vector<uint8_t> assigned_;  // function capacity exhausted
  std::vector<int> fcap_;
  // Count of functions with assigned_[fid] == 0, threaded into the TA
  // search so its exhaustion check is O(1) instead of an |F| scan.
  int64_t remaining_fns_ = 0;
  std::unordered_map<ObjectId, ObjectState> states_;
  // Recycles retired objects' TA buffers into newly arriving skyline
  // members' states across loops (no re-growth through the allocator).
  ReverseTop1StatePool state_pool_;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_ASSIGN_SB_H_

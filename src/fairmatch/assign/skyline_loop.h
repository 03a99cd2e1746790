// The skyline-assignment loop shared by the SB family (paper Algorithm
// 3, Section 5.3).
//
// Every SB variant runs the same loop: maintain the skyline of the
// unassigned objects, give each skyline member its best unassigned
// function, emit the mutual-best pairs (Property 2) — or, with
// multi_pair off, only the globally best candidate pair (Algorithm 1) —
// and update the function and object capacities (Section 6.1). The
// variants differ only in how a member finds its best function, so
// RunSkylineLoop owns the loop and each variant supplies a
// CandidateSource:
//
//   SB              resumable reverse top-1 searches (assign/sb.h)
//   SB-TwoSkylines  exhaustive scan of the function skyline
//                   (assign/two_skyline.h)
//   SB-alt(-Packed) one batch scan per loop over the function lists
//                   (assign/sb_alt.h)
//
// Loop contract, per iteration:
//   1. Cancellation point: a storage fault or an expired deadline on
//      the ExecContext ends the run with the pairs emitted so far.
//   2. Skyline maintenance (SkylineMode) removes the objects whose
//      capacity ran out last iteration; an empty skyline ends the run.
//   3. CandidateSource::Candidates gives each member its candidate, in
//      skyline order. A member without one means every function is
//      assigned or unreachable, and ends the run.
//   4. Pairing. An empty pair set is a broken invariant, unless the
//      run has faulted (corrupted reads can break mutual-best), which
//      unwinds like step 1.
//   5. Capacities: a function whose capacity runs out is assigned
//      (OnFunctionAssigned), an object whose capacity runs out is
//      removed (OnObjectRemoved) and leaves the skyline next iteration.
//   6. Search-structure memory — skyline, source and pairing engine —
//      is reported to the run's MemoryTracker.
//   7. CandidateSource::StartEarly may start work for the next step 3
//      on helper threads: `assigned` and `remaining` hold until then.
//      The loop joins that job (ThreadPool::Job::Finish) right before
//      it calls Candidates again, and before it returns, whatever
//      ends the run, so the job overlaps the next cancellation check
//      and skyline maintenance.
//
// The loop runs on the calling thread; only SB's candidate source
// borrows helper threads, inside step 3 and from step 7 to the next
// step 3 (sb.h, Threading).
#ifndef FAIRMATCH_ASSIGN_SKYLINE_LOOP_H_
#define FAIRMATCH_ASSIGN_SKYLINE_LOOP_H_

#include <cstdint>
#include <vector>

#include "fairmatch/assign/best_pair.h"
#include "fairmatch/assign/problem.h"
#include "fairmatch/common/thread_pool.h"
#include "fairmatch/skyline/skyline_set.h"

namespace fairmatch {

class ExecContext;

/// Which skyline maintenance module the loop uses.
enum class SkylineMode {
  kUpdateSkyline,  // the paper's Algorithm 2 (I/O-optimal)
  kDeltaSky,       // baseline for the Figure 8 ablation
};

/// A variant's best-function search. Called once per loop and once per
/// capacity-exhausted function or object, never per probe.
class CandidateSource {
 public:
  virtual ~CandidateSource() = default;

  /// Appends to `out`, in skyline order, every member of `sky` with its
  /// best unassigned function (assigned[fid] == 0; `remaining` such
  /// functions are left), ties on the smaller function id. Returns
  /// false as soon as a member has none.
  virtual bool Candidates(const SkylineSet& sky,
                          const std::vector<uint8_t>& assigned,
                          int64_t remaining,
                          std::vector<MemberCandidate>* out) = 0;

  /// `fid`'s capacity ran out.
  virtual void OnFunctionAssigned(FunctionId /*fid*/) {}

  /// `oid`'s capacity ran out; it leaves the skyline next loop.
  virtual void OnObjectRemoved(ObjectId /*oid*/) {}

  /// Called once per loop after the memory report (step 7). The
  /// returned job may read `assigned`, which stays unchanged with
  /// `remaining` functions unassigned until the loop joins the job,
  /// and the source's own state, but no skyline object: the skyline
  /// changes while it runs. The default starts nothing.
  virtual ThreadPool::Job StartEarly(const std::vector<uint8_t>& /*assigned*/,
                                     int64_t /*remaining*/) {
    return {};
  }

  /// Bytes of the source's search structures.
  virtual size_t memory_bytes() const = 0;
};

/// How the loop is run.
struct SkylineLoopOptions {
  /// RunStats::algorithm of the result.
  const char* algorithm = "SB";
  SkylineMode skyline_mode = SkylineMode::kUpdateSkyline;
  /// Emit every mutual-best pair per loop (Section 5.3); false emits
  /// the single best candidate pair (Algorithm 1).
  bool multi_pair = true;
};

/// Runs the assignment over `tree` (which must hold exactly the
/// problem's objects) with `source` finding the candidates. When `ctx`
/// is given, the loop polls its cancellation point and reports memory
/// to its shared MemoryTracker (engine/exec_context.h).
AssignResult RunSkylineLoop(const AssignmentProblem& problem,
                            const RTree& tree,
                            const SkylineLoopOptions& options,
                            CandidateSource* source, ExecContext* ctx);

}  // namespace fairmatch

#endif  // FAIRMATCH_ASSIGN_SKYLINE_LOOP_H_

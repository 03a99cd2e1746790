// SB-alt — batch best-pair search for disk-resident functions
// (paper Section 7.6 / Figure 17).
//
// SB-alt runs the shared skyline-assignment loop (assign/skyline_loop.h,
// which states the loop contract). Instead of one resumable TA per
// skyline object, its candidate source scans the sorted coefficient
// lists block by block once per loop. Every newly encountered function
// worth fetching is scored against *all* current skyline members; a
// member is "done" once its best score provably beats the knapsack
// threshold of every unseen function. No per-object search state is
// kept, so each list block is read at most once per loop and memory
// stays low — the trade the paper describes for F larger than memory.
//
// The scan walks a DiskFunctionStore's lists one page per list in
// round-robin order and runs single-threaded.
#ifndef FAIRMATCH_ASSIGN_SB_ALT_H_
#define FAIRMATCH_ASSIGN_SB_ALT_H_

#include "fairmatch/assign/problem.h"
#include "fairmatch/topk/disk_function_lists.h"

namespace fairmatch {

class ExecContext;

/// Runs SB-alt. `tree` holds the objects (typically a MemNodeStore tree:
/// in the Figure 17 setting O fits in memory); `store` holds the
/// disk-resident function lists. When `ctx` is given, search-structure
/// memory is reported to its shared MemoryTracker
/// (engine/exec_context.h).
AssignResult SBAltAssignment(const AssignmentProblem& problem,
                             const RTree& tree, DiskFunctionStore* store,
                             ExecContext* ctx = nullptr);

}  // namespace fairmatch

#endif  // FAIRMATCH_ASSIGN_SB_ALT_H_

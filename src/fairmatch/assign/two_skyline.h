// Two-skyline SB variant for prioritized functions (paper Section 6.2).
//
// With priorities, effective coefficients alpha'_i = alpha_i * gamma no
// longer sum to 1, so a function skyline F_sky becomes meaningful: a
// function dominated in effective-coefficient space can never be any
// object's best. The variant maintains F_sky (deletion-only, with
// pruned-point parking) next to the object skyline O_sky and searches
// best pairs exhaustively between the two skylines — faster than TA
// under priorities because the knapsack threshold B = max gamma is loose
// and F_sky is small and frequently updated (Figure 15). F_sky and the
// per-object candidate cache are the candidate source of the shared
// skyline-assignment loop (assign/skyline_loop.h, which states the loop
// contract); the run is single-threaded.
#ifndef FAIRMATCH_ASSIGN_TWO_SKYLINE_H_
#define FAIRMATCH_ASSIGN_TWO_SKYLINE_H_

#include "fairmatch/assign/problem.h"

namespace fairmatch {

class ExecContext;

/// Runs the two-skyline prioritized assignment on `tree` (which must
/// contain the problem's objects). When `ctx` is given, search-structure
/// memory is reported to its shared MemoryTracker
/// (engine/exec_context.h).
AssignResult TwoSkylineAssignment(const AssignmentProblem& problem,
                                  const RTree& tree,
                                  ExecContext* ctx = nullptr);

}  // namespace fairmatch

#endif  // FAIRMATCH_ASSIGN_TWO_SKYLINE_H_

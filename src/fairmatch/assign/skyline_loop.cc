#include "fairmatch/assign/skyline_loop.h"

#include "fairmatch/common/check.h"
#include "fairmatch/common/stats.h"
#include "fairmatch/common/timer.h"
#include "fairmatch/engine/exec_context.h"
#include "fairmatch/skyline/bbs.h"
#include "fairmatch/skyline/delta_sky.h"

namespace fairmatch {

AssignResult RunSkylineLoop(const AssignmentProblem& problem,
                            const RTree& tree,
                            const SkylineLoopOptions& options,
                            CandidateSource* source, ExecContext* ctx) {
  Timer timer;
  AssignResult result;
  result.stats.algorithm = options.algorithm;

  const FunctionSet& fns = problem.functions;
  std::vector<uint8_t> assigned(fns.size(), 0);  // capacity exhausted
  std::vector<int> fcap(fns.size());
  for (const PrefFunction& f : fns) fcap[f.id] = f.capacity;
  // Count of functions with assigned[fid] == 0, handed to the source so
  // its exhaustion check is O(1) instead of an |F| scan.
  int64_t remaining = static_cast<int64_t>(fns.size());
  std::vector<int> ocap(problem.objects.size());
  for (const ObjectItem& o : problem.objects) ocap[o.id] = o.capacity;

  SkylineManager update_sky(&tree);
  DeltaSkyManager delta_sky(&tree);
  const bool use_update =
      options.skyline_mode == SkylineMode::kUpdateSkyline;

  BestPairEngine engine(&fns);
  MemoryTracker local_memory;
  MemoryTracker& memory = ctx != nullptr ? ctx->memory() : local_memory;
  const auto aborted = [ctx] { return ctx != nullptr && ctx->ShouldAbort(); };
  std::vector<ObjectId> odel;
  std::vector<uint8_t> is_member(problem.objects.size(), 0);
  std::vector<MemberCandidate> members;
  std::vector<ObjectId> added;
  std::vector<MatchPair> pairs;
  // The source's job from step 7, joined before the next step 3 and on
  // every way out of the loop.
  ThreadPool::Job early;
  bool first = true;

  while (remaining > 0) {
    // Cancellation point: a storage fault or an expired deadline aborts
    // this run with whatever partial matching is already in `result`.
    if (aborted()) break;
    result.stats.loops++;
    // --- skyline maintenance -------------------------------------------
    if (first) {
      if (use_update) {
        update_sky.ComputeInitial();
      } else {
        delta_sky.ComputeInitial();
      }
      first = false;
    } else if (use_update) {
      update_sky.RemoveAndUpdate(odel);
    } else {
      for (ObjectId oid : odel) delta_sky.Remove(oid);
    }
    odel.clear();
    SkylineSet& sky = use_update ? update_sky.skyline() : delta_sky.skyline();
    if (sky.size() == 0) break;  // objects exhausted

    // --- per-member candidates (o.fbest) --------------------------------
    early.Finish();
    members.clear();
    if (!source->Candidates(sky, assigned, remaining, &members)) {
      break;  // functions exhausted
    }
    added.clear();
    for (const MemberCandidate& m : members) {
      if (!is_member[m.oid]) {
        is_member[m.oid] = 1;
        added.push_back(m.oid);
      }
    }

    // --- stable pair extraction ------------------------------------------
    if (options.multi_pair) {
      pairs = engine.FindMutualPairs(members, added);
    } else {
      // Single pair per loop (Algorithm 1): the globally best candidate
      // pair is stable.
      const MemberCandidate* best = &members[0];
      for (const MemberCandidate& m : members) {
        if (PairBefore(m.fbest_score, m.fbest, m.oid, best->fbest_score,
                       best->fbest, best->oid)) {
          best = &m;
        }
      }
      pairs.assign(1, MatchPair{best->fbest, best->oid, best->fbest_score});
    }
    // Candidate scores come from (possibly faulted) storage reads while
    // the engine's function-side bests use in-memory scores; corruption
    // can break the mutual-best guarantee. In a faulted run that is data
    // loss, not a broken invariant — unwind instead of aborting.
    if (pairs.empty() && aborted()) break;
    FAIRMATCH_CHECK(!pairs.empty());

    // --- capacities --------------------------------------------------------
    for (const MatchPair& pair : pairs) {
      result.matching.push_back(pair);
      if (--fcap[pair.fid] == 0) {
        assigned[pair.fid] = 1;
        remaining--;
        source->OnFunctionAssigned(pair.fid);
        engine.OnFunctionAssigned(pair.fid);
      }
      if (--ocap[pair.oid] == 0) {
        odel.push_back(pair.oid);
        source->OnObjectRemoved(pair.oid);
        is_member[pair.oid] = 0;
      }
    }
    engine.OnObjectsRemoved(odel);

    const size_t sky_bytes =
        use_update ? update_sky.memory_bytes() : delta_sky.memory_bytes();
    memory.Set(sky_bytes + source->memory_bytes() + engine.memory_bytes());
    early = source->StartEarly(assigned, remaining);
  }
  early.Finish();

  result.stats.cpu_ms = timer.ElapsedMs();
  result.stats.peak_memory_bytes = memory.peak();
  return result;
}

}  // namespace fairmatch

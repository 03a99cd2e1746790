#include "fairmatch/assign/sb.h"

#include <algorithm>
#include <unordered_set>

#include "fairmatch/common/check.h"
#include "fairmatch/common/stats.h"
#include "fairmatch/common/thread_pool.h"
#include "fairmatch/common/timer.h"
#include "fairmatch/engine/exec_context.h"

namespace fairmatch {

namespace {
// Reverse top-1 searches per ParallelFor chunk. One search costs a few
// microseconds, so a chunk amortizes the claim on the shared cursor
// while keeping the tail short; a loop with fewer searches than one
// chunk per thread runs inline (ThreadPool::ParallelFor).
constexpr size_t kSearchChunk = 8;
}  // namespace

SBAssignment::SBAssignment(const AssignmentProblem* problem,
                           const RTree* tree, SBOptions options,
                           FunctionIndexBase* fn_index, ExecContext* ctx)
    : problem_(problem),
      tree_(tree),
      options_(options),
      fn_index_(fn_index),
      ctx_(ctx) {}

bool SBAssignment::NeedsSearch(const ObjectState& state) const {
  // The exhaustive ablation re-scans every loop; a resumable candidate
  // stays valid until its function is assigned (Section 5.1).
  return options_.best_pair_mode == BestPairMode::kExhaustive ||
         state.cand_fid == kInvalidFunction || assigned_[state.cand_fid];
}

bool SBAssignment::Search(ObjectState* state, const Point& point) {
  if (options_.best_pair_mode == BestPairMode::kExhaustive) {
    // Ablation mode (Algorithm 1 without Section 5.1): no resuming of
    // any kind — every loop re-scans the remaining functions for every
    // skyline member, which is exactly the CPU cost Figure 8 isolates.
    FunctionId best = kInvalidFunction;
    double best_s = 0.0;
    for (const PrefFunction& f : problem_->functions) {
      if (assigned_[f.id]) continue;
      double s = f.Score(point);
      if (best == kInvalidFunction || s > best_s ||
          (s == best_s && f.id < best)) {
        best = f.id;
        best_s = s;
      }
    }
    if (best == kInvalidFunction) return false;
    state->cand_fid = best;
    state->cand_score = best_s;
    return true;
  }
  auto result = rt1_->Best(&state->ta, point, assigned_, remaining_fns_);
  if (!result.has_value()) return false;
  state->cand_fid = result->first;
  state->cand_score = result->second;
  return true;
}

int64_t SBAssignment::probes() const {
  return rt1_ != nullptr ? rt1_->probes() : 0;
}

int64_t SBAssignment::restarts() const {
  return rt1_ != nullptr ? rt1_->restarts() : 0;
}

size_t SBAssignment::StateBytes() const {
  size_t bytes = state_pool_.memory_bytes();
  for (const auto& [oid, state] : states_) {
    bytes += 48 + state.ta.memory_bytes();
  }
  return bytes;
}

AssignResult SBAssignment::Run() {
  Timer timer;
  AssignResult result;
  result.stats.algorithm = "SB";

  const FunctionSet& fns = problem_->functions;
  assigned_.assign(fns.size(), 0);
  fcap_.resize(fns.size());
  remaining_fns_ = static_cast<int64_t>(fns.size());
  for (const PrefFunction& f : fns) fcap_[f.id] = f.capacity;
  std::vector<int> ocap(problem_->objects.size());
  for (const ObjectItem& o : problem_->objects) ocap[o.id] = o.capacity;

  if (options_.best_pair_mode == BestPairMode::kThresholdAlgorithm) {
    if (fn_index_ == nullptr) {
      owned_lists_ = std::make_unique<FunctionLists>(&fns);
      fn_index_ = owned_lists_.get();
    }
    rt1_ = std::make_unique<ReverseTop1>(fn_index_, options_.ta);
  }
  // Searches fan out only over kernel layouts that allow concurrent
  // Best() calls, and only when the caller does not own the cores.
  ThreadPool* const pool =
      rt1_ != nullptr && rt1_->concurrent() &&
              (ctx_ == nullptr || ctx_->parallel())
          ? ThreadPool::Shared()
          : nullptr;

  SkylineManager update_sky(tree_);
  DeltaSkyManager delta_sky(tree_);
  const bool use_update =
      options_.skyline_mode == SkylineMode::kUpdateSkyline;

  BestPairEngine engine(&fns);
  MemoryTracker local_memory;
  MemoryTracker& memory = ctx_ != nullptr ? ctx_->memory() : local_memory;
  std::vector<ObjectId> odel;
  std::unordered_set<ObjectId> known_members;
  std::vector<MemberSlot> slots;
  std::vector<size_t> stale;  // indexes into slots needing a search
  bool first = true;
  bool functions_exhausted = false;

  while (remaining_fns_ > 0 && !functions_exhausted) {
    // Cancellation point: a storage fault or an expired deadline aborts
    // this run with whatever partial matching is already in `result`.
    if (ctx_ != nullptr && ctx_->ShouldAbort()) break;
    result.stats.loops++;
    // --- skyline maintenance -------------------------------------------
    if (first) {
      if (use_update) {
        update_sky.ComputeInitial();
      } else {
        delta_sky.ComputeInitial();
      }
      first = false;
    } else {
      if (use_update) {
        update_sky.RemoveAndUpdate(odel);
      } else {
        for (ObjectId oid : odel) delta_sky.Remove(oid);
      }
    }
    odel.clear();
    SkylineSet& sky = use_update ? update_sky.skyline() : delta_sky.skyline();
    if (sky.size() == 0) break;  // objects exhausted

    // --- per-member candidates (o.fbest) --------------------------------
    // Gather, in skyline order: each member's state, and which members
    // need a search because their candidate is missing or taken.
    slots.clear();
    stale.clear();
    sky.ForEach([&](int, const SkylineObject& m) {
      auto it = states_.find(m.id);
      if (it == states_.end()) {
        // New skyline member: its TA state reuses a retired object's
        // recycled buffers when the pool has one.
        it = states_.emplace(m.id, ObjectState{state_pool_.Acquire()})
                 .first;
      }
      if (NeedsSearch(it->second)) stale.push_back(slots.size());
      slots.push_back(MemberSlot{&m, &it->second, true});
    });
    // Fan out: a search reads only assigned_, the immutable index and
    // its own state, so one loop's searches are independent.
    const auto search = [&](size_t i) {
      MemberSlot& slot = slots[stale[i]];
      slot.found = Search(slot.state, slot.member->point);
    };
    if (pool != nullptr) {
      pool->ParallelFor(stale.size(), kSearchChunk, search);
    } else {
      for (size_t i = 0; i < stale.size(); ++i) search(i);
    }
    // Emit, in skyline order.
    std::vector<MemberCandidate> members;
    std::vector<ObjectId> added;
    members.reserve(slots.size());
    for (const MemberSlot& slot : slots) {
      if (!slot.found) {
        functions_exhausted = true;
        break;
      }
      const SkylineObject& m = *slot.member;
      members.push_back(MemberCandidate{m.id, &m.point, slot.state->cand_fid,
                                        slot.state->cand_score});
      if (known_members.insert(m.id).second) {
        added.push_back(m.id);
      }
    }
    if (functions_exhausted || members.empty()) break;

    // --- stable pair extraction ------------------------------------------
    std::vector<MatchPair> pairs;
    if (options_.multi_pair) {
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
      pairs.push_back(MatchPair{best->fbest, best->oid, best->fbest_score});
    }
    // Candidate scores come from (possibly faulted) TA reads while the
    // engine's function-side bests use in-memory scores; corruption can
    // break the mutual-best guarantee. In a faulted run that is data
    // loss, not a broken invariant — unwind instead of aborting.
    if (pairs.empty() && ctx_ != nullptr && ctx_->ShouldAbort()) break;
    FAIRMATCH_CHECK(!pairs.empty());

    for (const MatchPair& pair : pairs) {
      result.matching.push_back(pair);
      if (--fcap_[pair.fid] == 0) {
        assigned_[pair.fid] = 1;
        remaining_fns_--;
        engine.OnFunctionAssigned(pair.fid);
      }
      if (--ocap[pair.oid] == 0) {
        odel.push_back(pair.oid);
        auto sit = states_.find(pair.oid);
        if (sit != states_.end()) {
          state_pool_.Release(std::move(sit->second.ta));
          states_.erase(sit);
        }
        known_members.erase(pair.oid);
      }
    }
    engine.OnObjectsRemoved(odel);

    size_t sky_bytes =
        use_update ? update_sky.memory_bytes() : delta_sky.memory_bytes();
    memory.Set(sky_bytes + StateBytes() + engine.memory_bytes());
  }

  result.stats.cpu_ms = timer.ElapsedMs();
  result.stats.peak_memory_bytes = memory.peak();
  return result;
}

}  // namespace fairmatch

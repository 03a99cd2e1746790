#include "fairmatch/assign/sb.h"

#include <cstdint>

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

/// SB's candidate source: one resumable reverse top-1 search per
/// skyline member (or, for the exhaustive ablation, a plain |F| scan),
/// fanned out over `pool` when it is non-null (sb.h, Threading).
class ReverseTop1Candidates final : public CandidateSource {
 public:
  ReverseTop1Candidates(const FunctionSet* fns, size_t num_objects,
                        BestPairMode mode, ReverseTop1* rt1, ThreadPool* pool)
      : fns_(fns),
        mode_(mode),
        rt1_(rt1),
        pool_(pool),
        slot_of_(num_objects, kNoSlot) {}

  bool Candidates(const SkylineSet& sky, const std::vector<uint8_t>& assigned,
                  int64_t remaining,
                  std::vector<MemberCandidate>* out) override {
    // Gather, in skyline order: each member's state, and which members
    // need a search because their candidate is missing or taken.
    members_.clear();
    stale_.clear();
    sky.ForEach([&](int, const SkylineObject& m) {
      int32_t& slot = slot_of_[m.id];
      if (slot == kNoSlot) {
        // New skyline member: its search state reuses a retired object's
        // recycled buffers when the pool has one.
        slot = NewSlot();
        state_bytes_ += StateBytes(states_[slot]);
      }
      if (NeedsSearch(states_[slot], assigned)) {
        // A search may grow the state's buffers; its bytes are re-read
        // once the searches are done.
        state_bytes_ -= StateBytes(states_[slot]);
        stale_.push_back(members_.size());
      }
      members_.push_back(MemberSlot{&m, slot, true});
    });
    // Fan out: a search reads only `assigned`, the immutable index and
    // its own state, so one loop's searches are independent. states_
    // does not grow while they run.
    const auto search = [&](size_t i) {
      MemberSlot& member = members_[stale_[i]];
      member.found = Search(&states_[member.slot], member.member->point,
                            assigned, remaining);
    };
    if (pool_ != nullptr) {
      pool_->ParallelFor(stale_.size(), kSearchChunk, search);
    } else {
      for (size_t i = 0; i < stale_.size(); ++i) search(i);
    }
    for (size_t i : stale_) {
      state_bytes_ += StateBytes(states_[members_[i].slot]);
    }
    // Emit, in skyline order.
    for (const MemberSlot& member : members_) {
      if (!member.found) return false;
      const SkylineObject& m = *member.member;
      const ObjectState& state = states_[member.slot];
      out->push_back(
          MemberCandidate{m.id, &m.point, state.cand_fid, state.cand_score});
    }
    return true;
  }

  void OnFunctionAssigned(FunctionId fid) override {
    if (rt1_ != nullptr) rt1_->OnFunctionAssigned(fid);
  }

  void OnObjectRemoved(ObjectId oid) override {
    int32_t& slot = slot_of_[oid];
    if (slot == kNoSlot) return;
    state_bytes_ -= StateBytes(states_[slot]);
    state_pool_.Release(std::move(states_[slot].ta));
    free_slots_.push_back(slot);
    slot = kNoSlot;
  }

  size_t memory_bytes() const override {
    return state_pool_.memory_bytes() + state_bytes_ +
           slot_of_.capacity() * sizeof(int32_t) +
           (rt1_ != nullptr ? rt1_->memory_bytes() : 0);
  }

 private:
  struct ObjectState {
    ReverseTop1State ta;
    FunctionId cand_fid = kInvalidFunction;
    double cand_score = 0.0;
  };

  /// One member of the current loop's skyline.
  struct MemberSlot {
    const SkylineObject* member;
    int32_t slot;  // its state: states_[slot]
    bool found;    // false: Search() found every function exhausted
  };

  static constexpr int32_t kNoSlot = -1;

  /// A slot holding a fresh state: a retired member's slot when one is
  /// free, with recycled TA buffers when the pool has them.
  int32_t NewSlot() {
    int32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<int32_t>(states_.size());
      states_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    states_[slot] = ObjectState{state_pool_.Acquire()};
    return slot;
  }

  /// Bytes one member's state counts toward memory_bytes().
  static size_t StateBytes(const ObjectState& state) {
    return 48 + state.ta.memory_bytes();
  }

  /// Whether `state`'s candidate must be (re)computed this loop.
  bool NeedsSearch(const ObjectState& state,
                   const std::vector<uint8_t>& assigned) const {
    // The exhaustive ablation re-scans every loop; a resumable candidate
    // stays valid until its function is assigned (Section 5.1).
    return mode_ == BestPairMode::kExhaustive ||
           state.cand_fid == kInvalidFunction || assigned[state.cand_fid];
  }

  /// Finds `point`'s best unassigned function into `state`. Returns
  /// false when every function is exhausted. Safe to run concurrently
  /// on distinct states when rt1_->concurrent().
  bool Search(ObjectState* state, const Point& point,
              const std::vector<uint8_t>& assigned, int64_t remaining) {
    if (mode_ == BestPairMode::kExhaustive) {
      // Ablation mode (Algorithm 1 without Section 5.1): no resuming of
      // any kind — every loop re-scans the remaining functions for every
      // skyline member, which is exactly the CPU cost Figure 8 isolates.
      FunctionId best = kInvalidFunction;
      double best_s = 0.0;
      for (const PrefFunction& f : *fns_) {
        if (assigned[f.id]) continue;
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
    auto result = rt1_->Best(&state->ta, point, assigned, remaining);
    if (!result.has_value()) return false;
    state->cand_fid = result->first;
    state->cand_score = result->second;
    return true;
  }

  const FunctionSet* fns_;
  BestPairMode mode_;
  ReverseTop1* rt1_;
  ThreadPool* pool_;
  // Search states of the skyline members, reached through slot_of_ (per
  // object id; kNoSlot for an object with no state). states_ grows to
  // the peak skyline, not to |O|: a retired member's slot goes on
  // free_slots_ for the next arrival.
  std::vector<ObjectState> states_;
  std::vector<int32_t> slot_of_;
  std::vector<int32_t> free_slots_;
  // StateBytes summed over the live states, updated as states arrive,
  // are searched and leave, so a loop's report costs no walk over them.
  size_t state_bytes_ = 0;
  // Recycles retired objects' TA buffers into newly arriving skyline
  // members' states across loops (no re-growth through the allocator).
  ReverseTop1StatePool state_pool_;
  std::vector<MemberSlot> members_;
  std::vector<size_t> stale_;  // indexes into members_ needing a search
};

}  // namespace

SBAssignment::SBAssignment(const AssignmentProblem* problem,
                           const RTree* tree, SBOptions options,
                           FunctionIndexBase* fn_index, ExecContext* ctx)
    : problem_(problem),
      tree_(tree),
      options_(options),
      fn_index_(fn_index),
      ctx_(ctx) {}

int64_t SBAssignment::probes() const {
  return rt1_ != nullptr ? rt1_->probes() : 0;
}

int64_t SBAssignment::restarts() const {
  return rt1_ != nullptr ? rt1_->restarts() : 0;
}

AssignResult SBAssignment::Run() {
  Timer timer;
  if (options_.best_pair_mode == BestPairMode::kThresholdAlgorithm) {
    if (fn_index_ == nullptr) {
      owned_store_ =
          std::make_unique<PackedFunctionStore>(problem_->functions);
      fn_index_ = owned_store_.get();
    }
    rt1_ = std::make_unique<ReverseTop1>(fn_index_, options_.ta);
  }
  // Searches fan out only over search paths that allow concurrent
  // Best() calls, and only when the caller does not own the cores.
  ThreadPool* const pool =
      rt1_ != nullptr && rt1_->concurrent() &&
              (ctx_ == nullptr || ctx_->parallel())
          ? ThreadPool::Shared()
          : nullptr;
  ReverseTop1Candidates source(&problem_->functions,
                               problem_->objects.size(),
                               options_.best_pair_mode, rt1_.get(), pool);
  SkylineLoopOptions loop;
  loop.skyline_mode = options_.skyline_mode;
  loop.multi_pair = options_.multi_pair;
  AssignResult result =
      RunSkylineLoop(*problem_, *tree_, loop, &source, ctx_);
  // The index build above is part of the run.
  result.stats.cpu_ms = timer.ElapsedMs();
  return result;
}

}  // namespace fairmatch

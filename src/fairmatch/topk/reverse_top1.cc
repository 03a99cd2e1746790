#include "fairmatch/topk/reverse_top1.h"

#include <algorithm>
#include <cmath>

namespace fairmatch {

namespace {
// The knapsack threshold accumulates products in a different order than
// PrefFunction::Score, so the two can disagree by a few ulps. The bound
// must stay an upper bound of every unseen score, so termination demands
// strictly exceeding it by this slack (far above accumulated rounding,
// far below any genuine score gap); ties keep scanning, which also makes
// the smallest-id tie winner reachable.
constexpr double kBoundSlack = 1e-9;

// Where the probe kernel reads list entries. Each layout supplies
// Frontier(d, pos), the upper bound on the coefficient of any unseen
// function in list d once its cursor is at pos, and Visit(d, pos, fn),
// which probes position pos of list d, calls fn on every function id it
// yields and returns the number of entries probed.

// FunctionLists: one entry per probe, read from the raw arrays.
struct RawLists {
  const std::pair<double, FunctionId>* const* lists;
  double Frontier(int d, int pos) const { return lists[d][pos].first; }
  template <typename Fn>
  int Visit(int d, int pos, Fn&& fn) const {
    fn(lists[d][pos].second);
    return 1;
  }
};

// PackedFunctionStore, default traversal: one entry per probe through
// the store's sequential decode cursor (probe pos, then read pos + 1).
struct PackedEntries {
  PackedFunctionStore* store;
  double Frontier(int d, int pos) const { return store->Entry(d, pos).first; }
  template <typename Fn>
  int Visit(int d, int pos, Fn&& fn) const {
    fn(store->Entry(d, pos).second);
    return 1;
  }
};

// PackedFunctionStore, impact-ordered traversal: one whole block per
// probe; positions count blocks and the frontier is the next block's
// max impact (every entry of a consumed block is marked seen).
struct PackedBlocks {
  const PackedFunctionStore* store;
  int32_t* scratch;
  double Frontier(int d, int pos) const {
    return store->BlockMaxImpact(d, pos);
  }
  template <typename Fn>
  int Visit(int d, int pos, Fn&& fn) const {
    const int count = store->DecodeBlock(d, pos, scratch);
    for (int i = 0; i < count; ++i) fn(scratch[i]);
    return count;
  }
};

// Argmax of gain (strict >, so ties pick the smallest dimension).
// Exhausted lists carry gain -1, which never wins; -1 when every list is
// exhausted. Branch-free: the winner changes too often to predict.
int BestGainDim(const double* gain, int dims) {
  int best = -1;
  double best_gain = -1.0;
  for (int d = 0; d < dims; ++d) {
    const int better = gain[d] > best_gain;
    best += (d - best) & -better;
    best_gain = std::max(best_gain, gain[d]);
  }
  return best;
}

// Whether any function is still unassigned. SB passes its unassigned
// count; without it (cold callers on the rare queue-starved path) this
// falls back to an O(|F|) scan.
bool AnyUnassigned(const std::vector<uint8_t>& assigned,
                   int64_t num_unassigned) {
  if (num_unassigned >= 0) return num_unassigned > 0;
  return std::any_of(assigned.begin(), assigned.end(),
                     [](uint8_t a) { return a == 0; });
}
}  // namespace

ReverseTop1::ReverseTop1(FunctionIndexBase* index, ReverseTop1Options options)
    : index_(index), options_(options) {
  omega_cap_ = std::max(
      1, static_cast<int>(std::llround(options_.omega * index_->size())));
  raw_lists_.resize(index_->dims());
  bool all_raw = true;
  for (int d = 0; d < index_->dims(); ++d) {
    raw_lists_[d] = index_->RawList(d);
    if (raw_lists_[d] == nullptr) all_raw = false;
  }
  packed_ = index_->packed();
  use_impact_ = options_.impact_ordered && packed_ != nullptr;
  // Scan cursors advance in blocks under the impact-ordered traversal,
  // in entries otherwise.
  scan_limit_ = use_impact_ ? packed_->num_blocks() : index_->size();
  if (use_impact_) scratch_fids_.resize(packed_->block_entries());
  // The probe kernel serves biased probing over memory-resident lists.
  // Round-robin (the ablation) and the counted disk store, whose I/O
  // access sequence is part of what it measures, take the generic loop.
  eff_table_ = index_->EffTable();
  if (options_.biased_probing && eff_table_ != nullptr) {
    if (use_impact_) {
      path_ = Path::kPackedBlocks;
    } else if (all_raw) {
      path_ = Path::kRawLists;
    } else if (packed_ != nullptr) {
      path_ = Path::kPackedEntries;
    }
  }
  use_seen_epoch_ = !options_.resume;
}

void ReverseTop1::Reset(ReverseTop1State* state, const Point& o) const {
  const int dims = index_->dims();
  const int n = index_->size();
  state->positions_.assign(dims, 0);
  state->queue_.Reset(omega_cap_);
  if (use_seen_epoch_) {
    // Generation bump instead of clearing: the byte map is wiped only
    // on first use, size change, or 8-bit generation wrap-around.
    if (state->seen_gen_.size() != static_cast<size_t>(n)) {
      state->seen_gen_.assign(n, 0);
      state->gen_ = 0;
    }
    if (++state->gen_ == 0) {
      std::fill(state->seen_gen_.begin(), state->seen_gen_.end(), 0);
      state->gen_ = 1;
    }
  } else {
    state->seen_bits_.assign((n + 63) / 64, 0);
  }
  state->omega_left_ = omega_cap_;
  state->round_robin_next_ = 0;
  state->dim_order_.resize(dims);
  for (int d = 0; d < dims; ++d) state->dim_order_[d] = d;
  std::sort(state->dim_order_.begin(), state->dim_order_.end(),
            [&](int a, int b) {
              if (o[a] != o[b]) return o[a] > o[b];
              return a < b;
            });
  state->initialized = true;
}

double ReverseTop1::TightThreshold(const ReverseTop1State& state,
                                   const Point& o) {
  // An unseen function must appear at or below the current position in
  // every list, so its coefficient in dim d is bounded by the next
  // unread value l_d. Maximize sum beta_d * o_d subject to beta_d <= l_d
  // and sum beta_d = B (fractional knapsack, Section 5.1).
  double budget = index_->max_gamma();
  double threshold = 0.0;
  for (int d : state.dim_order_) {
    if (budget <= 0.0) break;
    int pos = state.positions_[d];
    // Exhausted list: every function was seen there; no unseen function
    // exists, so the threshold over unseen functions is -infinity.
    if (pos >= scan_limit_) {
      threshold = -1.0;
      break;
    }
    double beta = std::min(budget, FrontierValue(d, pos));
    threshold += beta * o[d];
    budget -= beta;
  }
  return threshold;
}

int ReverseTop1::PickList(const ReverseTop1State& state, const Point& o) {
  const int dims = index_->dims();
  if (!options_.biased_probing) {
    // Round-robin over non-exhausted lists.
    for (int step = 0; step < dims; ++step) {
      int d = (state.round_robin_next_ + step) % dims;
      if (state.positions_[d] < scan_limit_) return d;
    }
    return -1;
  }
  int best = -1;
  double best_gain = -1.0;
  for (int d = 0; d < dims; ++d) {
    int pos = state.positions_[d];
    if (pos >= scan_limit_) continue;
    double gain = FrontierValue(d, pos) * o[d];
    if (gain > best_gain) {
      best_gain = gain;
      best = d;
    }
  }
  return best;
}

template <typename Lists>
std::optional<std::pair<FunctionId, double>> ReverseTop1::Probe(
    const Lists& lists, ReverseTop1State* state, const Point& o,
    const std::vector<uint8_t>& assigned, int64_t num_unassigned) {
  const int dims = index_->dims();
  const int limit = scan_limit_;
  const double max_gamma = index_->max_gamma();
  const double* const eff = eff_table_;
  const uint8_t* const taken = assigned.data();
  const bool epoch = use_seen_epoch_;
  CandidateQueue& queue = state->queue_;
  double coord[kMaxDims];
  for (int d = 0; d < dims; ++d) coord[d] = o[d];
  int pos[kMaxDims];
  int order[kMaxDims];
  double frontier[kMaxDims];
  double gain[kMaxDims];
  int64_t probes = 0;
  // Hands the scan positions and the probe count back to the state.
  const auto leave = [&] {
    std::copy(pos, pos + dims, state->positions_.begin());
    probes_ += probes;
  };

  while (true) {
    // Drop candidates assigned to other objects since the last call;
    // each pop spends one unit of the queue's guarantee (Omega), and a
    // spent queue can no longer vouch for the maximum: restart. Nothing
    // below can change either condition — every pushed candidate is
    // unassigned — so they are checked only here.
    while (!queue.empty() && taken[queue.best().fid]) {
      queue.PopBest();
      state->omega_left_--;
    }
    if (state->omega_left_ <= 0) {
      restarts_++;
      Reset(state, o);
      continue;
    }
    const int omega_left = state->omega_left_;
    uint64_t* const seen_bits = state->seen_bits_.data();
    uint8_t* const seen_gen = state->seen_gen_.data();
    const uint8_t gen = state->gen_;

    // Derive the working set from the positions: frontier values, their
    // gains and the probing argmax.
    for (int d = 0; d < dims; ++d) {
      pos[d] = state->positions_[d];
      order[d] = state->dim_order_[d];
      gain[d] = -1.0;
      if (pos[d] < limit) {
        frontier[d] = lists.Frontier(d, pos[d]);
        gain[d] = frontier[d] * coord[d];
      }
    }
    int best_dim = BestGainDim(gain, dims);
    bool have_top = !queue.empty();
    ScoredCandidate top = have_top ? queue.best() : ScoredCandidate{};
    bool threshold_valid = false;
    double threshold = 0.0;

    while (best_dim >= 0) {
      // Terminate once the best candidate beats the tight threshold for
      // every unseen function. The knapsack is re-solved only after a
      // frontier value changed.
      if (have_top) {
        if (!threshold_valid) {
          double budget = max_gamma;
          threshold = 0.0;
          for (int k = 0; k < dims && budget > 0.0; ++k) {
            const int d = order[k];
            if (pos[d] >= limit) {
              threshold = -1.0;
              break;
            }
            const double beta = std::min(budget, frontier[d]);
            threshold += beta * coord[d];
            budget -= beta;
          }
          threshold_valid = true;
        }
        if (top.score > threshold + kBoundSlack) {
          leave();
          return std::make_pair(top.fid, top.score);
        }
      }

      const int d = best_dim;
      probes += lists.Visit(d, pos[d]++, [&](FunctionId fid) {
        // Most probes hit a seen or assigned function: one branch for
        // both.
        bool seen;
        if (epoch) {
          seen = seen_gen[fid] == gen;
          seen_gen[fid] = gen;
        } else {
          uint64_t& word = seen_bits[static_cast<size_t>(fid) >> 6];
          const uint64_t bit = uint64_t{1} << (fid & 63);
          seen = (word & bit) != 0;
          word |= bit;
        }
        if (seen | (taken[fid] != 0)) return;
        // The TA "random accesses": the function's coefficient row,
        // summed in PrefFunction::Score's order.
        const double* row = eff + static_cast<size_t>(fid) * dims;
        double score = 0.0;
        for (int i = 0; i < dims; ++i) score += row[i] * coord[i];
        // Keep only the top-Omega candidates (Section 5.1 memory bound):
        // push, then evict the queue's worst end on overflow. The queue
        // never holds more than omega_left entries, so a full queue
        // would evict a candidate ranked below its worst at once.
        const ScoredCandidate candidate{score, fid};
        if (static_cast<int>(queue.size()) == omega_left) {
          if (!(candidate < queue.worst())) return;
          queue.Push(candidate);
          queue.PopWorst();
        } else {
          queue.Push(candidate);
        }
        if (!have_top || candidate < top) {
          top = candidate;
          have_top = true;
        }
      });

      // Advance list d's frontier. A duplicate coefficient changes
      // nothing; otherwise the gain drops, so the argmax (always d
      // under biased probing) is recomputed.
      if (pos[d] >= limit) {
        gain[d] = -1.0;
      } else {
        const double l = lists.Frontier(d, pos[d]);
        if (l == frontier[d]) continue;
        frontier[d] = l;
        gain[d] = l * coord[d];
      }
      threshold_valid = false;
      best_dim = BestGainDim(gain, dims);
    }

    // All lists exhausted: every function has been seen. The queue holds
    // the best unassigned candidates unless eviction lost them.
    if (have_top) {
      leave();
      return std::make_pair(top.fid, top.score);
    }
    // Queue starved by eviction: restart unless F is fully assigned.
    if (!AnyUnassigned(assigned, num_unassigned)) {
      leave();
      return std::nullopt;
    }
    restarts_++;
    Reset(state, o);
  }
}

std::optional<std::pair<FunctionId, double>> ReverseTop1::Best(
    ReverseTop1State* state, const Point& o,
    const std::vector<uint8_t>& assigned, int64_t num_unassigned) {
  if (!state->initialized || !options_.resume) Reset(state, o);
  switch (path_) {
    case Path::kRawLists:
      return Probe(RawLists{raw_lists_.data()}, state, o, assigned,
                   num_unassigned);
    case Path::kPackedEntries:
      return Probe(PackedEntries{packed_}, state, o, assigned,
                   num_unassigned);
    case Path::kPackedBlocks:
      return Probe(PackedBlocks{packed_, scratch_fids_.data()}, state, o,
                   assigned, num_unassigned);
    case Path::kGeneric:
      break;
  }
  return GenericBest(state, o, assigned, num_unassigned);
}

std::optional<std::pair<FunctionId, double>> ReverseTop1::GenericBest(
    ReverseTop1State* state, const Point& o,
    const std::vector<uint8_t>& assigned, int64_t num_unassigned) {
  while (true) {
    // Drop candidates that were assigned to other objects since the last
    // call; each pop reduces the queue's remaining guarantee (Omega).
    while (!state->queue_.empty() &&
           assigned[state->queue_.best().fid]) {
      state->queue_.PopBest();
      state->omega_left_--;
    }
    if (state->omega_left_ <= 0) {
      // The capped queue can no longer guarantee the maximum: restart.
      restarts_++;
      Reset(state, o);
      continue;
    }

    // Terminate if the best candidate already beats the tight threshold
    // for every unseen function.
    if (!state->queue_.empty()) {
      double threshold = TightThreshold(*state, o);
      const auto& top = state->queue_.best();
      if (top.score > threshold + kBoundSlack) {
        return std::make_pair(top.fid, top.score);
      }
    }

    int d = PickList(*state, o);
    if (d < 0) {
      // All lists exhausted: every function has been seen. The queue
      // holds the best unassigned candidates unless eviction lost them.
      if (!state->queue_.empty()) {
        const auto& top = state->queue_.best();
        return std::make_pair(top.fid, top.score);
      }
      // Queue starved by eviction: restart unless F is fully assigned.
      if (!AnyUnassigned(assigned, num_unassigned)) return std::nullopt;
      restarts_++;
      Reset(state, o);
      continue;
    }

    // Probe list d: one whole packed block under the impact-ordered
    // traversal, one entry otherwise.
    int pos = state->positions_[d]++;
    state->round_robin_next_ = (d + 1) % index_->dims();
    if (use_impact_) {
      const int count = packed_->DecodeBlock(d, pos, scratch_fids_.data());
      probes_ += count;
      for (int i = 0; i < count; ++i) {
        const FunctionId fid = scratch_fids_[i];
        if (Seen(*state, fid)) continue;
        MarkSeen(state, fid);
        if (assigned[fid]) continue;
        const double score = index_->ScoreOf(fid, o);
        state->queue_.Push(ScoredCandidate{score, fid});
        if (static_cast<int>(state->queue_.size()) > state->omega_left_) {
          state->queue_.PopWorst();
        }
      }
      continue;
    }
    probes_++;
    FunctionId fid = EntryAt(d, pos).second;
    if (Seen(*state, fid)) continue;
    MarkSeen(state, fid);
    if (assigned[fid]) continue;
    // "Random accesses" to the other lists: fetch the function's
    // remaining coefficients and compute its aggregate score.
    double score = index_->ScoreOf(fid, o);
    // Keep only the top-Omega candidates (Section 5.1 memory bound):
    // push, then evict the queue's worst end on overflow.
    state->queue_.Push(ScoredCandidate{score, fid});
    if (static_cast<int>(state->queue_.size()) > state->omega_left_) {
      state->queue_.PopWorst();
    }
  }
}

}  // namespace fairmatch

#include "fairmatch/topk/reverse_top1.h"

#include <algorithm>
#include <cmath>

#include "fairmatch/common/float_util.h"

namespace fairmatch {

namespace {
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

// One thread's kernel buffers, block_entries() long each: the decoded
// block, its unseen unassigned ids, and their scores. Per thread, so
// concurrent Best() calls never share one.
struct BlockBuffers {
  std::vector<int32_t> ids;
  std::vector<int32_t> fresh;
  std::vector<double> scores;
};

BlockBuffers& ThreadBlockBuffers(size_t block_entries) {
  thread_local BlockBuffers buffers;
  if (buffers.ids.size() < block_entries) {
    buffers.ids.resize(block_entries);
    buffers.fresh.resize(block_entries);
    buffers.scores.resize(block_entries);
  }
  return buffers;
}
}  // namespace

ReverseTop1::ReverseTop1(FunctionIndexBase* index, ReverseTop1Options options)
    : index_(index), options_(options) {
  omega_cap_ = std::max(
      1, static_cast<int>(std::llround(options_.omega * index_->size())));
  // Biased probing over a packed store's impact-ordered blocks runs the
  // TA kernel. Everything else takes the generic loop: round-robin (the
  // ablation), FunctionLists, and the counted disk store, whose I/O
  // access sequence is part of what it measures.
  packed_ = index_->packed();
  use_impact_ = options_.impact_ordered && options_.biased_probing &&
                packed_ != nullptr;
  // Scan cursors advance in blocks under the impact-ordered traversal,
  // in entries otherwise.
  scan_limit_ = use_impact_ ? packed_->num_blocks() : index_->size();
  use_seen_epoch_ = !options_.resume;
  if (!use_impact_) return;
  // Every entry starts live. One decode pass over the image records
  // where each function sits in each list.
  const int dims = index_->dims();
  const int n = index_->size();
  const int block_entries = packed_->block_entries();
  mask_words_ = (block_entries + 63) / 64;
  live_.assign(static_cast<size_t>(dims) * scan_limit_ * mask_words_, 0);
  slot_.resize(static_cast<size_t>(dims) * n);
  std::vector<int32_t> ids(block_entries);
  for (int d = 0; d < dims; ++d) {
    for (int b = 0; b < scan_limit_; ++b) {
      const int count = packed_->DecodeBlock(d, b, ids.data());
      uint64_t* const words = &live_[LiveIndex(d, b)];
      for (int k = 0; k < count; ++k) {
        words[k >> 6] |= uint64_t{1} << (k & 63);
        slot_[static_cast<size_t>(d) * n + ids[k]] = b * block_entries + k;
      }
    }
  }
}

void ReverseTop1::OnFunctionAssigned(FunctionId fid) {
  if (live_.empty()) return;
  const int n = index_->size();
  const int block_entries = packed_->block_entries();
  for (int d = 0; d < index_->dims(); ++d) {
    const int entry = slot_[static_cast<size_t>(d) * n + fid];
    const int block = entry / block_entries;
    const int k = entry - block * block_entries;
    live_[LiveIndex(d, block) + (k >> 6)] &= ~(uint64_t{1} << (k & 63));
  }
}

int ReverseTop1::SkipDeadBlocks(int dim, int block) const {
  for (; block < scan_limit_; ++block) {
    const uint64_t* const words = &live_[LiveIndex(dim, block)];
    for (int w = 0; w < mask_words_; ++w) {
      if (words[w] != 0) return block;
    }
  }
  return block;
}

void ReverseTop1::Reset(ReverseTop1State* state, const Point& o) const {
  const int dims = index_->dims();
  const int n = index_->size();
  state->queue_.Reset(omega_cap_);
  state->omega_left_ = omega_cap_;
  state->initialized = true;
  state->positions_.assign(dims, 0);
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
  state->round_robin_next_ = 0;
  state->dim_order_.resize(dims);
  for (int d = 0; d < dims; ++d) state->dim_order_[d] = d;
  std::sort(state->dim_order_.begin(), state->dim_order_.end(),
            [&](int a, int b) {
              if (o[a] != o[b]) return o[a] > o[b];
              return a < b;
            });
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

std::optional<std::pair<FunctionId, double>> ReverseTop1::ProbeBlocks(
    ReverseTop1State* state, const Point& o,
    const std::vector<uint8_t>& assigned, int64_t num_unassigned) {
  // Positions count blocks and always rest on a live block (or the end);
  // a list's frontier is its next live block's max impact (every live
  // entry of a consumed block is marked seen).
  const PackedFunctionStore* const store = packed_;
  BlockBuffers& buffers =
      ThreadBlockBuffers(static_cast<size_t>(store->block_entries()));
  int32_t* const ids = buffers.ids.data();
  int32_t* const fresh_ids = buffers.fresh.data();
  double* const scores = buffers.scores.data();
  const int dims = index_->dims();
  const int limit = scan_limit_;
  const int words = mask_words_;
  const uint64_t* const live = live_.data();
  const double max_gamma = index_->max_gamma();
  const double* const eff = store->EffTable();
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

    // Derive the working set from the positions, moved past blocks that
    // died since they were stored: frontier values, their gains and the
    // probing argmax.
    for (int d = 0; d < dims; ++d) {
      pos[d] = SkipDeadBlocks(d, state->positions_[d]);
      order[d] = state->dim_order_[d];
      gain[d] = -1.0;
      if (pos[d] < limit) {
        frontier[d] = store->BlockMaxImpact(d, pos[d]);
        gain[d] = frontier[d] * coord[d];
      }
    }
    int best_dim = BestGainDim(gain, dims);
    bool threshold_valid = false;
    double threshold = 0.0;

    while (best_dim >= 0) {
      // Terminate once the best candidate beats the tight threshold for
      // every unseen function. The knapsack is re-solved only after a
      // frontier value changed.
      if (!queue.empty()) {
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
        const ScoredCandidate& top = queue.best();
        if (top.score > threshold + kBoundSlack) {
          leave();
          return std::make_pair(top.fid, top.score);
        }
      }

      const int d = best_dim;
      const int block = pos[d];
      probes += store->DecodeBlock(d, block, ids);
      pos[d] = SkipDeadBlocks(d, block + 1);
      // Visit the live entries and keep the unseen unassigned ones. The
      // id is written always and kept by the count alone, so no branch
      // per entry has to be predicted.
      const uint64_t* const mask = live + LiveIndex(d, block);
      int fresh = 0;
      for (int w = 0; w < words; ++w) {
        for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
          const FunctionId fid = ids[w * 64 + __builtin_ctzll(bits)];
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
          fresh_ids[fresh] = fid;
          fresh += !(seen | (taken[fid] != 0));
        }
      }
      // The TA "random accesses": each kept function's coefficient row,
      // summed in PrefFunction::Score's order.
      for (int i = 0; i < fresh; ++i) {
        const double* row = eff + static_cast<size_t>(fresh_ids[i]) * dims;
        double score = 0.0;
        for (int j = 0; j < dims; ++j) score += row[j] * coord[j];
        scores[i] = score;
      }
      // Keep only the top-Omega candidates (Section 5.1 memory bound).
      // The queue never holds more than omega_left entries, and it ends
      // up with the best omega_left of itself and the block in any
      // insertion order. So a full queue first drops the candidates
      // that do not beat its worst, then pushes the rest one by one,
      // evicting its worst end on overflow.
      if (static_cast<int>(queue.size()) == omega_left) {
        const ScoredCandidate worst = queue.worst();
        int kept = 0;
        for (int i = 0; i < fresh; ++i) {
          fresh_ids[kept] = fresh_ids[i];
          scores[kept] = scores[i];
          kept += ScoredCandidate{scores[i], fresh_ids[i]} < worst;
        }
        fresh = kept;
      }
      for (int i = 0; i < fresh; ++i) {
        const ScoredCandidate candidate{scores[i], fresh_ids[i]};
        if (static_cast<int>(queue.size()) == omega_left) {
          if (!(candidate < queue.worst())) continue;
          queue.Push(candidate);
          queue.PopWorst();
        } else {
          queue.Push(candidate);
        }
      }

      // Advance list d's frontier. A duplicate coefficient changes
      // nothing; otherwise the gain drops, so the argmax (always d
      // under biased probing) is recomputed.
      if (pos[d] >= limit) {
        gain[d] = -1.0;
      } else {
        const double l = store->BlockMaxImpact(d, pos[d]);
        if (l == frontier[d]) continue;
        frontier[d] = l;
        gain[d] = l * coord[d];
      }
      threshold_valid = false;
      best_dim = BestGainDim(gain, dims);
    }

    // All lists exhausted: every unassigned function has been seen. The
    // queue holds the best of them unless eviction lost them.
    if (!queue.empty()) {
      const ScoredCandidate& top = queue.best();
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
  if (use_impact_) return ProbeBlocks(state, o, assigned, num_unassigned);
  return GenericBest(state, o, assigned, num_unassigned);
}

std::optional<std::pair<FunctionId, double>> ReverseTop1::GenericBest(
    ReverseTop1State* state, const Point& o,
    const std::vector<uint8_t>& assigned, int64_t num_unassigned) {
  int64_t probes = 0;
  // Adds this call's probes to the shared total once, on return.
  const auto done = [&](std::optional<std::pair<FunctionId, double>> best) {
    probes_ += probes;
    return best;
  };
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
        return done(std::make_pair(top.fid, top.score));
      }
    }

    int d = PickList(*state, o);
    if (d < 0) {
      // All lists exhausted: every function has been seen. The queue
      // holds the best unassigned candidates unless eviction lost them.
      if (!state->queue_.empty()) {
        const auto& top = state->queue_.best();
        return done(std::make_pair(top.fid, top.score));
      }
      // Queue starved by eviction: restart unless F is fully assigned.
      if (!AnyUnassigned(assigned, num_unassigned)) {
        return done(std::nullopt);
      }
      restarts_++;
      Reset(state, o);
      continue;
    }

    // Probe list d.
    int pos = state->positions_[d]++;
    state->round_robin_next_ = (d + 1) % index_->dims();
    probes++;
    FunctionId fid = index_->Entry(d, pos).second;
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

// Reverse top-1 search: the best *function* for a given object
// (Section 5.1), with the paper's resumable, capacity-bounded state:
// each object keeps a top-Omega candidate queue across calls; when its
// current best function is assigned to another object the search
// resumes instead of restarting. Omega decreases on every queue pop;
// at zero the search restarts from scratch (the omega trade-off of
// Section 5.1). The winner is the unassigned function maximizing f(o),
// ties broken by the smaller id, on both paths below.
//
// Two loops serve Best(), picked once per ReverseTop1 by the index and
// the options. Both are the Threshold Algorithm [Fagin et al.] over the
// D per-dimension coefficient lists with the paper's T_tight, the
// fractional-knapsack termination threshold over the frontier values
// (budget B = max gamma):
//
//  * the TA probe kernel over a PackedFunctionStore's impact-ordered
//    blocks (biased probing with ReverseTop1Options::impact_ordered;
//    SB's in-memory search). Biased probing probes the list maximizing
//    l_i * o_i next. Positions, frontiers, gains and the threshold live
//    in kMaxDims locals; a probe consumes a whole packed block and the
//    frontier is the next block's max impact. The searcher keeps a live
//    bit per (list, block, entry), cleared by OnFunctionAssigned: a
//    probe visits only the live entries of its block, and a list's
//    position moves past blocks with no live entry, so the frontier is
//    the next live block's max impact (exact: a skipped block holds
//    only assigned functions). probes() counts decoded entries, so
//    skipped blocks add nothing.
//  * the generic TA loop, one list entry per probe, for every other
//    case: the counted-disk DiskFunctionStore, whose page access order
//    is part of what Figure 17 measures; round-robin probing (the
//    ablation); FunctionLists; and a packed store walked entry by entry
//    (impact_ordered = false). It re-reads the lists every iteration so
//    the counted I/O sequence is the seed's. probes() counts list
//    entries.
//
// Threading contract: one ReverseTop1 serves one run. When concurrent()
// is true — the impact-ordered kernel, which reads the immutable packed
// image through the const, cache-free DecodeBlock and BlockMaxImpact,
// each thread decoding into its own scratch buffer — Best() may run on
// several threads at once provided each call has its own
// ReverseTop1State and nobody writes `assigned` meanwhile. The same
// rule covers OnFunctionAssigned: it writes the live masks that every
// Best() reads, so it runs only between fan-outs, never while a Best()
// runs on any thread. SB fans a loop's searches out this way, some of
// them while its calling thread updates the skyline (assign/sb.h).
// The probe and restart totals are atomic and sum to the same values
// in any interleaving. The generic loop is single-threaded.
#ifndef FAIRMATCH_TOPK_REVERSE_TOP1_H_
#define FAIRMATCH_TOPK_REVERSE_TOP1_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "fairmatch/common/minmax_heap.h"
#include "fairmatch/common/preference.h"
#include "fairmatch/topk/function_lists.h"
#include "fairmatch/topk/packed_function_lists.h"

namespace fairmatch {

/// Tuning knobs for the reverse top-1 search.
struct ReverseTop1Options {
  /// Queue capacity fraction: Omega = omega * |F| (paper default 2.5%).
  double omega = 0.025;
  /// Biased list probing (Section 5.1); false = classic round-robin.
  bool biased_probing = true;
  /// Resume searches across calls; false = restart every time (used by
  /// the ablation bench).
  bool resume = true;
  /// Impact-ordered block traversal: when the index is a
  /// PackedFunctionStore and probing is biased, TA probes consume whole
  /// packed blocks in descending max-impact order and a list stops
  /// contributing as soon as its next block's max impact falls under
  /// the knapsack threshold. False walks a packed store entry by entry.
  /// Ignored for non-packed indexes.
  bool impact_ordered = true;
};

/// Candidate queue item: (score, fid), ordered best-first.
struct ScoredCandidate {
  double score;
  FunctionId fid;
  bool operator<(const ScoredCandidate& other) const {
    if (score != other.score) return score > other.score;
    return fid < other.fid;
  }
};

/// Capacity-bounded best-first candidate queue: the best is consumed
/// from one end, overflow is evicted from the other. Two storage
/// regimes behind one interface, picked by the expected capacity:
///
///  * small Omega (the common in-memory setting) — a sorted ring: a
///    flat best-first vector with a head index, so both end pops are
///    O(1) (the seed paid an O(Omega) erase(begin()) memmove per
///    drop) and inserts are one short memmove, which beats any
///    log-structure for a few hundred entries;
///  * large Omega (disk-scale |F|) — a flat min-max heap
///    (common/minmax_heap.h) with O(log Omega) push/pop at both ends.
///
/// ScoredCandidate's order is total, so both regimes pop and evict the
/// exact same elements in the same sequence.
class CandidateQueue {
 public:
  /// Capacities above this use the min-max heap.
  static constexpr int kHeapThreshold = 512;
  // Ring-compaction cadence: dead prefix reclaimed every 64 pops.
  static constexpr size_t kCompactAt = 64;

  /// Empties the queue and (re)selects the regime for `capacity`.
  void Reset(int capacity) {
    use_heap_ = capacity > kHeapThreshold;
    ring_.clear();
    head_ = 0;
    heap_.clear();
  }

  bool empty() const {
    return use_heap_ ? heap_.empty() : head_ == ring_.size();
  }
  size_t size() const {
    return use_heap_ ? heap_.size() : ring_.size() - head_;
  }

  const ScoredCandidate& best() const {
    return use_heap_ ? heap_.min() : ring_[head_];
  }
  const ScoredCandidate& worst() const {
    return use_heap_ ? heap_.max() : ring_.back();
  }

  void PopBest() {
    if (use_heap_) {
      heap_.pop_min();
    } else if (++head_ >= kCompactAt) {
      ring_.erase(ring_.begin(), ring_.begin() + head_);
      head_ = 0;
    }
  }

  void PopWorst() {
    if (use_heap_) {
      heap_.pop_max();
    } else {
      ring_.pop_back();
    }
  }

  void Push(const ScoredCandidate& item) {
    if (use_heap_) {
      heap_.push(item);
    } else {
      ring_.insert(
          std::lower_bound(ring_.begin() + head_, ring_.end(), item),
          item);
    }
  }

  size_t memory_bytes() const {
    return ring_.capacity() * sizeof(ScoredCandidate) +
           heap_.capacity() * sizeof(ScoredCandidate);
  }

 private:
  bool use_heap_ = false;
  std::vector<ScoredCandidate> ring_;  // sorted best-first from head_
  size_t head_ = 0;
  MinMaxHeap<ScoredCandidate> heap_;
};

/// Per-object resumable search state. Owned by the caller (one per
/// skyline object); opaque except for memory accounting and recycling.
class ReverseTop1State {
 public:
  ReverseTop1State() = default;

  /// Approximate bytes held (memory-usage metric).
  size_t memory_bytes() const {
    return sizeof(*this) + positions_.capacity() * sizeof(int) +
           dim_order_.capacity() * sizeof(int) + queue_.memory_bytes() +
           seen_bits_.capacity() * sizeof(uint64_t);
  }

  /// Returns the state to "never searched" while keeping every buffer's
  /// capacity, so a recycled state behaves exactly like a fresh one (the
  /// next Best() call Reset()s and reassigns all contents) without
  /// re-growing its vectors.
  void Recycle() { initialized = false; }

 private:
  friend class ReverseTop1;

  bool initialized = false;
  std::vector<int> positions_;  // next unread index per list
  std::vector<int> dim_order_;  // dims sorted by o[d] descending
  // Top candidates, capacity-bounded by Omega.
  CandidateQueue queue_;
  // TA seen set, 1 bit per function; Reset() clears it.
  std::vector<uint64_t> seen_bits_;
  int omega_left_ = 0;
  int round_robin_next_ = 0;
};

/// Arena of recycled ReverseTop1State buffers. SB churns one state per
/// skyline object: objects leave when fully assigned and new skyline
/// members appear every loop, so without recycling each arrival
/// re-grows a queue, a seen map and the per-dim vectors through the
/// allocator. Releasing a retired object's state parks its buffers
/// here; acquiring moves them to the next arrival. A recycled state is
/// observably identical to a default-constructed one (see
/// ReverseTop1State::Recycle), so search results are unchanged.
class ReverseTop1StatePool {
 public:
  /// A state ready for first use: recycled buffers when available.
  ReverseTop1State Acquire() {
    if (free_.empty()) return ReverseTop1State();
    ReverseTop1State state = std::move(free_.back());
    free_.pop_back();
    parked_bytes_ -= state.memory_bytes() - sizeof(ReverseTop1State);
    return state;
  }

  /// Parks a retired state's buffers for reuse.
  void Release(ReverseTop1State&& state) {
    state.Recycle();
    parked_bytes_ += state.memory_bytes() - sizeof(ReverseTop1State);
    free_.push_back(std::move(state));
  }

  /// Bytes parked in the freelist (memory-usage metric).
  size_t memory_bytes() const {
    return free_.capacity() * sizeof(ReverseTop1State) + parked_bytes_;
  }

  size_t size() const { return free_.size(); }

 private:
  std::vector<ReverseTop1State> free_;
  // Buffer bytes of the parked states, kept as they come and go.
  size_t parked_bytes_ = 0;
};

/// Reverse top-1 searcher over one function index.
class ReverseTop1 {
 public:
  ReverseTop1(FunctionIndexBase* index, ReverseTop1Options options);

  /// Returns the unassigned function maximizing f(o) (ties: smaller id),
  /// or nullopt if every function is assigned. `assigned[fid]` nonzero
  /// marks assigned functions. The state resumes from previous calls
  /// for the same object. `num_unassigned`, when >= 0, is the caller's
  /// count of functions with assigned[fid] == 0 (SB maintains it); it
  /// replaces the O(|F|) exhaustion scan on the queue-starved path.
  std::optional<std::pair<FunctionId, double>> Best(
      ReverseTop1State* state, const Point& o,
      const std::vector<uint8_t>& assigned, int64_t num_unassigned = -1);

  /// Reports that `fid` is assigned for good: the caller has set
  /// assigned[fid] and keeps it set. The kernel then skips the
  /// function's entries and the blocks left with no unassigned
  /// function. This only saves work: Best() still checks `assigned` and
  /// returns the same winners either way, and a caller that never
  /// reports gets the full probe sequence. Runs only between Best()
  /// calls (threading contract at the top of this file); a no-op on the
  /// generic loop.
  void OnFunctionAssigned(FunctionId fid);

  /// Whether Best() may run concurrently on distinct states (see the
  /// threading contract at the top of this file).
  bool concurrent() const { return use_impact_; }

  /// Bytes held: the kernel's live masks and slot map.
  size_t memory_bytes() const {
    return live_.capacity() * sizeof(uint64_t) +
           slot_.capacity() * sizeof(int32_t);
  }

  /// Work counter (diagnostics / ablation): list entries probed. On the
  /// kernel these are decoded entries: a block skipped as dead adds
  /// nothing.
  int64_t probes() const { return probes_; }
  /// Number of from-scratch restarts triggered by Omega exhaustion.
  int64_t restarts() const { return restarts_; }

 private:
  /// Starts `state` over for object `o`: an empty queue with the full
  /// Omega, every list at its head and nothing seen.
  void Reset(ReverseTop1State* state, const Point& o) const;

  /// The TA probe kernel over impact-ordered packed blocks.
  std::optional<std::pair<FunctionId, double>> ProbeBlocks(
      ReverseTop1State* state, const Point& o,
      const std::vector<uint8_t>& assigned, int64_t num_unassigned);

  /// The generic loop: counted-disk indexes and round-robin probing.
  std::optional<std::pair<FunctionId, double>> GenericBest(
      ReverseTop1State* state, const Point& o,
      const std::vector<uint8_t>& assigned, int64_t num_unassigned);

  /// Fractional-knapsack threshold over the next-unread list values
  /// (upper bound of f(o) for any function not yet seen in any list).
  /// Walks the lists in descending o[d] order until the budget is
  /// spent; returns -1 as soon as it reaches an exhausted list (every
  /// function was seen there, so no unseen function exists).
  double TightThreshold(const ReverseTop1State& state, const Point& o);

  /// Picks the list to probe next; -1 when all lists are exhausted.
  int PickList(const ReverseTop1State& state, const Point& o);

  /// The first block at or after `block` of list `dim` that holds a
  /// live entry; scan_limit_ when none does.
  int SkipDeadBlocks(int dim, int block) const;

  /// Index in live_ of the first of the mask_words_ words of block
  /// `block` of list `dim`.
  size_t LiveIndex(int dim, int block) const {
    return (static_cast<size_t>(dim) * scan_limit_ + block) * mask_words_;
  }

  /// Upper bound on the coefficient of any unseen function in list
  /// `dim` once the scan cursor is at `pos`: the next unread entry's
  /// coefficient.
  double FrontierValue(int dim, int pos) const {
    return index_->Entry(dim, pos).first;
  }

  bool Seen(const ReverseTop1State& state, FunctionId fid) const {
    return (state.seen_bits_[static_cast<size_t>(fid) >> 6] >>
            (fid & 63)) &
           1;
  }
  void MarkSeen(ReverseTop1State* state, FunctionId fid) const {
    state->seen_bits_[static_cast<size_t>(fid) >> 6] |= uint64_t{1}
                                                        << (fid & 63);
  }

  FunctionIndexBase* index_;
  ReverseTop1Options options_;
  // Set when the index is a PackedFunctionStore; use_impact_ (the
  // kernel path) adds biased probing and options_.impact_ordered. The
  // kernel advances positions_ in BLOCK units and scan_limit_ is the
  // per-list block count; otherwise positions are entry indexes and
  // the limit is |F|.
  PackedFunctionStore* packed_ = nullptr;
  bool use_impact_ = false;
  int scan_limit_ = 0;
  // Kernel path only (empty otherwise). live_ holds mask_words_ words
  // per (list, block); bit k is set while the block's entry k belongs to
  // a function not yet passed to OnFunctionAssigned. slot_[d * |F| +
  // fid] is the function's entry index in list d.
  std::vector<uint64_t> live_;
  std::vector<int32_t> slot_;
  int mask_words_ = 0;
  int omega_cap_;
  std::atomic<int64_t> probes_{0};
  std::atomic<int64_t> restarts_{0};
};

}  // namespace fairmatch

#endif  // FAIRMATCH_TOPK_REVERSE_TOP1_H_

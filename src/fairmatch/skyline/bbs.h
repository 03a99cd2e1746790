// Branch-and-Bound Skyline over the R-tree (Papadias et al.), extended
// with the paper's pruned-list bookkeeping, plus the paper's
// I/O-optimal incremental maintenance (Algorithm 2, "UpdateSkyline").
//
// Invariant maintained across the entire assignment computation: every
// R-tree entry (node or object) that is not a current skyline member and
// has not been expanded lives in exactly one live member's plist or in
// the processing heap. Consequently no R-tree node is ever read twice
// (Theorem 1); tests assert this via the read log.
//
// Entries live in a SkyEntryArena (sky_arena.h): plists are intrusive
// handle chains and the heap holds 24-byte items with the ordering key
// inline, so RemoveAndUpdate churn relinks handles instead of copying
// ~100-byte SkyEntry values through the general allocator.
#ifndef FAIRMATCH_SKYLINE_BBS_H_
#define FAIRMATCH_SKYLINE_BBS_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "fairmatch/rtree/rtree.h"
#include "fairmatch/skyline/sky_arena.h"
#include "fairmatch/skyline/skyline_set.h"

namespace fairmatch {

/// Maintains the skyline of the live objects in an R-tree under
/// deletions (assignments), reading each tree node at most once.
class SkylineManager {
 public:
  explicit SkylineManager(const RTree* tree) : tree_(tree) {}

  /// Computes the initial skyline with BBS, parking every pruned entry
  /// in the plist of the member that pruned it.
  void ComputeInitial();

  /// Removes assigned skyline members and restores the skyline of the
  /// remaining objects (Algorithm 2; batch form for the multi-pair
  /// optimization of Section 5.3).
  void RemoveAndUpdate(const std::vector<ObjectId>& removed);

  SkylineSet& skyline() { return sky_; }
  const SkylineSet& skyline() const { return sky_; }

  /// Approximate bytes held by the skyline, arena-parked entries and
  /// heap (the paper's memory-usage metric).
  size_t memory_bytes() const;

  int64_t nodes_read() const { return nodes_read_; }

  /// When enabled, records every node page read (Theorem 1 tests).
  void EnableReadLog() { log_reads_ = true; }
  const std::vector<PageId>& read_log() const { return read_log_; }

 private:
  // Heap element: the SkyEntryWorse ordering fields cached inline (the
  // sift path never touches the arena), payload behind `handle`.
  struct HeapItem {
    double key;
    int32_t id;
    bool is_node;
    uint32_t handle;
  };
  // Max-heap order mirroring SkyEntryWorse: larger key first; at equal
  // keys nodes expand before objects emit; final tie on ascending id.
  // The order is total, so the pop sequence is deterministic.
  struct HeapItemWorse {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.key != b.key) return a.key < b.key;
      if (a.is_node != b.is_node) return !a.is_node;
      return a.id > b.id;
    }
  };
  using Heap =
      std::priority_queue<HeapItem, std::vector<HeapItem>, HeapItemWorse>;

  /// Core BBS loop: drains the heap, parking dominated entries,
  /// expanding nodes and promoting non-dominated objects.
  void ProcessHeap(Heap* heap);

  /// Routes every arena entry in `batch_handles_` to a dominator's
  /// plist or onto the heap: one multi-probe dominator call for all
  /// entries (same probe order as per-entry FindDominator calls, which
  /// probing alone never invalidates — it adds no skyline members),
  /// then the same routing.
  void ParkOrPushBatch(Heap* heap);

  /// Allocates arena entries for every child of `node` into
  /// `batch_handles_` and routes them via ParkOrPushBatch.
  void ExpandInto(Heap* heap, const NodeView& node);

  /// Prepends `handle` to slot's intrusive plist chain.
  void Park(int slot, uint32_t handle) {
    arena_.set_next(handle, plist_head_[slot]);
    plist_head_[slot] = handle;
  }

  /// Grows plist_head_ to cover `slot` (new skyline member).
  void EnsurePlistSlot(int slot) {
    if (static_cast<size_t>(slot) >= plist_head_.size()) {
      plist_head_.resize(slot + 1, SkyEntryArena::kNil);
    }
    FAIRMATCH_DCHECK(plist_head_[slot] == SkyEntryArena::kNil);
  }

  const RTree* tree_;
  SkylineSet sky_;
  SkyEntryArena arena_;
  // Per sky_ slot: head of the member's parked-entry chain (kNil when
  // empty). Indexed in lockstep with SkylineSet slots.
  std::vector<uint32_t> plist_head_;
  std::vector<uint32_t> pending_;  // RemoveAndUpdate scratch
  // Multi-probe scratch (ParkOrPushBatch), hoisted across expansions.
  std::vector<uint32_t> batch_handles_;
  std::vector<DominatorProbe> batch_probes_;
  std::vector<int> batch_out_;
  int64_t nodes_read_ = 0;
  bool log_reads_ = false;
  std::vector<PageId> read_log_;
  size_t peak_heap_bytes_ = 0;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_SKYLINE_BBS_H_

#include "fairmatch/skyline/delta_sky.h"

#include <algorithm>
#include <queue>

#include "fairmatch/common/check.h"

namespace fairmatch {

namespace {
using Heap =
    std::priority_queue<SkyEntry, std::vector<SkyEntry>, SkyEntryWorse>;
}  // namespace

void DeltaSkyManager::ComputeInitial() {
  FAIRMATCH_CHECK(sky_.size() == 0);
  if (tree_->size() == 0) return;
  Heap heap;
  heap.push(SkyEntry::ForNode(MBR::Empty(tree_->dims()), tree_->root()));
  // The root entry's key is irrelevant: it is alone on the heap, and an
  // empty MBR is never reported dominated.
  bool root = true;
  // Per-expansion scratch for the multi-probe dominator call.
  std::vector<SkyEntry> children;
  std::vector<DominatorProbe> probes;
  std::vector<int> dominated;
  while (!heap.empty()) {
    peak_heap_bytes_ =
        std::max(peak_heap_bytes_, heap.size() * sizeof(SkyEntry));
    SkyEntry e = heap.top();
    heap.pop();
    if (!root) {
      if (sky_.FindDominator(e.mbr.best_corner(), e.key) >= 0) continue;
    }
    root = false;
    if (e.is_node) {
      NodeHandle h = tree_->ReadNode(e.id);
      nodes_read_++;
      NodeView node = h.view();
      // All child corners of the expanded node in one probe batch
      // (pushing never adds members, so batching matches per-child
      // probes); survivors enter the heap in child order, as before.
      children.clear();
      probes.clear();
      for (int i = 0; i < node.count(); ++i) {
        children.push_back(node.is_leaf()
                               ? SkyEntry::ForObject(node.leaf_point(i),
                                                     node.child(i))
                               : SkyEntry::ForNode(node.entry_mbr(i),
                                                   node.child(i)));
      }
      for (const SkyEntry& child : children) {
        probes.push_back(DominatorProbe{&child.mbr.best_corner(), child.key});
      }
      dominated.resize(children.size());
      sky_.FindDominatorBatch(probes.data(),
                              static_cast<int>(children.size()),
                              dominated.data());
      for (size_t i = 0; i < children.size(); ++i) {
        if (dominated[i] < 0) heap.push(children[i]);
      }
    } else {
      sky_.Add(e.point(), e.id);
    }
  }
}

void DeltaSkyManager::Remove(ObjectId id) {
  int slot = sky_.SlotOf(id);
  FAIRMATCH_CHECK(slot >= 0);
  Point deleted = sky_.at(slot).point;
  sky_.Remove(id);
  removed_.insert(id);

  // Constrained BBS over the deleted member's EDR, from the root.
  Heap heap;
  heap.push(SkyEntry::ForNode(MBR::Empty(tree_->dims()), tree_->root()));
  bool root = true;
  const int dims = tree_->dims();
  while (!heap.empty()) {
    peak_heap_bytes_ =
        std::max(peak_heap_bytes_, heap.size() * sizeof(SkyEntry));
    SkyEntry e = heap.top();
    heap.pop();
    if (!root) {
      if (e.is_node) {
        // Entries disjoint from the deleted member's dominance region
        // cannot contain promoted objects.
        if (!e.mbr.IntersectsDominanceRegionOf(deleted)) continue;
        // DeltaSky's EDR test without materializing the EDR: clip the
        // entry to the dominance region and check whether some current
        // member dominates the clipped best corner (O(|Osky| * D)).
        Point corner(dims);
        for (int d = 0; d < dims; ++d) {
          corner[d] = std::min(e.mbr.hi()[d], deleted[d]);
        }
        if (sky_.FindDominator(corner, corner.Sum()) >= 0) continue;
      } else {
        if (removed_.count(e.id) > 0) continue;
        if (sky_.Contains(e.id)) continue;
        // Promotion candidates lie inside the deleted member's
        // dominance region ...
        if (!deleted.Dominates(e.point())) continue;
        // ... and must not be dominated by any surviving member.
        if (sky_.FindDominator(e.mbr.best_corner(), e.key) >= 0) continue;
      }
    }
    root = false;
    if (e.is_node) {
      NodeHandle h = tree_->ReadNode(e.id);
      nodes_read_++;
      NodeView node = h.view();
      for (int i = 0; i < node.count(); ++i) {
        SkyEntry child = node.is_leaf()
                             ? SkyEntry::ForObject(node.leaf_point(i),
                                                   node.child(i))
                             : SkyEntry::ForNode(node.entry_mbr(i),
                                                 node.child(i));
        heap.push(child);
      }
    } else {
      sky_.Add(e.point(), e.id);
    }
  }
}

size_t DeltaSkyManager::memory_bytes() const {
  return sky_.memory_bytes() + peak_heap_bytes_ + removed_.size() * 16;
}

}  // namespace fairmatch

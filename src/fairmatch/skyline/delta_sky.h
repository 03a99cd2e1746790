// DeltaSky-style skyline maintenance (Wu et al., ICDE 2007) — the
// baseline the paper compares UpdateSkyline against (Figure 8).
//
// DeltaSky keeps no pruned lists. After a skyline member is deleted, it
// re-traverses the R-tree from the root with a constrained BBS that
// visits only entries intersecting the deleted member's exclusive
// dominance region (EDR). The EDR is never materialized: each entry is
// tested with an O(|Osky| * D) dominance check against the current
// skyline, which is DeltaSky's headline trick. Because each deletion
// restarts from the root, the same nodes are read many times across the
// assignment — the I/O gap Figure 8 measures.
#ifndef FAIRMATCH_SKYLINE_DELTA_SKY_H_
#define FAIRMATCH_SKYLINE_DELTA_SKY_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "fairmatch/rtree/rtree.h"
#include "fairmatch/skyline/skyline_set.h"

namespace fairmatch {

/// Skyline maintenance without pruned lists (per-deletion re-traversal).
class DeltaSkyManager {
 public:
  explicit DeltaSkyManager(const RTree* tree) : tree_(tree) {}

  /// Computes the initial skyline with plain BBS (pruned entries are
  /// discarded, not tracked).
  void ComputeInitial();

  /// Deletes one skyline member and restores the skyline by a
  /// constrained traversal of the member's EDR.
  void Remove(ObjectId id);

  SkylineSet& skyline() { return sky_; }
  const SkylineSet& skyline() const { return sky_; }

  size_t memory_bytes() const;
  int64_t nodes_read() const { return nodes_read_; }

 private:
  const RTree* tree_;
  SkylineSet sky_;
  // Objects already assigned: still present in the (never-shrinking)
  // R-tree, so re-traversals must skip them.
  std::unordered_set<ObjectId> removed_;
  int64_t nodes_read_ = 0;
  size_t peak_heap_bytes_ = 0;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_SKYLINE_DELTA_SKY_H_

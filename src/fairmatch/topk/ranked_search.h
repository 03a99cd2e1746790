// BRS — branch-and-bound ranked search over the R-tree [Tao et al. 2007].
//
// Visits R-tree entries in descending maxscore order of a linear
// preference function and emits objects in descending score order. The
// search is *incremental*: Next() can be called repeatedly, and the heap
// persists between calls, which implements the "resuming search" feature
// of the Brute Force baseline (Section 4.1).
#ifndef FAIRMATCH_TOPK_RANKED_SEARCH_H_
#define FAIRMATCH_TOPK_RANKED_SEARCH_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "fairmatch/common/preference.h"
#include "fairmatch/rtree/rtree.h"

namespace fairmatch {

/// Result of one ranked-search step.
struct RankedHit {
  ObjectId id = kInvalidObject;
  double score = 0.0;
  Point point;
};

/// Incremental top-k traversal for one preference function.
class RankedSearch {
 public:
  /// `tree` and `fn` must outlive the search. The search starts at the
  /// root; the first Next() call reads it.
  RankedSearch(const RTree* tree, const PrefFunction* fn);

  /// Exact leaf rescoring hook. When the indexed coordinates are rounded
  /// *upper bounds* of the true values (Chain's function R-tree stores
  /// FloatUp(alpha_i * gamma)), node maxscores stay valid bounds while
  /// leaf records are rescored exactly through this callback, keeping
  /// the emission order identical to exact arithmetic.
  void set_leaf_scorer(std::function<double(ObjectId, const Point&)> scorer) {
    leaf_scorer_ = std::move(scorer);
  }

  /// Returns the next best live object, or nullopt when exhausted.
  /// `alive` (optional) maps ObjectId -> nonzero if the object is still
  /// assignable; dead objects are skipped (tombstone deletion used by
  /// the Brute Force baseline).
  std::optional<RankedHit> Next(const std::vector<uint8_t>* alive = nullptr);

  /// Approximate bytes held by this search's queue.
  size_t memory_bytes() const { return heap_.size() * sizeof(HeapEntry); }

 private:
  struct HeapEntry {
    double score;
    bool is_node;
    int32_t id;  // page id (node) or object id (leaf record)
    Point point;
  };
  struct Worse {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.score != b.score) return a.score < b.score;
      // Nodes first so ties among equal-score objects inside unexpanded
      // nodes are resolved deterministically ...
      if (a.is_node != b.is_node) return !a.is_node;
      // ... then by ascending id.
      return a.id > b.id;
    }
  };

  const RTree* tree_;
  const PrefFunction* fn_;
  std::function<double(ObjectId, const Point&)> leaf_scorer_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, Worse> heap_;
  bool started_ = false;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_TOPK_RANKED_SEARCH_H_

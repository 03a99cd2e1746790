// R-tree over D-dimensional points with Guttman quadratic insert,
// physical delete with tree condensation, and STR bulk loading.
//
// The tree stores (point, object id) pairs in its leaves. Search
// algorithms (BBS skyline, BRS ranked search) live in their own modules
// and traverse the tree through ReadNode(), so that every traversal is
// charged I/O by the node store.
//
// Concurrency: the tree itself adds no mutable state on the read path —
// ReadNode()/ScanAll() are const and safe for concurrent readers iff
// the backing NodeStore is (MemNodeStore: yes, while nobody mutates;
// PagedNodeStore: no, its buffer pool mutates on every read — see
// rtree/node_store.h). BulkLoad/Insert/Delete always require exclusive
// access. Server lanes give each tree-mutating request a private store +
// tree (serve/server.h).
#ifndef FAIRMATCH_RTREE_RTREE_H_
#define FAIRMATCH_RTREE_RTREE_H_

#include <optional>
#include <utility>
#include <vector>

#include "fairmatch/rtree/node_store.h"

namespace fairmatch {

/// A (point, id) record stored in the tree.
struct ObjectRecord {
  Point point;
  ObjectId id = kInvalidObject;
};

class RTree {
 public:
  /// Creates an empty tree (a single empty leaf root) in `store`.
  /// `store` must outlive the tree.
  explicit RTree(NodeStore* store);

  /// Attaches to a tree that already exists in `store` — the
  /// incremental-update path (update/delta_builder.h): a cloned store's
  /// pages are adopted and edited node-by-node instead of rebuilt.
  /// `root`/`root_level`/`size` must describe a valid tree in `store`;
  /// nothing is allocated or validated here.
  RTree(NodeStore* store, PageId root, int root_level, int64_t size);

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  /// Bulk-loads `items` with the Sort-Tile-Recursive algorithm at the
  /// given node fill factor. The tree must be empty.
  void BulkLoad(std::vector<ObjectRecord> items, double fill_factor = 0.7);

  /// Inserts one record (Guttman quadratic split on overflow).
  void Insert(const Point& p, ObjectId id);

  /// Physically deletes a record; condenses underflowing nodes by
  /// reinserting the leaf records of their subtrees. Returns false if
  /// the record was not found.
  bool Delete(const Point& p, ObjectId id);

  PageId root() const { return root_; }
  int root_level() const { return root_level_; }
  int height() const { return root_level_ + 1; }
  int64_t size() const { return size_; }
  int dims() const { return store_->dims(); }
  NodeStore* store() const { return store_; }

  /// Read access for search algorithms (counted I/O in paged stores).
  NodeHandle ReadNode(PageId pid) const { return store_->Read(pid); }

  /// Collects every record in the tree (test/diagnostic helper).
  std::vector<ObjectRecord> ScanAll() const;

  /// Number of nodes currently in the tree (walks the tree; tests only).
  int64_t CountNodes() const;

 private:
  struct PendingSplit {
    MBR mbr;
    PageId pid;
  };

  static int MinFill(const NodeView& node);

  /// Inserts an entry into a node at `target_level`; returns a new
  /// sibling if the subtree root split. `out_mbr` receives the subtree
  /// root's updated MBR.
  std::optional<PendingSplit> InsertRec(PageId pid, int target_level,
                                        const MBR& emb, int32_t child,
                                        MBR* out_mbr);

  /// Inserts an entry at the given level, growing the root on split.
  void InsertEntry(int target_level, const MBR& emb, int32_t child);

  /// Splits the full node behind `pid` plus the extra entry; writes one
  /// group back to `pid` and the other to a fresh page.
  PendingSplit SplitNode(PageId pid, const MBR& extra_mbr, int32_t extra_child,
                         MBR* out_mbr);

  bool FindLeaf(PageId pid, const Point& p, ObjectId id,
                std::vector<std::pair<PageId, int>>* path) const;

  /// Appends all leaf records under `pid` to `out`; frees the subtree's
  /// pages when `free_pages` is set.
  void CollectSubtree(PageId pid, std::vector<ObjectRecord>* out,
                      bool free_pages);

  void ShrinkRoot();

  NodeStore* store_;
  PageId root_;
  int root_level_ = 0;
  int64_t size_ = 0;
};

/// Guttman quadratic split of `entries` (size = capacity + 1) into two
/// groups with at least `min_fill` entries each. Exposed for testing.
void QuadraticSplit(const std::vector<std::pair<MBR, int32_t>>& entries,
                    int min_fill,
                    std::vector<std::pair<MBR, int32_t>>* group1,
                    std::vector<std::pair<MBR, int32_t>>* group2);

}  // namespace fairmatch

#endif  // FAIRMATCH_RTREE_RTREE_H_

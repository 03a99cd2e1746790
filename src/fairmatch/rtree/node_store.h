// Node storage backends for the R-tree.
//
// PagedNodeStore keeps nodes on the simulated disk behind an LRU buffer
// pool (every access is counted I/O) — this models the paper's
// disk-resident object R-tree. MemNodeStore keeps nodes in main memory
// with no I/O accounting — this models the paper's main-memory R-tree
// over the function weights (used by the Chain baseline) and is also
// used by tests.
//
// Concurrency (audited for serve/server.h):
//  * PagedNodeStore::Read mutates buffer state (LRU order, pin counts)
//    on every call — it is single-lane only, like the BufferPool and
//    DiskManager underneath. Concurrent runs each own a store.
//  * MemNodeStore::Read is mutation-free and returns stable bytes, so
//    any number of threads may Read concurrently PROVIDED no thread
//    calls Write/Allocate/Free meanwhile (tree-mutating matchers like
//    Chain therefore still need a per-request store + tree).
#ifndef FAIRMATCH_RTREE_NODE_STORE_H_
#define FAIRMATCH_RTREE_NODE_STORE_H_

#include <memory>
#include <vector>

#include "fairmatch/rtree/node.h"
#include "fairmatch/storage/buffer_pool.h"
#include "fairmatch/storage/disk_manager.h"

namespace fairmatch {

/// RAII access to one node. Keeps the underlying page pinned (paged
/// store) for as long as the handle lives. A paged handle reads its
/// bytes through the PageHandle on every view(), never from a cached
/// pointer: a writable handle on the same page copies it out of the
/// disk view on first write (buffer_pool.h), and a read handle taken
/// earlier must see that copy.
class NodeHandle {
 public:
  NodeHandle() = default;

  /// Paged-store handle.
  NodeHandle(PageHandle page, int dims, bool writable);

  /// Memory-store handle (bytes owned elsewhere, stable).
  NodeHandle(std::byte* bytes, PageId pid, int dims, bool writable);

  NodeHandle(NodeHandle&& other) noexcept;
  NodeHandle& operator=(NodeHandle&& other) noexcept;
  NodeHandle(const NodeHandle&) = delete;
  NodeHandle& operator=(const NodeHandle&) = delete;
  ~NodeHandle() = default;

  bool valid() const { return page_.valid() || bytes_ != nullptr; }
  PageId page_id() const { return pid_; }

  /// Accessor over the node bytes. A read-only view never writes, so
  /// handing it a disk view's bytes as non-const is safe.
  NodeView view() const {
    std::byte* bytes =
        page_.valid() ? const_cast<std::byte*>(page_.bytes()) : bytes_;
    return NodeView(bytes, dims_, writable_);
  }

  /// Releases the pin early.
  void Release();

 private:
  PageHandle page_;
  std::byte* bytes_ = nullptr;  // memory-store and surrogate handles only
  PageId pid_ = kInvalidPage;
  int dims_ = 0;
  bool writable_ = false;
};

/// Abstract node storage.
class NodeStore {
 public:
  explicit NodeStore(int dims) : dims_(dims) {}
  virtual ~NodeStore() = default;

  NodeStore(const NodeStore&) = delete;
  NodeStore& operator=(const NodeStore&) = delete;

  int dims() const { return dims_; }

  /// Read-only access (counted as a read in the paged store).
  virtual NodeHandle Read(PageId pid) = 0;

  /// Read-write access; the node is marked dirty in the paged store.
  virtual NodeHandle Write(PageId pid) = 0;

  /// Allocates a fresh (zeroed) node page and returns its id.
  virtual PageId Allocate() = 0;

  /// Frees a node page.
  virtual void Free(PageId pid) = 0;

  /// Number of pages in the backing file (for buffer sizing).
  virtual int64_t num_pages() const = 0;

 private:
  int dims_;
};

/// Disk-backed store with I/O accounting.
class PagedNodeStore : public NodeStore {
 public:
  /// `buffer_frames` is the initial LRU capacity; use
  /// SetBufferFraction() after bulk load to size it as a % of the file.
  /// When `counters` is non-null (typically an ExecContext's shared
  /// counters), this store's traffic is accounted there instead of in a
  /// private PerfCounters; `counters` must outlive the store.
  PagedNodeStore(int dims, size_t buffer_frames,
                 PerfCounters* counters = nullptr);

  NodeHandle Read(PageId pid) override;
  NodeHandle Write(PageId pid) override;
  PageId Allocate() override;
  void Free(PageId pid) override;
  int64_t num_pages() const override { return disk_.num_pages(); }

  /// Sizes the buffer as `fraction` of the current file size, in pages
  /// (fraction 0 => no caching, the paper's "0% buffer").
  void SetBufferFraction(double fraction);

  /// Flushes the buffer and zeroes the I/O counters: call between the
  /// build phase and the measured phase.
  void ResetCounters();

  PerfCounters& counters() { return *counters_; }
  const PerfCounters& counters() const { return *counters_; }
  BufferPool& pool() { return pool_; }
  DiskManager& disk() { return disk_; }

 private:
  /// Substitutes a zeroed node (stable bytes in zero_node_) for a
  /// structurally malformed page when an error sink is attached —
  /// reports kDataLoss instead of letting entry reads run off the page.
  NodeHandle GuardMalformed(NodeHandle handle, PageId pid, bool writable);

  DiskManager disk_;
  PerfCounters own_counters_;
  PerfCounters* counters_;  // own_counters_ or an injected external one
  BufferPool pool_;
  PageData zero_node_;  // surrogate page for malformed reads
};

/// Main-memory store; no I/O accounting.
class MemNodeStore : public NodeStore {
 public:
  explicit MemNodeStore(int dims) : NodeStore(dims) {}

  NodeHandle Read(PageId pid) override;
  NodeHandle Write(PageId pid) override;
  PageId Allocate() override;
  void Free(PageId pid) override;
  int64_t num_pages() const override {
    return static_cast<int64_t>(pages_.size());
  }

  /// Approximate resident bytes (for the memory-usage metric).
  size_t memory_bytes() const {
    return (pages_.size() - free_list_.size()) * sizeof(PageData);
  }

  /// True when `pid` names a live (allocated, not freed) page.
  bool has_page(PageId pid) const {
    return pid >= 0 && pid < num_pages() && pages_[pid] != nullptr;
  }

  /// Replaces this store's contents with a page-level copy of `other`
  /// (same dims; this store must be freshly constructed or disposable).
  /// The epoch-clone primitive for incremental updates: the copy shares
  /// nothing with `other`, so node-level edits here never perturb a
  /// published epoch still being read by in-flight requests.
  void CopyFrom(const MemNodeStore& other);

  /// Swaps page ownership with `donor` (same dims). Lets a builder hand
  /// a fully updated store to an adopting owner without a second
  /// page-level copy.
  void Adopt(MemNodeStore* donor);

  /// Raw bytes of a live page (one PageData). Update-path hook: the
  /// epoch clone runs its fault-injection schedule over these (flips
  /// land on the clone's private copy, never on a published epoch).
  std::byte* raw_page(PageId pid) { return BytesOf(pid); }

  /// Read-only page bytes (snapshot serialization; `pid` must be live).
  const std::byte* page_bytes(PageId pid) const {
    return pages_[pid]->bytes;
  }

  /// Free-page ids in pop order (back first). Snapshots persist this
  /// because Allocate() reuses it LIFO: replaying WAL batches on a
  /// restored store only produces byte-identical pages if page-id
  /// assignment replays too.
  const std::vector<PageId>& free_list() const { return free_list_; }

  /// Snapshot-restore primitives, used together: RestoreInit(n) resets
  /// the store to `n` empty page slots; RestorePage(pid) installs a
  /// live (zeroed) page at slot `pid` and returns its bytes to fill;
  /// RestoreFreeList() installs the persisted free order. The result
  /// must equal the serialized store exactly — live pages, holes, and
  /// allocator state.
  void RestoreInit(int64_t num_pages);
  std::byte* RestorePage(PageId pid);
  void RestoreFreeList(std::vector<PageId> order);

 private:
  std::byte* BytesOf(PageId pid);

  std::vector<std::unique_ptr<PageData>> pages_;
  std::vector<PageId> free_list_;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_RTREE_NODE_STORE_H_

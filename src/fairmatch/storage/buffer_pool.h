// LRU buffer pool over the simulated disk, with pin/unpin semantics and
// exact I/O accounting.
//
// Every page access goes through FetchPage(). A miss costs one physical
// read (PerfCounters::page_reads); evicting a dirty frame costs one
// physical write. A capacity of zero frames models the paper's "0%
// buffer" configuration: pages stay resident only while pinned and every
// fetch is a miss.
//
// Eviction. A miss evicts at most once: the least recently used
// unpinned frame, and only when the pool is full. A clean victim's slot
// is reused in place for the new page; a dirty victim is written back
// after the miss's read, so a fault plan sees the read first. Unpinning
// evicts only when the pool is over capacity, where only pinned frames
// can hold it (more pinned pages than frames, or a set_capacity()
// below the pinned count). FlushAll() writes dirty frames back in
// frame-index order, and the index a page lands in depends on this
// reuse, so the order of those writes is not part of the contract:
// their set and count are, but which page a seeded write-fault plan
// hits during a FlushAll() may change with it.
//
// Zero-copy clean frames. A miss stores whatever DiskManager::ReadPage
// returns: with no fault injector attached that is a view of the disk's
// own page, so reading one record off a missed page copies nothing.
// Every frame also owns a 4 KB buffer; the frame copies into it on the
// first write through any handle (copy-on-write), and a faulted or
// injected read lands there too. Dirty frames therefore always own
// their bytes, and a flush writes them back exactly as a copying pool
// would. Counting is unaffected: a copy-on-write is not an access.
//
// View lifetime. PageHandle::bytes() is valid while the handle pins
// the page; after Release() the bytes may belong to another page or to
// nobody. A view frame relies on the disk page outliving it: DeletePage
// drops the frame before freeing the page, and a pool must be destroyed
// before its disk is Recycle()d or destroyed.
//
// The frame table is a flat vector indexed by page id: DiskManager
// hands out dense ids in [0, num_pages()) and reuses freed ones, so a
// lookup is a bounds check and a load, and the table costs 4 bytes per
// allocated page. It grows on demand, never past num_pages(): a
// data-derived id outside that range (see FetchPage) gets a frame that
// is never entered in the table. The LRU is an intrusive doubly-linked
// list threaded through the unpinned frames. Fetch, pin and unpin are
// O(1) with no allocation on the steady-state path: frame slots and
// their 4 KB page blocks are recycled through a freelist, so eviction
// churn never touches the general allocator.
#ifndef FAIRMATCH_STORAGE_BUFFER_POOL_H_
#define FAIRMATCH_STORAGE_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "fairmatch/common/stats.h"
#include "fairmatch/common/types.h"
#include "fairmatch/storage/disk_manager.h"

namespace fairmatch {

class BufferPool;

/// RAII pin on a buffered page. While alive, the page bytes stay valid.
/// Movable, not copyable. The handle names its frame, not a byte
/// pointer, so every pin of a page sees a copy-on-write made through
/// any other pin of it.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(BufferPool* pool, PageId pid, int32_t frame);
  PageHandle(PageHandle&& other) noexcept;
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle();

  /// Releases the pin early.
  void Release();

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const { return pid_; }
  /// The page's current bytes (a disk view or the frame's own copy).
  /// Re-read after another handle's mutable_bytes(): a copy-on-write
  /// moves the page to the frame's own buffer.
  inline const std::byte* bytes() const;

  /// Mutable access; copies a viewed page into the frame's own buffer
  /// on the first write and marks the frame dirty.
  std::byte* mutable_bytes();

 private:
  BufferPool* pool_ = nullptr;
  PageId pid_ = kInvalidPage;
  int32_t frame_ = -1;
};

/// LRU replacement buffer pool. Frames above capacity are tolerated while
/// pinned (a path of pinned pages may exceed a tiny buffer); they are
/// evicted as soon as they are unpinned.
///
/// Not thread-safe, even for concurrent FetchPage() of the same page:
/// every fetch moves LRU state and pin counts. A pool (and the
/// DiskManager and PerfCounters it is wired to) belongs to exactly one
/// execution lane; the serving core (serve/server.h) isolates lanes by
/// giving each its own storage stack rather than locking here,
/// which also keeps per-lane I/O counts deterministic.
class BufferPool {
 public:
  /// `capacity_frames` may be 0 (no caching). `counters` must outlive
  /// the pool.
  BufferPool(DiskManager* disk, size_t capacity_frames,
             PerfCounters* counters);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins the page and returns a handle to its bytes.
  PageHandle FetchPage(PageId pid);

  /// Allocates a fresh page on disk, pins it, and marks it dirty.
  /// The initial write is counted when the frame is flushed.
  PageHandle NewPage();

  /// Drops the page from the buffer (without flushing) and frees it on
  /// disk. The page must not be pinned.
  void DeletePage(PageId pid);

  /// Flushes all dirty frames (counting writes) and drops clean frames.
  void FlushAll();

  /// Changes the capacity; evicts immediately if shrinking.
  void set_capacity(size_t capacity_frames);
  size_t capacity() const { return capacity_; }

  PerfCounters* counters() { return counters_; }
  DiskManager* disk() { return disk_; }

  /// Number of frames currently resident (diagnostics/tests).
  size_t resident_frames() const { return resident_; }

 private:
  friend class PageHandle;

  static constexpr int32_t kNoFrame = -1;

  struct Frame {
    PageId pid = kInvalidPage;
    int32_t pin_count = 0;  // a resident frame is in the LRU iff 0
    bool dirty = false;
    int32_t lru_prev = kNoFrame;
    int32_t lru_next = kNoFrame;
    // What every pin reads: `data->bytes`, or the disk's own page for a
    // clean frame read without an injector. Dirty frames own theirs.
    // nullptr marks a free slot (a bad-ref frame's pid may be -1).
    const std::byte* bytes = nullptr;
    // The frame's own page buffer, stable across frame-arena growth;
    // recycled with the slot so steady-state eviction/fetch churn never
    // allocates.
    std::unique_ptr<PageData> data;
  };

  /// Frame index of `pid`, or kNoFrame.
  int32_t Lookup(PageId pid) const {
    return static_cast<uint32_t>(pid) < table_.size() ? table_[pid]
                                                      : kNoFrame;
  }
  /// Maps `pid` to `frame`, growing the table up to the disk's
  /// num_pages(). An id the disk never allocated stays unmapped.
  void Insert(PageId pid, int32_t frame);
  /// Unmaps `pid` if it maps to `frame`. A no-op for a bad-ref frame
  /// that was never mapped, or whose freed id a newer page now maps.
  void Erase(PageId pid, int32_t frame) {
    if (Lookup(pid) == frame) table_[pid] = kNoFrame;
  }

  /// Takes a frame slot (recycled or fresh) with a ready data block.
  int32_t AllocFrame(PageId pid);
  /// Returns the slot (and its data block) to the freelist.
  void FreeFrame(int32_t frame);

  void LruPushBack(int32_t frame);
  void LruRemove(int32_t frame);

  /// Copy-on-write: makes `frame` own its bytes and marks it dirty.
  std::byte* MakeWritable(int32_t frame);
  void Unpin(int32_t frame);
  /// Evicts LRU frames while the pool is over capacity. Inline so the
  /// usual case, nothing to evict, costs a compare and no call.
  void EvictIfNeeded() {
    while (resident_ > capacity_ && lru_head_ != kNoFrame) EvictLruHead();
  }
  /// Writes back (if dirty) and drops the least recently used frame.
  void EvictLruHead();
  void FlushFrame(Frame& frame);

  DiskManager* disk_;
  size_t capacity_;
  PerfCounters* counters_;

  std::vector<Frame> frames_;         // arena; slots recycled
  std::vector<int32_t> free_frames_;  // freelist of arena slots
  size_t resident_ = 0;
  std::vector<int32_t> table_;  // page id -> frame, kNoFrame if absent
  // Intrusive LRU over unpinned frames (head = least recently used).
  int32_t lru_head_ = kNoFrame;
  int32_t lru_tail_ = kNoFrame;
};

inline const std::byte* PageHandle::bytes() const {
  return pool_ == nullptr ? nullptr : pool_->frames_[frame_].bytes;
}

}  // namespace fairmatch

#endif  // FAIRMATCH_STORAGE_BUFFER_POOL_H_

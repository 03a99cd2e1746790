// LRU buffer pool over the simulated disk, with pin/unpin semantics and
// exact I/O accounting.
//
// Every page access goes through FetchPage(). A miss costs one physical
// read (PerfCounters::page_reads); evicting a dirty frame costs one
// physical write. A capacity of zero frames models the paper's "0%
// buffer" configuration: pages stay resident only while pinned and every
// fetch is a miss.
//
// The frame table is a sharded open-addressing hash (linear probing,
// backward-shift deletion) over a recycling frame arena, and the LRU is
// an intrusive doubly-linked list threaded through the frames. Fetch,
// pin and unpin are O(1) with no allocation on the steady-state path:
// frame slots and their 4 KB page blocks are recycled through a
// freelist, so eviction churn never touches the general allocator.
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
/// Movable, not copyable.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(BufferPool* pool, PageId pid, std::byte* bytes);
  PageHandle(PageHandle&& other) noexcept;
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle();

  /// Releases the pin early.
  void Release();

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const { return pid_; }
  const std::byte* bytes() const { return bytes_; }

  /// Mutable access; marks the frame dirty.
  std::byte* mutable_bytes();

 private:
  BufferPool* pool_ = nullptr;
  PageId pid_ = kInvalidPage;
  std::byte* bytes_ = nullptr;
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
/// which also keeps per-lane I/O counts deterministic. (The shards
/// below are a cache-footprint measure — smaller probe tables — not a
/// locking domain.)
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
  static constexpr int kShardBits = 3;
  static constexpr int kNumShards = 1 << kShardBits;

  struct Frame {
    PageId pid = kInvalidPage;  // kInvalidPage marks a free slot
    int32_t pin_count = 0;
    bool dirty = false;
    bool in_lru = false;
    int32_t lru_prev = kNoFrame;
    int32_t lru_next = kNoFrame;
    // Page bytes, stable across frame-arena growth; recycled with the
    // slot so steady-state eviction/fetch churn never allocates.
    std::unique_ptr<PageData> data;
  };

  /// One open-addressing shard: power-of-two bucket array of frame
  /// indices, linear probing, backward-shift deletion.
  struct Shard {
    std::vector<int32_t> buckets;  // kNoFrame = empty
    size_t used = 0;
  };

  static uint64_t Hash(PageId pid) {
    return static_cast<uint64_t>(static_cast<uint32_t>(pid)) *
           0x9E3779B97F4A7C15ull;
  }
  Shard& ShardFor(PageId pid) {
    return shards_[Hash(pid) >> (64 - kShardBits)];
  }

  /// Frame index of `pid`, or kNoFrame.
  int32_t Lookup(PageId pid);
  /// Maps `pid` to `frame` (must not be present). May grow the shard.
  void Insert(PageId pid, int32_t frame);
  /// Unmaps `pid` (must be present).
  void Erase(PageId pid);

  /// Takes a frame slot (recycled or fresh) with a ready data block.
  int32_t AllocFrame(PageId pid);
  /// Returns the slot (and its data block) to the freelist.
  void FreeFrame(int32_t frame);

  void LruPushBack(int32_t frame);
  void LruRemove(int32_t frame);

  void Unpin(PageId pid, bool dirty);
  void EvictIfNeeded();
  void FlushFrame(Frame& frame);

  DiskManager* disk_;
  size_t capacity_;
  PerfCounters* counters_;

  std::vector<Frame> frames_;         // arena; slots recycled
  std::vector<int32_t> free_frames_;  // freelist of arena slots
  size_t resident_ = 0;
  Shard shards_[kNumShards];
  // Intrusive LRU over unpinned frames (head = least recently used).
  int32_t lru_head_ = kNoFrame;
  int32_t lru_tail_ = kNoFrame;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_STORAGE_BUFFER_POOL_H_

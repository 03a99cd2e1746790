// Regression and differential tests for the buffer pool's accounting
// under eviction churn: the dirty-evict/re-fetch cycle (a dirty frame
// must be written back exactly once per eviction, and a re-fetch must
// see the written-back bytes and cost exactly one physical read), the
// pinned-overflow path at capacities 0, 1 and 2 (more pinned pages
// than frames), and a randomized differential sweep against a
// reference model of the documented LRU semantics (whose read-mostly
// phase drives the in-place reuse of a clean victim's frame thousands
// of times, each a view of the disk's page). A frame that held a
// private copy also serves a later clean view. The zero-copy
// tests pin the view contract: a clean miss hands out the disk's own
// page, a write copies it into the frame first and every pin sees the
// copy, and an injector only ever acts on a private copy. General
// pool/paged file coverage lives in tests/storage_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "fairmatch/common/rng.h"
#include "fairmatch/storage/buffer_pool.h"
#include "fairmatch/storage/disk_manager.h"
#include "fairmatch/storage/fault_injector.h"

namespace fairmatch {
namespace {

/// Writes an 8-byte stamp into a pinned page.
void Stamp(PageHandle* h, uint64_t value) {
  std::memcpy(h->mutable_bytes(), &value, sizeof(value));
}

/// Reads the 8-byte stamp of a pinned page.
uint64_t ReadStamp(const PageHandle& h) {
  uint64_t value = 0;
  std::memcpy(&value, h.bytes(), sizeof(value));
  return value;
}

/// Reads the 8-byte stamp directly from the simulated disk.
uint64_t DiskStamp(const DiskManager& disk, PageId pid) {
  std::byte buf[kPageSize];
  uint64_t value = 0;
  std::memcpy(&value, disk.ReadPage(pid, buf).bytes, sizeof(value));
  return value;
}

// A dirty frame evicted under capacity pressure must complete its
// writeback accounting (exactly one page_write, bytes durable on disk)
// before any re-fetch of the same page, and the re-fetch must cost
// exactly one page_read of the written-back content. Repeating the
// cycle (re-dirty, evict again) counts one further write per eviction
// — never zero, never two.
TEST(BufferPoolTest, DirtyEvictThenRefetchAccountsExactly) {
  for (size_t capacity : {1u, 2u}) {
    SCOPED_TRACE(capacity);
    DiskManager disk;
    PerfCounters counters;
    BufferPool pool(&disk, capacity, &counters);

    // One page more than capacity, so fetching the others evicts A.
    std::vector<PageId> pids;
    for (size_t i = 0; i < capacity + 1; ++i) {
      PageHandle h = pool.NewPage();
      pids.push_back(h.page_id());
    }
    pool.FlushAll();
    counters.Reset();
    const PageId a = pids[0];

    {
      PageHandle h = pool.FetchPage(a);
      Stamp(&h, 0xA1);
    }
    EXPECT_EQ(counters.page_reads, 1);
    EXPECT_EQ(counters.page_writes, 0);  // dirty but resident

    // Fill the buffer past capacity: A (LRU) is evicted dirty, once.
    for (size_t i = 1; i < pids.size(); ++i) {
      PageHandle h = pool.FetchPage(pids[i]);
    }
    EXPECT_EQ(counters.page_writes, 1);
    EXPECT_EQ(DiskStamp(disk, a), 0xA1u);  // writeback completed
    EXPECT_EQ(pool.resident_frames(), capacity);

    // Re-fetch after the dirty eviction: one physical read, the
    // written-back bytes, and no further write for the now-clean frame.
    // Its victim is clean, so the miss reuses that frame in place.
    {
      PageHandle h = pool.FetchPage(a);
      EXPECT_EQ(ReadStamp(h), 0xA1u);
      Stamp(&h, 0xA2);  // dirty the frame again
    }
    EXPECT_EQ(counters.page_reads,
              static_cast<int64_t>(pids.size()) + 1);
    EXPECT_EQ(counters.page_writes, 1);
    EXPECT_EQ(pool.resident_frames(), capacity);

    // Second dirty-evict cycle: exactly one more write.
    for (size_t i = 1; i < pids.size(); ++i) {
      PageHandle h = pool.FetchPage(pids[i]);
    }
    EXPECT_EQ(counters.page_writes, 2);
    EXPECT_EQ(DiskStamp(disk, a), 0xA2u);
    EXPECT_EQ(pool.resident_frames(), capacity);
  }
}

// More pinned pages than frames: every pinned frame stays valid above
// capacity, and unpinning drains the overflow back to the capacity,
// writing each dirty frame back exactly once.
TEST(BufferPoolTest, PinnedOverflowAtCapacitiesZeroOneTwo) {
  for (size_t capacity : {0u, 1u, 2u}) {
    SCOPED_TRACE(capacity);
    DiskManager disk;
    PerfCounters counters;
    BufferPool pool(&disk, capacity, &counters);

    const size_t overflow = capacity + 3;
    std::vector<PageId> pids;
    for (size_t i = 0; i < overflow; ++i) {
      PageHandle h = pool.NewPage();
      pids.push_back(h.page_id());
    }
    pool.FlushAll();
    counters.Reset();

    // Pin all pages at once (a path of pinned pages beyond capacity):
    // with every frame pinned a miss has no victim and takes a fresh
    // frame.
    std::vector<PageHandle> handles;
    for (size_t i = 0; i < overflow; ++i) {
      handles.push_back(pool.FetchPage(pids[i]));
      Stamp(&handles.back(), 0xB0 + i);
    }
    EXPECT_EQ(pool.resident_frames(), overflow);
    EXPECT_EQ(counters.page_reads, static_cast<int64_t>(overflow));
    EXPECT_EQ(counters.page_writes, 0);  // nothing evictable yet
    for (size_t i = 0; i < overflow; ++i) {
      EXPECT_EQ(ReadStamp(handles[i]), 0xB0 + i) << i;  // all still valid
    }

    // Unpin one by one: overflow frames are evicted (dirty, so each
    // eviction is one write) until the pool is back at capacity.
    for (PageHandle& h : handles) h.Release();
    handles.clear();
    EXPECT_EQ(pool.resident_frames(), capacity);
    EXPECT_EQ(counters.page_writes,
              static_cast<int64_t>(overflow - capacity));
    for (size_t i = 0; i < overflow; ++i) {
      EXPECT_EQ(DiskStamp(disk, pids[i]),
                i < overflow - capacity
                    ? 0xB0 + i  // evicted and written back
                    : 0u)       // still buffered dirty
          << i;
    }

    // Every page's content is intact, wherever it currently lives.
    for (size_t i = 0; i < overflow; ++i) {
      PageHandle h = pool.FetchPage(pids[i]);
      EXPECT_EQ(ReadStamp(h), 0xB0 + i) << i;
    }
    EXPECT_EQ(pool.resident_frames(), capacity);
  }
}

// At zero capacity every dirty unpin is an immediate writeback.
TEST(BufferPoolTest, ZeroCapacityWritesBackEveryDirtyUnpin) {
  DiskManager disk;
  PerfCounters counters;
  BufferPool pool(&disk, 0, &counters);
  PageId pid;
  {
    PageHandle h = pool.NewPage();
    pid = h.page_id();
  }
  counters.Reset();
  for (int i = 0; i < 4; ++i) {
    PageHandle h = pool.FetchPage(pid);
    Stamp(&h, 0xC0 + i);
    h.Release();
    EXPECT_EQ(counters.page_writes, i + 1);
    EXPECT_EQ(DiskStamp(disk, pid), 0xC0 + static_cast<uint64_t>(i));
  }
  EXPECT_EQ(counters.page_reads, 4);
  EXPECT_EQ(pool.resident_frames(), 0u);
}

/// A disk with `n` flushed pages, page i stamped 0xD0 + i.
std::vector<PageId> StampedPages(DiskManager* disk, int n) {
  std::vector<PageId> pids;
  PageData page{};
  for (int i = 0; i < n; ++i) {
    pids.push_back(disk->AllocatePage());
    const uint64_t stamp = 0xD0 + static_cast<uint64_t>(i);
    std::memcpy(page.bytes, &stamp, sizeof(stamp));
    EXPECT_TRUE(disk->WritePage(pids.back(), page.bytes).ok());
  }
  return pids;
}

// Two read pins and a third, writing pin of one page: the write copies
// the disk view into the frame, and both earlier pins see the written
// bytes, not the view they started on.
TEST(BufferPoolTest, CopyOnWriteIsSeenThroughEveryPin) {
  DiskManager disk;
  PerfCounters counters;
  BufferPool pool(&disk, 2, &counters);
  const PageId pid = StampedPages(&disk, 1)[0];
  PageData scratch;
  const std::byte* stored = disk.ReadPage(pid, scratch.bytes).bytes;

  PageHandle r1 = pool.FetchPage(pid);
  PageHandle r2 = pool.FetchPage(pid);
  EXPECT_EQ(r1.bytes(), stored);  // a clean miss is a view
  {
    PageHandle w = pool.FetchPage(pid);
    Stamp(&w, 0xE1);
    EXPECT_NE(w.bytes(), stored);  // the frame owns its bytes now
  }
  EXPECT_EQ(ReadStamp(r1), 0xE1u);
  EXPECT_EQ(ReadStamp(r2), 0xE1u);
  EXPECT_EQ(r1.bytes(), r2.bytes());
  EXPECT_EQ(DiskStamp(disk, pid), 0xD0u);  // not written back yet
  EXPECT_EQ(counters.page_reads, 1);
  EXPECT_EQ(counters.buffer_hits, 2);
  EXPECT_EQ(counters.page_writes, 0);

  r1.Release();
  r2.Release();
  pool.FlushAll();
  EXPECT_EQ(counters.page_writes, 1);
  EXPECT_EQ(DiskStamp(disk, pid), 0xE1u);
}

// The same fetch sequence with no injector (views) and with an
// injector that never alters a page (every read copied): identical
// bytes and identical counters.
TEST(BufferPoolTest, CleanMissViewMatchesCopiedRead) {
  FaultInjectorOptions plan;
  plan.seed = 3;
  plan.spike_rate = 1.0;  // active, but spike_us = 0: no sleep, no fault
  FaultInjector injector(plan);
  PerfCounters counters[2];
  std::vector<uint64_t> stamps[2];
  for (int copied = 0; copied < 2; ++copied) {
    DiskManager disk;
    const std::vector<PageId> pids = StampedPages(&disk, 5);
    if (copied == 1) disk.set_fault_injector(&injector);
    BufferPool pool(&disk, 2, &counters[copied]);
    PageData scratch;
    Rng rng(77);
    for (int i = 0; i < 200; ++i) {
      const PageId pid = pids[rng.UniformInt(0, pids.size() - 1)];
      PageHandle h = pool.FetchPage(pid);
      stamps[copied].push_back(ReadStamp(h));
      const bool viewed = h.bytes() == disk.ReadPage(pid, scratch.bytes).bytes;
      EXPECT_EQ(viewed, copied == 0) << i;
    }
  }
  EXPECT_EQ(stamps[0], stamps[1]);
  EXPECT_GT(counters[0].page_reads, 0);
  EXPECT_EQ(counters[0].logical_reads, counters[1].logical_reads);
  EXPECT_EQ(counters[0].buffer_hits, counters[1].buffer_hits);
  EXPECT_EQ(counters[0].page_reads, counters[1].page_reads);
  EXPECT_EQ(counters[0].page_writes, counters[1].page_writes);
}

// A corrupted read delivers the flipped bytes to the pin but leaves the
// stored page untouched: with the injector detached, a re-read returns
// the original bytes.
TEST(BufferPoolTest, InjectedCorruptionNeverReachesTheStoredPage) {
  DiskManager disk;
  PerfCounters counters;
  BufferPool pool(&disk, 0, &counters);
  const PageId pid = StampedPages(&disk, 1)[0];
  PageData scratch;
  PageData original;
  std::memcpy(original.bytes, disk.ReadPage(pid, scratch.bytes).bytes,
              kPageSize);

  FaultInjectorOptions plan;
  plan.seed = 11;
  plan.corrupt_rate = 1.0;
  FaultInjector injector(plan);
  disk.set_fault_injector(&injector);
  {
    PageHandle h = pool.FetchPage(pid);
    EXPECT_NE(std::memcmp(h.bytes(), original.bytes, kPageSize), 0)
        << "the flipped bytes should be delivered";
  }
  EXPECT_EQ(injector.counters().corruptions, 1);

  disk.set_fault_injector(nullptr);
  EXPECT_EQ(
      std::memcmp(disk.ReadPage(pid, scratch.bytes).bytes, original.bytes,
                  kPageSize),
      0);
  PageHandle h = pool.FetchPage(pid);
  EXPECT_EQ(std::memcmp(h.bytes(), original.bytes, kPageSize), 0);
  EXPECT_EQ(counters.page_reads, 2);
}

// A write copied out of a clean view and then dropped by the injector
// at writeback leaves the disk page exactly as it was.
TEST(BufferPoolTest, DroppedWriteAfterCopyOnWriteLeavesDiskUnchanged) {
  DiskManager disk;
  PerfCounters counters;
  BufferPool pool(&disk, 0, &counters);
  const PageId pid = StampedPages(&disk, 1)[0];

  FaultInjectorOptions plan;
  plan.seed = 5;
  plan.write_fail_rate = 1.0;
  FaultInjector injector(plan);
  ErrorSink sink;
  disk.set_error_sink(&sink);
  {
    PageHandle h = pool.FetchPage(pid);  // no injector yet: a view
    Stamp(&h, 0xF1);
    EXPECT_EQ(DiskStamp(disk, pid), 0xD0u);  // the view was not written
    disk.set_fault_injector(&injector);
  }  // evicted at capacity 0: the writeback is dropped
  EXPECT_EQ(counters.page_writes, 1);
  EXPECT_EQ(injector.counters().write_failures, 1);
  EXPECT_TRUE(sink.failed());

  disk.set_fault_injector(nullptr);
  EXPECT_EQ(DiskStamp(disk, pid), 0xD0u);
  PageHandle h = pool.FetchPage(pid);
  EXPECT_EQ(ReadStamp(h), 0xD0u);
}

// Data-derived ids that name no live page, with an error sink attached:
// negative, huge, the allocation frontier, and a freed id inside it.
// Every fetch and delete reports kDataLoss instead of aborting, and
// every fetch hands back a zeroed page. A freed id inside
// [0, num_pages()) is cached like any page: a repeat fetch while it is
// resident is a hit (no new report) and DeletePage drops its frame. An
// id outside that range is never entered in the frame table: a repeat
// fetch is a reported miss with a frame of its own, DeletePage leaves
// both frames, and LRU eviction and FlushAll() reclaim them.
TEST(BufferPoolTest, BadPageRefsReportDataLossAndReadZeroes) {
  DiskManager disk;
  const std::vector<PageId> pids = StampedPages(&disk, 3);
  {
    PerfCounters counters;
    BufferPool pool(&disk, 2, &counters);
    pool.DeletePage(pids[1]);  // a freed id inside [0, num_pages())
  }
  ErrorSink sink;
  disk.set_error_sink(&sink);
  const PageId frontier = static_cast<PageId>(disk.num_pages());
  const std::pair<PageId, bool> cases[] = {
      {-1, false},
      {std::numeric_limits<PageId>::max(), false},
      {frontier, false},
      {pids[1], true}};
  PageData zeroes{};
  for (const auto& [pid, mapped] : cases) {
    SCOPED_TRACE(pid);
    PerfCounters counters;
    BufferPool pool(&disk, 2, &counters);
    sink.Reset();
    {
      PageHandle first = pool.FetchPage(pid);
      EXPECT_EQ(sink.reports(), 1);
      EXPECT_EQ(sink.status().code, ErrorCode::kDataLoss);
      EXPECT_EQ(std::memcmp(first.bytes(), zeroes.bytes, kPageSize), 0);
      PageHandle second = pool.FetchPage(pid);
      EXPECT_EQ(std::memcmp(second.bytes(), zeroes.bytes, kPageSize), 0);
      EXPECT_EQ(counters.logical_reads, 2);
      if (mapped) {
        EXPECT_EQ(second.bytes(), first.bytes());
        EXPECT_EQ(counters.page_reads, 1);
        EXPECT_EQ(counters.buffer_hits, 1);
        EXPECT_EQ(sink.reports(), 1);
        EXPECT_EQ(pool.resident_frames(), 1u);
      } else {
        EXPECT_EQ(counters.page_reads, 2);
        EXPECT_EQ(counters.buffer_hits, 0);
        EXPECT_EQ(sink.reports(), 2);
        EXPECT_EQ(pool.resident_frames(), 2u);
      }
    }
    const int64_t fetch_reports = sink.reports();
    pool.DeletePage(pid);
    EXPECT_EQ(sink.reports(), fetch_reports + 1);
    EXPECT_EQ(sink.status().code, ErrorCode::kDataLoss);
    EXPECT_EQ(pool.resident_frames(), mapped ? 0u : 2u);

    // A live page still reads right; on the full pool it takes the
    // least recently used bad frame.
    EXPECT_EQ(ReadStamp(pool.FetchPage(pids[0])), 0xD0u);
    EXPECT_EQ(pool.resident_frames(), mapped ? 1u : 2u);
    pool.FlushAll();
    EXPECT_EQ(pool.resident_frames(), 0u);
    EXPECT_EQ(counters.page_writes, 0);
    EXPECT_EQ(sink.reports(), fetch_reports + 1);
  }
  EXPECT_EQ(disk.num_pages(), frontier);
  EXPECT_FALSE(disk.IsLive(pids[1]));
  EXPECT_EQ(DiskStamp(disk, pids[0]), 0xD0u);
}

// A bad-ref frame for a freed id stays resident after NewPage() hands
// that id out again. Reusing the stale frame for another page must not
// unmap the new page's frame: the next fetch of the id is a hit on the
// new page's dirty bytes, not a miss that reads the stale disk page.
TEST(BufferPoolTest, StaleBadRefFrameLeavesTheReusedIdMapped) {
  DiskManager disk;
  const std::vector<PageId> pids = StampedPages(&disk, 2);
  PerfCounters counters;
  BufferPool pool(&disk, 2, &counters);
  pool.DeletePage(pids[1]);
  ErrorSink sink;
  disk.set_error_sink(&sink);
  pool.FetchPage(pids[1]);  // reported; a zeroed frame, unpinned
  EXPECT_EQ(sink.reports(), 1);
  {
    PageHandle h = pool.NewPage();
    ASSERT_EQ(h.page_id(), pids[1]);
    Stamp(&h, 0xE1);
  }
  EXPECT_EQ(pool.resident_frames(), 2u);
  // The stale frame is the clean LRU head, so this miss takes it.
  EXPECT_EQ(ReadStamp(pool.FetchPage(pids[0])), 0xD0u);
  counters.Reset();
  EXPECT_EQ(ReadStamp(pool.FetchPage(pids[1])), 0xE1u);
  EXPECT_EQ(counters.buffer_hits, 1);
  EXPECT_EQ(counters.page_reads, 0);
  EXPECT_EQ(sink.reports(), 1);
}

/// Reference model of the documented pool semantics: global LRU over
/// unpinned frames, pinned overflow tolerated, dirty evictions write
/// back, capacity 0 caches nothing. Tracks the same counters and the
/// 8-byte page stamps.
class ModelPool {
 public:
  explicit ModelPool(size_t capacity) : capacity_(capacity) {}

  void Fetch(PageId pid, bool write, uint64_t stamp) {
    counters.logical_reads++;
    auto it = frames_.find(pid);
    if (it != frames_.end()) {
      counters.buffer_hits++;
      if (it->second.pin == 0) LruErase(pid);
    } else {
      counters.page_reads++;
      if (frames_.size() >= capacity_ && !lru_.empty() &&
          !frames_.at(lru_.front()).dirty) {
        clean_victim_misses++;
      }
      frames_[pid] = Frame{disk_[pid], false, 0};
      it = frames_.find(pid);
    }
    it->second.pin++;
    if (write) {
      it->second.stamp = stamp;
      it->second.dirty = true;
    }
    Evict();
  }

  uint64_t StampOf(PageId pid) const { return frames_.at(pid).stamp; }

  void Release(PageId pid) {
    Frame& f = frames_.at(pid);
    f.pin--;
    if (f.pin == 0) {
      lru_.push_back(pid);
      Evict();
    }
  }

  PageId New() {
    PageId pid;
    if (!free_.empty()) {
      pid = free_.back();
      free_.pop_back();
    } else {
      pid = next_pid_++;
    }
    disk_[pid] = 0;
    frames_[pid] = Frame{0, true, 1};
    Evict();
    return pid;
  }

  void Delete(PageId pid) {
    auto it = frames_.find(pid);
    if (it != frames_.end()) {
      if (it->second.pin == 0) LruErase(pid);
      frames_.erase(it);
    }
    disk_.erase(pid);
    free_.push_back(pid);
  }

  void FlushAll() {
    for (auto& [pid, f] : frames_) {
      if (f.dirty) {
        counters.page_writes++;
        disk_[pid] = f.stamp;
      }
    }
    frames_.clear();
    lru_.clear();
  }

  void SetCapacity(size_t capacity) {
    capacity_ = capacity;
    Evict();
  }

  bool Resident(PageId pid) const { return frames_.count(pid) > 0; }
  size_t resident() const { return frames_.size(); }
  int PinOf(PageId pid) const {
    auto it = frames_.find(pid);
    return it == frames_.end() ? 0 : it->second.pin;
  }
  uint64_t DiskStampOf(PageId pid) const { return disk_.at(pid); }
  bool OnDisk(PageId pid) const { return disk_.count(pid) > 0; }

  PerfCounters counters;
  // Misses that found a full pool with a clean LRU head: the pool
  // serves these by reusing the victim's frame in place.
  int64_t clean_victim_misses = 0;

 private:
  struct Frame {
    uint64_t stamp = 0;
    bool dirty = false;
    int pin = 0;
  };

  void LruErase(PageId pid) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (*it == pid) {
        lru_.erase(it);
        return;
      }
    }
  }

  void Evict() {
    while (frames_.size() > capacity_ && !lru_.empty()) {
      PageId victim = lru_.front();
      lru_.pop_front();
      Frame& f = frames_.at(victim);
      if (f.dirty) {
        counters.page_writes++;
        disk_[victim] = f.stamp;
      }
      frames_.erase(victim);
    }
  }

  size_t capacity_;
  std::map<PageId, Frame> frames_;
  std::deque<PageId> lru_;
  std::map<PageId, uint64_t> disk_;
  std::vector<PageId> free_;
  PageId next_pid_ = 0;
};

// A frame that held a private copy (an injected corruption, then a
// failed read) is reused for a later clean miss: the new pin gets a
// view of the disk page with the right bytes, not the old copy.
TEST(BufferPoolTest, FrameOfAPrivateCopyServesALaterCleanView) {
  DiskManager disk;
  PerfCounters counters;
  BufferPool pool(&disk, 1, &counters);
  const std::vector<PageId> pids = StampedPages(&disk, 3);
  PageData scratch;
  const auto stored = [&](PageId pid) {
    return disk.ReadPage(pid, scratch.bytes).bytes;
  };

  FaultInjectorOptions corrupt_plan;
  corrupt_plan.seed = 13;
  corrupt_plan.corrupt_rate = 1.0;
  FaultInjector corrupter(corrupt_plan);
  disk.set_fault_injector(&corrupter);
  {
    PageHandle h = pool.FetchPage(pids[0]);
    EXPECT_NE(h.bytes(), stored(pids[0]));  // a private, flipped copy
  }
  disk.set_fault_injector(nullptr);
  {
    PageHandle h = pool.FetchPage(pids[1]);  // reuses pids[0]'s frame
    EXPECT_EQ(h.bytes(), stored(pids[1]));
    EXPECT_EQ(ReadStamp(h), 0xD1u);
    EXPECT_EQ(pool.resident_frames(), 1u);
  }

  FaultInjectorOptions fail_plan;
  fail_plan.seed = 17;
  fail_plan.read_fail_rate = 1.0;
  FaultInjector failer(fail_plan);
  ErrorSink sink;
  disk.set_error_sink(&sink);
  disk.set_fault_injector(&failer);
  {
    PageHandle h = pool.FetchPage(pids[2]);
    EXPECT_EQ(ReadStamp(h), 0u);  // a failed read is zero-filled
  }
  EXPECT_TRUE(sink.failed());
  disk.set_fault_injector(nullptr);
  for (int i = 0; i < 3; ++i) {
    PageHandle h = pool.FetchPage(pids[i]);
    EXPECT_EQ(h.bytes(), stored(pids[i])) << i;
    EXPECT_EQ(ReadStamp(h), 0xD0u + i) << i;
    EXPECT_EQ(pool.resident_frames(), 1u);
  }
  EXPECT_EQ(counters.page_reads, 6);
  EXPECT_EQ(counters.page_writes, 0);
}

// Randomized differential sweep: every operation's counters, residency
// and page bytes must match the reference model exactly, across
// capacity changes (including 0), pinned overflow, deletions and
// flushes. A read-mostly phase at the starting capacity follows:
// fetch-and-release over more pages than frames, so nearly every miss
// finds a full pool with a clean victim and reuses its frame.
void RunRandomizedOps(size_t capacity, uint64_t seed) {
  Rng rng(seed);
  DiskManager disk;
  PerfCounters counters;
  BufferPool pool(&disk, capacity, &counters);
  ModelPool model(capacity);

  std::vector<PageId> pages;
  std::vector<std::pair<PageId, PageHandle>> open;
  uint64_t next_stamp = 1;

  auto check = [&]() {
    ASSERT_EQ(counters.logical_reads, model.counters.logical_reads);
    ASSERT_EQ(counters.buffer_hits, model.counters.buffer_hits);
    ASSERT_EQ(counters.page_reads, model.counters.page_reads);
    ASSERT_EQ(counters.page_writes, model.counters.page_writes);
    ASSERT_EQ(pool.resident_frames(), model.resident());
  };

  for (int op = 0; op < 20000; ++op) {
    const int choice = static_cast<int>(rng.UniformInt(0, 99));
    if (pages.size() < 4 || choice < 10) {
      PageHandle h = pool.NewPage();
      PageId pid = h.page_id();
      ASSERT_EQ(model.New(), pid);  // same allocation order
      pages.push_back(pid);
      open.emplace_back(pid, std::move(h));
    } else if (choice < 55) {
      // Fetch (sometimes writing), hold the pin for a while.
      PageId pid = pages[rng.UniformInt(0, pages.size() - 1)];
      if (!model.OnDisk(pid)) continue;  // deleted id not yet recycled
      const bool write = rng.UniformInt(0, 1) == 0;
      const uint64_t stamp = write ? next_stamp++ : 0;
      PageHandle h = pool.FetchPage(pid);
      if (write) Stamp(&h, stamp);
      model.Fetch(pid, write, stamp);
      ASSERT_EQ(ReadStamp(h), model.StampOf(pid));
      open.emplace_back(pid, std::move(h));
    } else if (choice < 85 && !open.empty()) {
      const size_t pick = rng.UniformInt(0, open.size() - 1);
      PageId pid = open[pick].first;
      open[pick].second.Release();
      open.erase(open.begin() + pick);
      model.Release(pid);
    } else if (choice < 90) {
      const size_t cap = rng.UniformInt(0, 4);
      pool.set_capacity(cap);
      model.SetCapacity(cap);
    } else if (choice < 95 && !pages.empty()) {
      PageId pid = pages[rng.UniformInt(0, pages.size() - 1)];
      if (!model.OnDisk(pid) || model.PinOf(pid) > 0) continue;
      pool.DeletePage(pid);
      model.Delete(pid);
      pages.erase(std::find(pages.begin(), pages.end(), pid));
    } else if (open.empty()) {
      pool.FlushAll();
      model.FlushAll();
    }
    check();
  }

  // Drain and do a durability comparison through the disk.
  for (auto& [pid, handle] : open) {
    handle.Release();
    model.Release(pid);
  }
  open.clear();
  pool.FlushAll();
  model.FlushAll();
  check();
  for (PageId pid : pages) {
    EXPECT_EQ(DiskStamp(disk, pid), model.DiskStampOf(pid)) << pid;
  }

  // Read-mostly phase from the empty pool: no pin is held across
  // operations and one fetch in ten writes. A miss hands out a view of
  // the disk's own page, whichever frame it lands in.
  pool.set_capacity(capacity);
  model.SetCapacity(capacity);
  const int64_t reuses_before = model.clean_victim_misses;
  PageData scratch;
  for (int op = 0; op < 8000; ++op) {
    const PageId pid = pages[rng.UniformInt(0, pages.size() - 1)];
    const bool write = rng.UniformInt(0, 9) == 0;
    const uint64_t stamp = write ? next_stamp++ : 0;
    {
      const int64_t reads_before = counters.page_reads;
      PageHandle h = pool.FetchPage(pid);
      if (counters.page_reads > reads_before) {
        ASSERT_EQ(h.bytes(), disk.ReadPage(pid, scratch.bytes).bytes) << op;
      }
      if (write) Stamp(&h, stamp);
      model.Fetch(pid, write, stamp);
      ASSERT_EQ(ReadStamp(h), model.StampOf(pid));
    }
    model.Release(pid);
    check();
    ASSERT_LE(pool.resident_frames(), capacity);
  }
  EXPECT_GT(model.clean_victim_misses - reuses_before, 5000);

  // A final durability comparison after the phase's writes.
  pool.FlushAll();
  model.FlushAll();
  check();
  for (PageId pid : pages) {
    EXPECT_EQ(DiskStamp(disk, pid), model.DiskStampOf(pid)) << pid;
  }
}

TEST(BufferPoolTest, RandomizedOpsMatchReferenceModel) {
  const std::pair<size_t, uint64_t> runs[] = {{2, 501}, {1, 502}, {3, 503}};
  for (const auto& [capacity, seed] : runs) {
    SCOPED_TRACE(capacity);
    RunRandomizedOps(capacity, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace fairmatch

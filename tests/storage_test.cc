// Unit tests for the simulated disk, LRU buffer pool, paged files and
// the paged node store's handles.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fairmatch/rtree/node_store.h"
#include "fairmatch/storage/buffer_pool.h"
#include "fairmatch/storage/disk_manager.h"
#include "fairmatch/storage/fault_injector.h"
#include "fairmatch/storage/paged_file.h"

namespace fairmatch {
namespace {

TEST(DiskManagerTest, AllocateReadWrite) {
  DiskManager disk;
  PageId a = disk.AllocatePage();
  PageId b = disk.AllocatePage();
  EXPECT_NE(a, b);
  std::byte buf[kPageSize];
  std::memset(buf, 0xAB, kPageSize);
  disk.WritePage(a, buf);
  std::byte out[kPageSize];
  EXPECT_EQ(std::memcmp(buf, disk.ReadPage(a, out).bytes, kPageSize), 0);
  // Page b still zeroed.
  EXPECT_EQ(disk.ReadPage(b, out).bytes[0], std::byte{0});
  EXPECT_EQ(disk.num_pages(), 2);
}

TEST(DiskManagerTest, FreePagesAreRecycled) {
  DiskManager disk;
  PageId a = disk.AllocatePage();
  disk.FreePage(a);
  EXPECT_EQ(disk.num_live_pages(), 0);
  PageId b = disk.AllocatePage();
  EXPECT_EQ(a, b);  // recycled
  EXPECT_EQ(disk.num_pages(), 1);
}

// Liveness violations on ids only a programming error can produce stay
// fatal (disk_manager.h "CHECK vs Status"): these pin both the abort
// and its page-id diagnostics. Data-*derived* ids are different — the
// caller guards them with IsLive() and degrades to kDataLoss.
TEST(DiskManagerDeathTest, DoubleFreeAbortsWithDiagnostics) {
  DiskManager disk;
  PageId a = disk.AllocatePage();
  disk.FreePage(a);
  EXPECT_DEATH(disk.FreePage(a), "FreePage: page 0 is not live");
}

TEST(DiskManagerDeathTest, OutOfRangeReadAbortsWithDiagnostics) {
  DiskManager disk;
  disk.AllocatePage();
  std::byte out[kPageSize];
  EXPECT_DEATH(disk.ReadPage(7, out), "ReadPage: page 7 is not live");
}

// Recycle() must leave the manager observably identical to a freshly
// constructed one — page ids restart at zero, reallocated pages come
// back zeroed and no fault wiring survives — while reusing the parked
// buffers (that reuse is what Server lanes lean on between requests,
// and the cleared wiring keeps one attempt's faults out of the next).
TEST(DiskManagerTest, RecycleRestartsIdsWithZeroedPages) {
  DiskManager disk;
  FaultInjectorOptions plan;
  plan.seed = 7;
  plan.spike_rate = 1.0;  // active, yet never fails or alters a page
  FaultInjector injector(plan);
  ErrorSink sink;
  disk.set_fault_injector(&injector);
  disk.set_error_sink(&sink);
  disk.set_verify_checksums(true);
  std::byte junk[kPageSize];
  std::memset(junk, 0xCD, kPageSize);
  for (int i = 0; i < 5; ++i) disk.WritePage(disk.AllocatePage(), junk);
  disk.FreePage(2);  // a hole in the free list must not survive either
  EXPECT_EQ(disk.num_pages(), 5);

  disk.Recycle();
  EXPECT_EQ(disk.num_pages(), 0);
  EXPECT_EQ(disk.num_live_pages(), 0);
  EXPECT_EQ(disk.spare_pages(), 4u);  // the freed page was already gone
  EXPECT_EQ(disk.fault_injector(), nullptr);
  EXPECT_FALSE(disk.has_error_sink());
  EXPECT_FALSE(disk.verify_checksums());
  EXPECT_FALSE(sink.failed());

  PageId first = disk.AllocatePage();
  EXPECT_EQ(first, 0);  // ids restart, not resume
  EXPECT_EQ(disk.spare_pages(), 3u);  // served from the parked buffers
  std::byte out[kPageSize];
  const std::byte* bytes = disk.ReadPage(first, out).bytes;
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(bytes[i], std::byte{0}) << "byte " << i;
  }
}

TEST(BufferPoolTest, MissThenHit) {
  DiskManager disk;
  PerfCounters counters;
  BufferPool pool(&disk, 4, &counters);
  PageId pid;
  {
    PageHandle h = pool.NewPage();
    pid = h.page_id();
    h.mutable_bytes()[0] = std::byte{42};
  }
  pool.FlushAll();
  counters.Reset();

  {
    PageHandle h = pool.FetchPage(pid);
    EXPECT_EQ(h.bytes()[0], std::byte{42});
  }
  EXPECT_EQ(counters.page_reads, 1);
  {
    PageHandle h = pool.FetchPage(pid);
    (void)h;
  }
  EXPECT_EQ(counters.page_reads, 1);
  EXPECT_EQ(counters.buffer_hits, 1);
  EXPECT_EQ(counters.logical_reads, 2);
}

TEST(BufferPoolTest, LruEvictionOrder) {
  DiskManager disk;
  PerfCounters counters;
  BufferPool pool(&disk, 2, &counters);
  std::vector<PageId> pids;
  for (int i = 0; i < 3; ++i) {
    PageHandle h = pool.NewPage();
    pids.push_back(h.page_id());
  }
  pool.FlushAll();
  counters.Reset();

  // Touch 0, 1 (fills buffer), then 0 again, then 2 — evicts 1 (LRU).
  pool.FetchPage(pids[0]);
  pool.FetchPage(pids[1]);
  pool.FetchPage(pids[0]);
  pool.FetchPage(pids[2]);
  EXPECT_EQ(counters.page_reads, 3);
  counters.Reset();
  pool.FetchPage(pids[0]);  // still resident
  EXPECT_EQ(counters.page_reads, 0);
  pool.FetchPage(pids[1]);  // was evicted
  EXPECT_EQ(counters.page_reads, 1);
}

TEST(BufferPoolTest, ZeroCapacityAlwaysMisses) {
  DiskManager disk;
  PerfCounters counters;
  BufferPool pool(&disk, 0, &counters);
  PageId pid;
  {
    PageHandle h = pool.NewPage();
    pid = h.page_id();
  }
  pool.FlushAll();
  counters.Reset();
  for (int i = 0; i < 5; ++i) {
    PageHandle h = pool.FetchPage(pid);
    (void)h;
  }
  EXPECT_EQ(counters.page_reads, 5);
  EXPECT_EQ(counters.buffer_hits, 0);
  EXPECT_EQ(pool.resident_frames(), 0u);
}

TEST(BufferPoolTest, PinnedPagesSurviveCapacityPressure) {
  DiskManager disk;
  PerfCounters counters;
  BufferPool pool(&disk, 1, &counters);
  PageHandle a = pool.NewPage();
  a.mutable_bytes()[7] = std::byte{9};
  // Fetch more pages than capacity while `a` stays pinned.
  PageId b_pid;
  {
    PageHandle b = pool.NewPage();
    b_pid = b.page_id();
  }
  PageHandle c = pool.FetchPage(b_pid);
  EXPECT_EQ(a.bytes()[7], std::byte{9});  // still valid
}

TEST(BufferPoolTest, DirtyEvictionCountsWrite) {
  DiskManager disk;
  PerfCounters counters;
  BufferPool pool(&disk, 1, &counters);
  PageId a, b;
  {
    PageHandle h = pool.NewPage();
    a = h.page_id();
  }
  {
    PageHandle h = pool.NewPage();
    b = h.page_id();
  }
  pool.FlushAll();
  counters.Reset();
  {
    PageHandle h = pool.FetchPage(a);
    h.mutable_bytes()[0] = std::byte{1};
  }
  {
    PageHandle h = pool.FetchPage(b);  // evicts dirty a
    (void)h;
  }
  EXPECT_EQ(counters.page_writes, 1);
  // Durability: the write reached the disk.
  std::byte out[kPageSize];
  EXPECT_EQ(disk.ReadPage(a, out).bytes[0], std::byte{1});
}

TEST(BufferPoolTest, ShrinkCapacityEvicts) {
  DiskManager disk;
  PerfCounters counters;
  BufferPool pool(&disk, 8, &counters);
  for (int i = 0; i < 6; ++i) {
    PageHandle h = pool.NewPage();
    (void)h;
  }
  EXPECT_EQ(pool.resident_frames(), 6u);
  pool.set_capacity(2);
  EXPECT_LE(pool.resident_frames(), 2u);
}

TEST(PagedFileTest, AppendAndRead) {
  DiskManager disk;
  PerfCounters counters;
  BufferPool pool(&disk, 16, &counters);
  PagedFile file(&pool, sizeof(int64_t));
  const int n = 2000;  // spans multiple pages (512 per page)
  for (int64_t i = 0; i < n; ++i) {
    file.Append(&i);
  }
  file.Seal();
  EXPECT_EQ(file.num_records(), n);
  EXPECT_EQ(file.num_pages(), (n + 511) / 512);
  for (int64_t i = 0; i < n; i += 97) {
    int64_t v = -1;
    file.Read(i, &v);
    EXPECT_EQ(v, i);
  }
}

TEST(PagedFileTest, ReadPageReturnsAllRecords) {
  DiskManager disk;
  PerfCounters counters;
  BufferPool pool(&disk, 16, &counters);
  PagedFile file(&pool, sizeof(int32_t));
  const int n = 1500;
  for (int32_t i = 0; i < n; ++i) file.Append(&i);
  file.Seal();
  std::vector<int32_t> buf(file.records_per_page());
  int total = 0;
  for (int64_t p = 0; p < file.num_pages(); ++p) {
    int count = file.ReadPage(p, buf.data());
    for (int i = 0; i < count; ++i) {
      EXPECT_EQ(buf[i], total + i);
    }
    total += count;
  }
  EXPECT_EQ(total, n);
}

TEST(PagedFileTest, SequentialScanIsOneReadPerPage) {
  DiskManager disk;
  PerfCounters counters;
  BufferPool pool(&disk, 2, &counters);
  PagedFile file(&pool, 8);
  for (int64_t i = 0; i < 5120; ++i) file.Append(&i);  // 10 pages
  file.Seal();
  counters.Reset();
  int64_t v;
  for (int64_t i = 0; i < file.num_records(); ++i) file.Read(i, &v);
  EXPECT_EQ(counters.page_reads, file.num_pages());
}

// A read handle taken first sees a clean disk view; a writable handle
// on the same page then copies it into the frame. Every later edit
// through the writer must show through the reader too, and the edits
// reach the disk when the frame is flushed.
TEST(PagedNodeStoreTest, ReadAndWriteHandlesOnOnePageStayCoherent) {
  PagedNodeStore store(2, /*buffer_frames=*/4);
  const PageId pid = store.Allocate();
  {
    NodeHandle w = store.Write(pid);
    w.view().Init(/*level=*/0);
    w.view().AppendLeaf(Point(2, 0.25f), 7);
  }
  store.ResetCounters();  // flushed: the next fetch is a clean miss

  NodeHandle r = store.Read(pid);
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.view().count(), 1);
  {
    NodeHandle w = store.Write(pid);
    w.view().AppendLeaf(Point(2, 0.75f), 8);
    EXPECT_EQ(r.view().count(), 2);
    EXPECT_EQ(r.view().child(1), 8);
    w.view().RemoveEntry(0);
  }
  EXPECT_EQ(r.view().count(), 1);
  EXPECT_EQ(r.view().child(0), 8);
  EXPECT_EQ(store.counters().page_reads, 1);
  r.Release();
  EXPECT_FALSE(r.valid());

  store.ResetCounters();
  NodeHandle again = store.Read(pid);
  EXPECT_EQ(again.view().count(), 1);
  EXPECT_EQ(again.view().child(0), 8);
  EXPECT_EQ(again.view().leaf_point(0)[0], 0.75f);
}

}  // namespace
}  // namespace fairmatch

#include "fairmatch/storage/buffer_pool.h"

#include <cstring>

#include "fairmatch/common/check.h"

namespace fairmatch {

PageHandle::PageHandle(BufferPool* pool, PageId pid, int32_t frame)
    : pool_(pool), pid_(pid), frame_(frame) {}

PageHandle::PageHandle(PageHandle&& other) noexcept
    : pool_(other.pool_), pid_(other.pid_), frame_(other.frame_) {
  other.pool_ = nullptr;
  other.pid_ = kInvalidPage;
  other.frame_ = BufferPool::kNoFrame;
}

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    pid_ = other.pid_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
    other.pid_ = kInvalidPage;
    other.frame_ = BufferPool::kNoFrame;
  }
  return *this;
}

PageHandle::~PageHandle() { Release(); }

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    pid_ = kInvalidPage;
    frame_ = BufferPool::kNoFrame;
  }
}

std::byte* PageHandle::mutable_bytes() {
  FAIRMATCH_CHECK(pool_ != nullptr);
  return pool_->MakeWritable(frame_);
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity_frames,
                       PerfCounters* counters)
    : disk_(disk), capacity_(capacity_frames), counters_(counters) {}

BufferPool::~BufferPool() {
  // Intentionally no flush: dropping a pool discards counted state only;
  // the simulated disk already holds the last flushed content. Callers
  // that care about persistence call FlushAll() explicitly.
}

// --- frame table -----------------------------------------------------

void BufferPool::Insert(PageId pid, int32_t frame) {
  if (pid < 0 || pid >= disk_->num_pages()) return;
  if (static_cast<size_t>(pid) >= table_.size()) {
    table_.resize(static_cast<size_t>(disk_->num_pages()), kNoFrame);
  }
  table_[pid] = frame;
}

// --- frame arena and LRU ---------------------------------------------

int32_t BufferPool::AllocFrame(PageId pid) {
  int32_t frame;
  if (!free_frames_.empty()) {
    frame = free_frames_.back();
    free_frames_.pop_back();
  } else {
    frame = static_cast<int32_t>(frames_.size());
    frames_.emplace_back();
    frames_.back().data = std::make_unique<PageData>();
  }
  Frame& f = frames_[frame];
  f.pid = pid;
  f.bytes = f.data->bytes;
  f.pin_count = 0;
  f.dirty = false;
  f.lru_prev = kNoFrame;
  f.lru_next = kNoFrame;
  resident_++;
  return frame;
}

void BufferPool::FreeFrame(int32_t frame) {
  frames_[frame].bytes = nullptr;
  free_frames_.push_back(frame);
  resident_--;
}

void BufferPool::LruPushBack(int32_t frame) {
  Frame& f = frames_[frame];
  f.lru_prev = lru_tail_;
  f.lru_next = kNoFrame;
  if (lru_tail_ != kNoFrame) {
    frames_[lru_tail_].lru_next = frame;
  } else {
    lru_head_ = frame;
  }
  lru_tail_ = frame;
}

void BufferPool::LruRemove(int32_t frame) {
  Frame& f = frames_[frame];
  if (f.lru_prev != kNoFrame) {
    frames_[f.lru_prev].lru_next = f.lru_next;
  } else {
    lru_head_ = f.lru_next;
  }
  if (f.lru_next != kNoFrame) {
    frames_[f.lru_next].lru_prev = f.lru_prev;
  } else {
    lru_tail_ = f.lru_prev;
  }
  f.lru_prev = kNoFrame;
  f.lru_next = kNoFrame;
}

// --- pool operations -------------------------------------------------

PageHandle BufferPool::FetchPage(PageId pid) {
  counters_->logical_reads++;
  int32_t frame = Lookup(pid);
  if (frame != kNoFrame) {
    counters_->buffer_hits++;
    Frame& f = frames_[frame];
    if (f.pin_count == 0) LruRemove(frame);
    f.pin_count++;
    return PageHandle(this, pid, frame);
  }
  // Miss: physical read (before any eviction writeback, matching the
  // counted access order of the original pool).
  counters_->page_reads++;
  const bool bad_ref = !disk_->IsLive(pid) && disk_->has_error_sink();
  if (!bad_ref && resident_ >= capacity_ && lru_head_ != kNoFrame &&
      !frames_[lru_head_].dirty) {
    // A full pool with a clean LRU head: that head is the victim the
    // eviction after the read would pick, and evicting a clean frame
    // touches no disk, so its slot takes the new page in place. A dirty
    // victim takes the path below, where its write-back follows the
    // read.
    frame = lru_head_;
    LruRemove(frame);
    Erase(frames_[frame].pid, frame);
    frames_[frame].pid = pid;
  } else {
    frame = AllocFrame(pid);
  }
  Frame& f = frames_[frame];
  if (bad_ref) {
    // A data-derived id (e.g. a child pointer decoded from a page that
    // was itself corrupt) pointing nowhere: typed error + a zeroed
    // frame instead of the liveness abort inside DiskManager::ReadPage.
    // Without a sink (no run to report to) the abort below stands —
    // that is a programmer error, not data loss. An id outside
    // [0, num_pages()) is never entered in the frame table, so a
    // repeat fetch of it misses (and reports) again.
    disk_->ReportBadPageRef(pid, "BufferPool::FetchPage");
    std::memset(f.data->bytes, 0, kPageSize);
  } else {
    // A clean read is a view of the disk page; an injected or faulted
    // one lands in the frame's own buffer. A faulted read (injected
    // failure, checksum mismatch) comes back zero-filled and already
    // reported to the run's sink; the zeroed page is structurally safe
    // for every consumer, so the fetch proceeds and the run unwinds at
    // its next cancellation point.
    f.bytes = disk_->ReadPage(pid, f.data->bytes).bytes;
  }
  f.pin_count = 1;
  Insert(pid, frame);
  EvictIfNeeded();
  return PageHandle(this, pid, frame);
}

PageHandle BufferPool::NewPage() {
  PageId pid = disk_->AllocatePage();
  const int32_t frame = AllocFrame(pid);
  Frame& f = frames_[frame];
  std::memset(f.data->bytes, 0, kPageSize);
  f.pin_count = 1;
  f.dirty = true;
  Insert(pid, frame);
  EvictIfNeeded();
  return PageHandle(this, pid, frame);
}

void BufferPool::DeletePage(PageId pid) {
  const int32_t frame = Lookup(pid);
  if (frame != kNoFrame) {
    Frame& f = frames_[frame];
    FAIRMATCH_CHECK(f.pin_count == 0);
    LruRemove(frame);
    Erase(pid, frame);
    FreeFrame(frame);
  }
  if (!disk_->IsLive(pid) && disk_->has_error_sink()) {
    // Data-derived deletes (Chain frees nodes named by decoded child
    // pointers) may chase a corrupt id; degrade to a typed error
    // instead of DiskManager::FreePage's double-free abort. Without a
    // sink the abort stands (programmer error).
    disk_->ReportBadPageRef(pid, "BufferPool::DeletePage");
    return;
  }
  disk_->FreePage(pid);
}

void BufferPool::FlushAll() {
  for (int32_t frame = 0; frame < static_cast<int32_t>(frames_.size());
       ++frame) {
    Frame& f = frames_[frame];
    if (f.bytes == nullptr) continue;
    FAIRMATCH_CHECK(f.pin_count == 0);
    FlushFrame(f);
    LruRemove(frame);
    Erase(f.pid, frame);
    FreeFrame(frame);
  }
}

void BufferPool::set_capacity(size_t capacity_frames) {
  capacity_ = capacity_frames;
  EvictIfNeeded();
}

std::byte* BufferPool::MakeWritable(int32_t frame) {
  Frame& f = frames_[frame];
  FAIRMATCH_DCHECK(f.pin_count > 0);
  if (f.bytes != f.data->bytes) {
    std::memcpy(f.data->bytes, f.bytes, kPageSize);
    f.bytes = f.data->bytes;
  }
  f.dirty = true;
  return f.data->bytes;
}

void BufferPool::Unpin(int32_t frame) {
  Frame& f = frames_[frame];
  FAIRMATCH_CHECK(f.pin_count > 0);
  f.pin_count--;
  if (f.pin_count == 0) {
    LruPushBack(frame);
    EvictIfNeeded();
  }
}

void BufferPool::EvictLruHead() {
  const int32_t victim = lru_head_;
  LruRemove(victim);
  Frame& f = frames_[victim];
  FAIRMATCH_CHECK(f.pin_count == 0);
  FlushFrame(f);
  Erase(f.pid, victim);
  FreeFrame(victim);
}

void BufferPool::FlushFrame(Frame& frame) {
  if (frame.dirty) {
    FAIRMATCH_DCHECK(frame.bytes == frame.data->bytes);
    counters_->page_writes++;
    disk_->WritePage(frame.pid, frame.data->bytes);
    frame.dirty = false;
  }
}

}  // namespace fairmatch

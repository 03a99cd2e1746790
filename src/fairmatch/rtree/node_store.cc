#include "fairmatch/rtree/node_store.h"

#include <cmath>
#include <utility>

#include "fairmatch/common/check.h"

namespace fairmatch {

NodeHandle::NodeHandle(PageHandle page, int dims, bool writable)
    : page_(std::move(page)), dims_(dims), writable_(writable) {
  pid_ = page_.page_id();
  if (writable_) page_.mutable_bytes();  // copy-on-write, marks dirty
}

NodeHandle::NodeHandle(std::byte* bytes, PageId pid, int dims, bool writable)
    : bytes_(bytes), pid_(pid), dims_(dims), writable_(writable) {}

NodeHandle::NodeHandle(NodeHandle&& other) noexcept
    : page_(std::move(other.page_)),
      bytes_(other.bytes_),
      pid_(other.pid_),
      dims_(other.dims_),
      writable_(other.writable_) {
  other.bytes_ = nullptr;
  other.pid_ = kInvalidPage;
}

NodeHandle& NodeHandle::operator=(NodeHandle&& other) noexcept {
  if (this != &other) {
    page_ = std::move(other.page_);
    bytes_ = other.bytes_;
    pid_ = other.pid_;
    dims_ = other.dims_;
    writable_ = other.writable_;
    other.bytes_ = nullptr;
    other.pid_ = kInvalidPage;
  }
  return *this;
}

void NodeHandle::Release() {
  page_.Release();
  bytes_ = nullptr;
  pid_ = kInvalidPage;
}

PagedNodeStore::PagedNodeStore(int dims, size_t buffer_frames,
                               PerfCounters* counters)
    : NodeStore(dims),
      counters_(counters != nullptr ? counters : &own_counters_),
      pool_(&disk_, buffer_frames, counters_) {}

NodeHandle PagedNodeStore::Read(PageId pid) {
  NodeHandle handle(pool_.FetchPage(pid), dims(), /*writable=*/false);
  return GuardMalformed(std::move(handle), pid, /*writable=*/false);
}

NodeHandle PagedNodeStore::Write(PageId pid) {
  NodeHandle handle(pool_.FetchPage(pid), dims(), /*writable=*/true);
  return GuardMalformed(std::move(handle), pid, /*writable=*/true);
}

NodeHandle PagedNodeStore::GuardMalformed(NodeHandle handle, PageId pid,
                                          bool writable) {
  // Inside a sinked run, a header that cannot describe a node (count
  // past capacity, absurd level) is data loss — reading its entries
  // would run off the 4 KB page. Degrade to a stable zeroed node (an
  // empty leaf: every traversal terminates on it) and let the run
  // unwind at its next cancellation point. Without a sink the bytes
  // pass through untouched, as the seed did: trusted callers never see
  // malformed pages and pay nothing here beyond the header test.
  ErrorSink* sink = disk_.error_sink();
  if (sink == nullptr || handle.view().IsWellFormed()) return handle;
  sink->Report(ErrorCode::kDataLoss,
               "PagedNodeStore: malformed node header on page " +
                   std::to_string(pid));
  std::memset(zero_node_.bytes, 0, kPageSize);
  return NodeHandle(zero_node_.bytes, pid, dims(), writable);
}

PageId PagedNodeStore::Allocate() {
  PageHandle handle = pool_.NewPage();
  return handle.page_id();
}

void PagedNodeStore::Free(PageId pid) { pool_.DeletePage(pid); }

void PagedNodeStore::SetBufferFraction(double fraction) {
  auto frames = static_cast<size_t>(
      std::llround(fraction * static_cast<double>(disk_.num_pages())));
  pool_.set_capacity(frames);
}

void PagedNodeStore::ResetCounters() {
  pool_.FlushAll();
  counters_->Reset();
}

NodeHandle MemNodeStore::Read(PageId pid) {
  return NodeHandle(BytesOf(pid), pid, dims(), /*writable=*/false);
}

NodeHandle MemNodeStore::Write(PageId pid) {
  return NodeHandle(BytesOf(pid), pid, dims(), /*writable=*/true);
}

PageId MemNodeStore::Allocate() {
  if (!free_list_.empty()) {
    PageId pid = free_list_.back();
    free_list_.pop_back();
    pages_[pid] = std::make_unique<PageData>();
    std::memset(pages_[pid]->bytes, 0, kPageSize);
    return pid;
  }
  pages_.push_back(std::make_unique<PageData>());
  std::memset(pages_.back()->bytes, 0, kPageSize);
  return static_cast<PageId>(pages_.size() - 1);
}

void MemNodeStore::Free(PageId pid) {
  FAIRMATCH_CHECK(pid >= 0 && pid < num_pages() && pages_[pid] != nullptr);
  pages_[pid].reset();
  free_list_.push_back(pid);
}

void MemNodeStore::CopyFrom(const MemNodeStore& other) {
  FAIRMATCH_CHECK(dims() == other.dims());
  pages_.clear();
  pages_.reserve(other.pages_.size());
  for (const std::unique_ptr<PageData>& page : other.pages_) {
    if (page == nullptr) {
      pages_.push_back(nullptr);
      continue;
    }
    pages_.push_back(std::make_unique<PageData>());
    std::memcpy(pages_.back()->bytes, page->bytes, kPageSize);
  }
  free_list_ = other.free_list_;
}

void MemNodeStore::Adopt(MemNodeStore* donor) {
  FAIRMATCH_CHECK(dims() == donor->dims());
  pages_.swap(donor->pages_);
  free_list_.swap(donor->free_list_);
}

void MemNodeStore::RestoreInit(int64_t num_pages) {
  pages_.clear();
  free_list_.clear();
  pages_.resize(static_cast<size_t>(num_pages));
}

std::byte* MemNodeStore::RestorePage(PageId pid) {
  FAIRMATCH_CHECK(pid >= 0 && pid < num_pages() && pages_[pid] == nullptr);
  pages_[pid] = std::make_unique<PageData>();
  std::memset(pages_[pid]->bytes, 0, kPageSize);
  return pages_[pid]->bytes;
}

void MemNodeStore::RestoreFreeList(std::vector<PageId> order) {
  free_list_ = std::move(order);
}

std::byte* MemNodeStore::BytesOf(PageId pid) {
  FAIRMATCH_CHECK(pid >= 0 && pid < num_pages() && pages_[pid] != nullptr);
  return pages_[pid]->bytes;
}

}  // namespace fairmatch

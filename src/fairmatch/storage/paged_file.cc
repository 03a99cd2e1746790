#include "fairmatch/storage/paged_file.h"

#include <algorithm>
#include <cstring>

#include "fairmatch/common/check.h"

namespace fairmatch {

PagedFile::PagedFile(BufferPool* pool, int record_size)
    : pool_(pool), record_size_(record_size) {
  FAIRMATCH_CHECK(record_size_ > 0 && record_size_ <= kPageSize);
  records_per_page_ = kPageSize / record_size_;
}

void PagedFile::Append(const void* record) {
  FAIRMATCH_CHECK(!sealed_);
  if (tail_count_ == 0 || tail_count_ == records_per_page_) {
    tail_ = pool_->NewPage();
    pages_.push_back(tail_.page_id());
    tail_count_ = 0;
  }
  std::memcpy(tail_.mutable_bytes() + tail_count_ * record_size_, record,
              record_size_);
  tail_count_++;
  num_records_++;
}

void PagedFile::Seal() {
  FAIRMATCH_CHECK(!sealed_);
  tail_.Release();
  sealed_ = true;
  pool_->FlushAll();
}

void PagedFile::Read(int64_t index, void* dst) const {
  FAIRMATCH_CHECK(sealed_);
  if (index < 0 || index >= num_records_) {
    // Indices can be data-derived (a position read from a page that
    // was corrupt); inside a sinked run that is data loss, not a
    // programmer error. Hand back a zeroed record — every record type
    // above parses zeros safely — and let the run unwind.
    if (ErrorSink* sink = pool_->disk()->error_sink()) {
      sink->Report(ErrorCode::kDataLoss,
                   "PagedFile::Read: record index " + std::to_string(index) +
                       " out of range [0, " + std::to_string(num_records_) +
                       ")");
      std::memset(dst, 0, static_cast<size_t>(record_size_));
      return;
    }
    FAIRMATCH_CHECK(index >= 0 && index < num_records_);
  }
  int64_t page_index = index / records_per_page_;
  int slot = static_cast<int>(index % records_per_page_);
  PageHandle handle = pool_->FetchPage(pages_[page_index]);
  std::memcpy(dst, handle.bytes() + slot * record_size_, record_size_);
}

int PagedFile::ReadPage(int64_t page_index, void* dst) const {
  FAIRMATCH_CHECK(sealed_);
  FAIRMATCH_CHECK(page_index >= 0 && page_index < num_pages());
  int64_t first = page_index * records_per_page_;
  int count = static_cast<int>(
      std::min<int64_t>(records_per_page_, num_records_ - first));
  PageHandle handle = pool_->FetchPage(pages_[page_index]);
  std::memcpy(dst, handle.bytes(), static_cast<size_t>(count) * record_size_);
  return count;
}

}  // namespace fairmatch

// Fixed-size-record array stored on the simulated disk.
//
// Used for the disk-resident function representations of Section 7.6:
// per-dimension sorted coefficient lists and the function coefficient
// table. Records never span pages.
#ifndef FAIRMATCH_STORAGE_PAGED_FILE_H_
#define FAIRMATCH_STORAGE_PAGED_FILE_H_

#include <cstdint>
#include <vector>

#include "fairmatch/storage/buffer_pool.h"

namespace fairmatch {

/// An immutable-after-build array of `record_size`-byte records packed
/// into pages. Reads are counted through the owning buffer pool.
class PagedFile {
 public:
  /// `record_size` must be in (0, kPageSize].
  PagedFile(BufferPool* pool, int record_size);

  /// Appends a record during the build phase.
  void Append(const void* record);

  /// Finishes the build phase and flushes pages to disk.
  void Seal();

  /// Reads record `index` into `dst` (counted I/O via buffer pool).
  void Read(int64_t index, void* dst) const;

  /// Sequential reader support: reads all records in page `page_index`
  /// (0-based within this file) appending them to `dst`.
  /// Returns the number of records read.
  int ReadPage(int64_t page_index, void* dst) const;

  int64_t num_records() const { return num_records_; }
  int64_t num_pages() const { return static_cast<int64_t>(pages_.size()); }
  int records_per_page() const { return records_per_page_; }

 private:
  BufferPool* pool_;
  int record_size_;
  int records_per_page_;
  int64_t num_records_ = 0;
  std::vector<PageId> pages_;
  bool sealed_ = false;
  // Build-phase tail page handle.
  PageHandle tail_;
  int tail_count_ = 0;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_STORAGE_PAGED_FILE_H_

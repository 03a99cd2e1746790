// Simulated disk: a collection of 4 KB pages held in memory.
//
// The paper's experiments measure I/O as *counted page accesses* against
// an R-tree with 4 KB pages behind an LRU buffer. We therefore simulate
// the disk in-process: pages are real byte blocks (data structures
// serialize into them), and every physical read/write is counted by the
// buffer pool that owns this disk. See DESIGN.md "Substitutions".
//
// Reads are views. Because the pages already live in memory, a clean
// read hands out the page's own bytes instead of a copy: ReadPage
// returns the bytes the caller should use, and only writes into the
// caller's scratch buffer when the bytes must differ from what the disk
// holds (an attached FaultInjector may corrupt or fail the transfer, a
// checksum mismatch zero-fills it). A view stays valid until the page
// is freed (FreePage) or the manager is Recycle()d or destroyed, and it
// sees every later WritePage to that page. BufferPool frames keep such
// views for exactly as long as a page is resident, which is why
// BufferPool::DeletePage drops the frame before FreePage and why every
// pool must die before its disk's Recycle() (serve/server.cc orders it
// so). Nobody may write through a view; the pool copies first.
//
// Fault surface: this is the single origin of typed storage errors for
// the layers above. A FaultInjector (storage/fault_injector.h) can be
// attached to fail/corrupt/delay accesses on a seeded schedule, and
// set_verify_checksums(true) maintains a per-page CRC32 side table so a
// corrupted read is *detected* (kDataLoss) instead of silently
// consumed. Failures never abort: ReadPage hands back a zero-filled
// scratch page (a zeroed page parses as an empty node / empty record
// run everywhere above), reports to the attached ErrorSink, and returns
// a Status the buffer pool may also inspect. Injected faults act on the
// scratch copy only, so the stored page is never altered by a read.
// With no injector and checksums off (the default), counted behavior is
// byte-identical to the plain byte store the parity suite pins.
//
// CHECK vs Status: liveness violations on ids that only a programming
// error can produce (double FreePage, a WritePage past the allocation
// frontier) still abort — with page-id/live-count diagnostics. Reads of
// data-*derived* ids are the caller's job to guard: BufferPool checks
// IsLive() first and degrades a bad id to kDataLoss.
#ifndef FAIRMATCH_STORAGE_DISK_MANAGER_H_
#define FAIRMATCH_STORAGE_DISK_MANAGER_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <vector>

#include "fairmatch/common/check.h"
#include "fairmatch/common/status.h"
#include "fairmatch/common/types.h"

namespace fairmatch {

class FaultInjector;

/// Raw content of one disk page.
struct PageData {
  std::byte bytes[kPageSize];
};

/// Outcome of DiskManager::ReadPage: the bytes to use and what
/// happened. `bytes` is either the stored page itself (a view, see the
/// file comment) or the caller's scratch buffer; it is never null.
struct PageRead {
  const std::byte* bytes = nullptr;
  Status status;
};

/// Allocates, frees and transfers fixed-size pages.
///
/// Not thread-safe: one DiskManager (like the buffer pool above it)
/// belongs to exactly one execution lane. The serving core
/// (serve/server.h) gives every lane its own disk instead of locking
/// this one.
class DiskManager {
 public:
  DiskManager() = default;

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Allocates a zeroed page and returns its id. Reuses freed pages.
  PageId AllocatePage();

  /// Returns a page to the free list. The page id may be recycled.
  /// Aborts (with diagnostics) on a double free or an out-of-range id:
  /// frees are never data-derived.
  void FreePage(PageId pid);

  /// Parks every page buffer in an internal spare pool and resets the
  /// manager to its freshly constructed state: ids restart at zero and
  /// reallocated pages come back zeroed, so a recycled manager is
  /// observably identical to a new one — only the 4 KB allocations are
  /// saved. This is how Server lanes reuse one disk across consecutive
  /// requests (serve/server.h) without touching the per-request
  /// determinism contract. Fault wiring (injector, sink, checksums) is
  /// also cleared: faults are per-run state.
  void Recycle();

  /// Buffers parked by Recycle() and not yet handed back out.
  size_t spare_pages() const { return spare_.size(); }

  /// Reads page `pid`. With no injector attached the result is a view
  /// of the stored page and `scratch` is untouched (with checksums on,
  /// the CRC is verified over the stored bytes). With an injector the
  /// page is copied into `scratch` (kPageSize bytes) and the injector
  /// acts on that copy. On a fault (injected read failure, checksum
  /// mismatch) the result is `scratch` zero-filled — structurally safe
  /// for every consumer above — the error is reported to the attached
  /// sink, and the status says what happened. Aborts on a non-live
  /// `pid`: data-derived ids must be guarded with IsLive() by the
  /// caller (BufferPool does).
  PageRead ReadPage(PageId pid, std::byte* scratch) const;

  /// Copies `src` (kPageSize bytes) into the page. On an injected
  /// write failure the page keeps its previous content. Aborts on a
  /// non-live `pid`.
  Status WritePage(PageId pid, const std::byte* src);

  /// True when `pid` names a live (allocated, not freed) page. Public
  /// so callers handing over *data-derived* ids (a child pointer
  /// decoded from a page that may have been corrupt) can degrade an
  /// invalid id to a typed error instead of hitting the CHECK inside
  /// ReadPage.
  bool IsLive(PageId pid) const {
    return pid >= 0 && pid < num_pages() && pages_[pid] != nullptr;
  }

  /// Attaches (or detaches, nullptr) a fault injector consulted on
  /// every physical access. Not owned; per-run state (cleared by
  /// Recycle()).
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_ = injector;
  }
  FaultInjector* fault_injector() const { return fault_injector_; }

  /// Attaches (or detaches, nullptr) the sink that receives every
  /// fault as a typed error. Not owned; per-run state (cleared by
  /// Recycle()).
  void set_error_sink(ErrorSink* sink) { error_sink_ = sink; }
  bool has_error_sink() const { return error_sink_ != nullptr; }
  /// The attached sink (nullptr when detached). Layers above use it to
  /// report their own decode-level data loss (bad record index,
  /// malformed node) with precise messages.
  ErrorSink* error_sink() const { return error_sink_; }

  /// Maintains a CRC32 per page (computed on write/allocate, verified
  /// on read) so corrupted reads surface as kDataLoss. Off by default:
  /// the paper benches run the disk as a trusted byte store and the
  /// parity suite pins that happy path. Enabling mid-life checksums
  /// the currently live pages.
  void set_verify_checksums(bool on);
  bool verify_checksums() const { return verify_checksums_; }

  /// Reports a data-derived reference to a non-live page as kDataLoss
  /// to the attached sink (no-op on the page store itself). Callers
  /// use this right after an IsLive() guard fails.
  void ReportBadPageRef(PageId pid, const char* origin) const;

  /// Number of pages ever allocated (capacity of the simulated file,
  /// including freed pages). Used to size buffers as a % of the file.
  int64_t num_pages() const { return static_cast<int64_t>(pages_.size()); }

  /// Number of currently live (allocated, not freed) pages.
  int64_t num_live_pages() const {
    return num_pages() - static_cast<int64_t>(free_list_.size());
  }

  /// File size in bytes.
  int64_t size_bytes() const { return num_pages() * kPageSize; }

 private:
  /// Aborts with page-id/live-count diagnostics when `pid` is not
  /// live. `op` names the caller in the message.
  void CheckLive(PageId pid, const char* op) const;

  /// A zero-filled page buffer: from the spare pool when available.
  std::unique_ptr<PageData> TakePage();

  std::vector<std::unique_ptr<PageData>> pages_;
  std::vector<PageId> free_list_;
  std::vector<std::unique_ptr<PageData>> spare_;  // parked by Recycle()
  std::vector<uint32_t> crcs_;  // per-page CRC32; maintained when verifying
  bool verify_checksums_ = false;
  FaultInjector* fault_injector_ = nullptr;
  ErrorSink* error_sink_ = nullptr;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_STORAGE_DISK_MANAGER_H_

// Read-only memory mapping of a file, with a portable fallback.
//
// The packed function-list format (topk/packed_function_lists.h) is an
// immutable byte image: build once, then query in place. MmapFile is
// the thin OS seam that turns a file of that image into a stable byte
// range — mmap(2) on POSIX systems (the kernel pages the image in and
// out; nothing is copied up front), or a plain read into an owned
// buffer elsewhere. Callers never branch on which path was taken: they
// get (data, size) either way, and `mapped()` only informs diagnostics
// and bench row labels.
//
// Unlike storage/disk_manager.h, this is a REAL file on the host
// filesystem, not the simulated counted-I/O disk: the packed store's
// probes are memory reads by design, which is exactly the property the
// scale bench measures against DiskFunctionStore's counted pages.
//
// Robustness notes:
//  * A mapped range is only as stable as the file behind it — if
//    another process truncates the file, touching pages past the new
//    end raises SIGBUS. SizeIntact() re-stats the file so callers can
//    detect the shrink as typed data loss before dereferencing.
//  * Load() is the always-available owned-copy path (the same code the
//    non-POSIX fallback uses): it trades the zero-copy property for
//    immunity to concurrent file mutation.
//  * Map()/Load() accept an optional FaultInjector whose OnMap stream
//    can deterministically refuse the attach (chaos testing).
#ifndef FAIRMATCH_STORAGE_MMAP_FILE_H_
#define FAIRMATCH_STORAGE_MMAP_FILE_H_

#include <cstddef>
#include <string>
#include <utility>

namespace fairmatch {

class FaultInjector;

/// A read-only byte range backed by a mapped (or loaded) file.
class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile() { Reset(); }

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  MmapFile(MmapFile&& other) noexcept { MoveFrom(&other); }
  MmapFile& operator=(MmapFile&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(&other);
    }
    return *this;
  }

  /// Maps (POSIX) or loads `path` read-only. On failure returns false
  /// and, when `error` is non-null, stores a one-line reason. Any
  /// previous mapping is released first. When `injector` is non-null
  /// its OnMap stream may deterministically refuse the attach.
  bool Map(const std::string& path, std::string* error = nullptr,
           FaultInjector* injector = nullptr);

  /// Reads `path` into an owned buffer (never an OS mapping) — immune
  /// to the file being truncated or rewritten afterwards. Same failure
  /// contract as Map().
  bool Load(const std::string& path, std::string* error = nullptr,
            FaultInjector* injector = nullptr);

  /// Releases the mapping / buffer.
  void Reset();

  const std::byte* data() const { return data_; }
  size_t size() const { return size_; }
  bool valid() const { return data_ != nullptr; }
  /// True when the range is an OS mapping rather than an owned copy.
  bool mapped() const { return mapped_; }
  /// Path this range was attached from (empty when not valid()).
  const std::string& path() const { return path_; }

  /// True when the backing file is still exactly the one attached. Only
  /// an OS mapping can change under the range (an owned copy is always
  /// intact); a false return means the bytes are no longer trustworthy —
  /// a shrink can SIGBUS on tail pages, a grown or rewritten file means
  /// some other writer mutated the image — and the caller should treat
  /// the range as data loss. Checks, in order: the file still stats,
  /// its size matches the attached size (shrink AND growth both fail),
  /// and its mtime is unchanged since attach (catches a same-size
  /// external rewrite). When `detail` is non-null it receives which
  /// check failed, suitable for a typed status message.
  bool SizeIntact(std::string* detail = nullptr) const;

  /// Writes `size` bytes to `path` via a temp file + atomic rename: a
  /// crash mid-write leaves either the old file or the new one, never a
  /// torn hybrid. The bytes are not fsynced: the images written here
  /// are rebuildable (the recovery path's durable writes go through
  /// storage/durable_file.h). Returns false and fills `error` on
  /// failure.
  static bool Write(const std::string& path, const void* bytes, size_t size,
                    std::string* error = nullptr);

 private:
  void MoveFrom(MmapFile* other) {
    data_ = other->data_;
    size_ = other->size_;
    mapped_ = other->mapped_;
    path_ = std::move(other->path_);
    attach_mtime_ns_ = other->attach_mtime_ns_;
    other->data_ = nullptr;
    other->size_ = 0;
    other->mapped_ = false;
    other->path_.clear();
    other->attach_mtime_ns_ = 0;
  }

  std::byte* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  std::string path_;
  /// Backing file mtime (ns) at attach time; SizeIntact() re-stats and
  /// compares to catch same-size external rewrites.
  uint64_t attach_mtime_ns_ = 0;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_STORAGE_MMAP_FILE_H_

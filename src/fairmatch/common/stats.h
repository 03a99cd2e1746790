// Performance counters and memory tracking for the experimental harness.
//
// The paper evaluates algorithms on three axes: I/O accesses (counted
// page reads/writes through the buffer pool), CPU time, and the maximum
// memory consumed by search structures (priority queues, pruned lists,
// TA states). PerfCounters collects the first axis; MemoryTracker the
// third. CPU time is measured by the bench harness with a steady clock.
#ifndef FAIRMATCH_COMMON_STATS_H_
#define FAIRMATCH_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace fairmatch {

/// Counters for simulated-disk traffic. One instance is shared by the
/// disk manager / buffer pool of each storage entity (object R-tree,
/// disk-resident function lists, ...).
struct PerfCounters {
  /// Physical page reads (buffer misses).
  int64_t page_reads = 0;
  /// Physical page writes (dirty evictions / flushes).
  int64_t page_writes = 0;
  /// Logical accesses satisfied by the buffer pool.
  int64_t buffer_hits = 0;
  /// Logical accesses total (hits + misses).
  int64_t logical_reads = 0;

  /// Total I/O accesses, the paper's headline metric.
  int64_t io_accesses() const { return page_reads + page_writes; }

  void Reset() { *this = PerfCounters(); }

  /// Human-readable one-liner for logs.
  std::string ToString() const;
};

/// Tracks the current and peak number of bytes held by an algorithm's
/// search structures. Algorithms report gross structure sizes at loop
/// boundaries via Set(); transient allocations inside one loop are
/// approximated by their peak via Add where convenient.
class MemoryTracker {
 public:
  /// Replaces the current usage estimate with `bytes`.
  void Set(size_t bytes) {
    current_ = bytes;
    if (current_ > peak_) peak_ = current_;
  }

  /// Adds `bytes` to the current estimate.
  void Add(size_t bytes) { Set(current_ + bytes); }

  size_t current() const { return current_; }
  size_t peak() const { return peak_; }

  void Reset() {
    current_ = 0;
    peak_ = 0;
  }

 private:
  size_t current_ = 0;
  size_t peak_ = 0;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_COMMON_STATS_H_

// Unified per-run instrumentation for the matcher engine.
//
// The paper evaluates every algorithm along the same three axes — I/O
// accesses, CPU time, and peak memory held by search structures — but
// the seed code plumbed each axis separately: every storage entity owned
// a private PerfCounters, every algorithm a private MemoryTracker and
// Timer, and callers stitched the numbers together by hand (summing a
// store's counters with I/O smuggled through RunStats::io_accesses).
//
// ExecContext replaces that with one instrumentation object per run.
// Storage backends (PagedNodeStore, DiskFunctionStore, an algorithm's
// private disk structures) are constructed against the context's
// PerfCounters so all simulated-disk traffic lands in one place;
// algorithms report structure sizes to the context's MemoryTracker; the
// wall clock runs from BeginRun() to Finish(). Finish() then produces a
// fully populated RunStats the same way for every matcher.
#ifndef FAIRMATCH_ENGINE_EXEC_CONTEXT_H_
#define FAIRMATCH_ENGINE_EXEC_CONTEXT_H_

#include <chrono>
#include <string>

#include "fairmatch/assign/problem.h"
#include "fairmatch/common/stats.h"
#include "fairmatch/common/status.h"
#include "fairmatch/common/timer.h"

namespace fairmatch {

/// One run's worth of instrumentation: shared I/O counters, a shared
/// memory tracker, and the run wall clock. Create one per measured run
/// (the object is cheap); pass it to every storage object and matcher
/// participating in the run.
///
/// "Shared" means shared among the storage objects of ONE run, not
/// among threads: counter increments are plain loads/stores, and every
/// member is touched only by the thread that runs the matcher. Server
/// lanes keep one ExecContext per request (never per lane), which is
/// also what makes each request's counters deterministic — see
/// serve/server.h. A run may borrow helper threads for
/// intra-run fan-out (parallel(), below); helpers touch no ExecContext
/// member — no counters, no memory tracker, no error sink — so all of
/// the above stays single-threaded.
class ExecContext {
 public:
  ExecContext() = default;

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Shared simulated-disk counters. Storage objects constructed with
  /// `&counters()` contribute their traffic here.
  PerfCounters& counters() { return counters_; }
  const PerfCounters& counters() const { return counters_; }

  /// Shared search-structure memory tracker.
  MemoryTracker& memory() { return memory_; }
  const MemoryTracker& memory() const { return memory_; }

  /// Sticky first-error collector for the run. Storage objects report
  /// typed faults here (DiskManager::set_error_sink wires the bottom of
  /// the stack to it); matchers poll ShouldAbort() at their outer loops
  /// and unwind with a partial result when it trips.
  ErrorSink& errors() { return errors_; }
  const ErrorSink& errors() const { return errors_; }

  /// The run's first error (OK while healthy). AdapterMatcher copies
  /// this into AssignResult::status after the run.
  const Status& status() const { return errors_.status(); }

  /// Arms a wall-clock deadline. Once it passes, ShouldAbort() reports
  /// kDeadlineExceeded to the sink (once) and starts returning true.
  /// Unset by default: direct runs and benches never pay the clock
  /// reads.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    deadline_armed_ = true;
  }

  /// Cancellation point, polled at matcher outer loops. Near-free on
  /// the happy path (two loads); reads the clock only when a deadline
  /// is armed.
  bool ShouldAbort() {
    if (errors_.failed()) return true;
    if (deadline_armed_ && std::chrono::steady_clock::now() >= deadline_) {
      errors_.Report(ErrorCode::kDeadlineExceeded,
                     "run deadline expired after " +
                         std::to_string(timer_.ElapsedMs()) + " ms");
      return true;
    }
    return false;
  }

  /// Whether the run may fan work out over the process-wide helper pool
  /// (ThreadPool::Shared): SB runs each loop's reverse top-1 searches
  /// there. On by default. Callers that already spread their own work
  /// over the cores — Server lanes and the paper figures, which time
  /// SB against sequential baselines — switch it off. Results and every
  /// deterministic counter are identical either way.
  void set_parallel(bool parallel) { parallel_ = parallel; }
  bool parallel() const { return parallel_; }

  /// Restarts the wall clock and zeroes the memory tracker. Does NOT
  /// reset counters(): storage objects own their measured-phase resets
  /// (e.g. PagedNodeStore::ResetCounters after bulk load), and a fresh
  /// context starts at zero anyway.
  void BeginRun() {
    timer_.Restart();
    memory_.Reset();
  }

  double ElapsedMs() const { return timer_.ElapsedMs(); }

  /// Fills `stats` the uniform way: wall-clock CPU time since
  /// BeginRun(), total I/O from the shared counters, and the larger of
  /// the shared tracker's peak and whatever the algorithm already
  /// reported (algorithms without context threading keep their own
  /// number).
  void Finish(RunStats* stats) const {
    stats->cpu_ms = timer_.ElapsedMs();
    stats->io_accesses = counters_.io_accesses();
    if (memory_.peak() > stats->peak_memory_bytes) {
      stats->peak_memory_bytes = memory_.peak();
    }
  }

 private:
  PerfCounters counters_;
  MemoryTracker memory_;
  Timer timer_;
  ErrorSink errors_;
  std::chrono::steady_clock::time_point deadline_;
  bool deadline_armed_ = false;
  bool parallel_ = true;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_ENGINE_EXEC_CONTEXT_H_

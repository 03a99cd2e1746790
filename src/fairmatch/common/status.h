// Recoverable, typed error propagation, from the storage layer up to
// the serving layer's responses.
//
// The library's CHECK macros (common/check.h) stay the answer for
// programmer error: a violated invariant aborts. Data-dependent
// failures — a page that fails to read, a checksum mismatch, a deadline
// that expired — are a different category: under a long-lived server
// they must abort ONE request, never the process. Status is the typed
// carrier for that category, and ErrorSink is how it travels.
//
// Threading a Status return through every storage accessor would churn
// dozens of hot signatures (and cost happy-path branches the perf
// parity suite forbids). Instead the stack uses a *sticky sink*: the
// ExecContext of a run owns an ErrorSink, the DiskManager at the bottom
// of the storage stack is pointed at it (set_error_sink), and every
// fault lands there as the run's first error. Read paths degrade to
// zero-filled pages (structurally safe: a zeroed page parses as an
// empty node / empty record list), matchers poll
// ExecContext::ShouldAbort() at their outer loops, and the adapter
// copies the sink's status into AssignResult::status. The happy path
// pays one null-pointer test per physical access and one bool test per
// outer loop.
#ifndef FAIRMATCH_COMMON_STATUS_H_
#define FAIRMATCH_COMMON_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>

namespace fairmatch {

/// Failure classes of a run or a request, canonical-status style.
/// Everything here is recoverable at the request boundary; none of
/// these abort. The one vocabulary for the whole stack: storage and the
/// engine report into an ErrorSink, and the serving, update and
/// recovery layers return the same Status to their clients unchanged.
///
/// The numeric values are part of the contract: the fault_recovery
/// bench figure digests them into its deterministic `loops` column, so
/// do not renumber.
enum class ErrorCode {
  kOk = 0,
  /// An unknown dataset, matcher or file.
  kNotFound = 1,
  /// The request contradicts itself or the matcher's contract (e.g. a
  /// buffer fraction outside [0, 1]).
  kInvalidArgument = 2,
  /// The caller violated a stateful contract (e.g. Matcher::Run()
  /// invoked twice on one instance, or a *-Packed matcher against a
  /// dataset opened without a packed image). Retrying the same call
  /// cannot succeed; the caller must rebuild the violated state.
  kFailedPrecondition = 3,
  /// Admission control rejected the request: the bounded queue is full
  /// or the in-flight cap is reached. Retry later.
  kOverloaded = 4,
  /// A transient storage failure (an injected or real read/write
  /// error), or a server that is draining or shedding a dataset's load.
  /// Retrying the whole run is the expected recovery.
  kUnavailable = 5,
  /// The deadline expired before the run completed (while queued, or
  /// mid-run at an engine cancellation point).
  kDeadlineExceeded = 6,
  /// A page or record was lost or failed verification (read returned a
  /// checksum mismatch, a decoded id was out of range, a node was
  /// malformed). Retrying may help only if the damage was in transfer.
  kDataLoss = 7,
};

/// Stable identifier for logs/tests ("OK", "DATA_LOSS", ...).
inline const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "OK";
    case ErrorCode::kNotFound:
      return "NOT_FOUND";
    case ErrorCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case ErrorCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case ErrorCode::kOverloaded:
      return "OVERLOADED";
    case ErrorCode::kUnavailable:
      return "UNAVAILABLE";
    case ErrorCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case ErrorCode::kDataLoss:
      return "DATA_LOSS";
  }
  return "UNKNOWN";
}

/// Error code + human-readable detail. Default-constructed is OK.
struct Status {
  ErrorCode code = ErrorCode::kOk;
  std::string message;

  bool ok() const { return code == ErrorCode::kOk; }

  static Status Ok() { return {}; }
  static Status NotFound(std::string message) {
    return {ErrorCode::kNotFound, std::move(message)};
  }
  static Status InvalidArgument(std::string message) {
    return {ErrorCode::kInvalidArgument, std::move(message)};
  }
  static Status FailedPrecondition(std::string message) {
    return {ErrorCode::kFailedPrecondition, std::move(message)};
  }
  static Status Overloaded(std::string message) {
    return {ErrorCode::kOverloaded, std::move(message)};
  }
  static Status Unavailable(std::string message) {
    return {ErrorCode::kUnavailable, std::move(message)};
  }
  static Status DeadlineExceeded(std::string message) {
    return {ErrorCode::kDeadlineExceeded, std::move(message)};
  }
  static Status DataLoss(std::string message) {
    return {ErrorCode::kDataLoss, std::move(message)};
  }
};

/// Sticky first-error collector for one run. Not thread-safe: a sink
/// belongs to one ExecContext, which belongs to one lane (the same
/// single-lane rule as PerfCounters).
///
/// The FIRST reported error wins (it is the root cause; later errors
/// are usually knock-on effects of the zero-filled pages the storage
/// layer hands out after the first fault). All reports are counted.
class ErrorSink {
 public:
  ErrorSink() = default;

  ErrorSink(const ErrorSink&) = delete;
  ErrorSink& operator=(const ErrorSink&) = delete;

  /// Records an error. Keeps only the first; counts all.
  void Report(ErrorCode code, std::string message) {
    ++reports_;
    if (status_.ok()) {
      status_.code = code;
      status_.message = std::move(message);
    }
  }

  /// True once any error was reported. This is the single load matchers
  /// poll at their cancellation points.
  bool failed() const { return reports_ != 0; }

  /// The first reported error (OK when failed() is false).
  const Status& status() const { return status_; }

  /// Total errors reported, including suppressed knock-on ones.
  int64_t reports() const { return reports_; }

  void Reset() {
    status_ = Status();
    reports_ = 0;
  }

 private:
  Status status_;
  int64_t reports_ = 0;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_COMMON_STATUS_H_

// fairmatchd: a long-lived, in-process matching service core, and the
// one path that runs matchers concurrently.
//
// Warm, immutable index sets (serve/dataset_registry.h) stay resident
// while many concurrent clients submit Requests — {dataset, matcher,
// options} — and get Responses — {matching, RunStats, queue/latency
// timings, typed status} — back. No network is involved: this is the
// engine-side core the way DBImpl is a database without a wire
// protocol; a transport would sit on top.
//
// Execution model: `lanes` worker threads drain one bounded FIFO
// admission queue. Each request runs with its own ExecContext and
// whatever per-request structures its matcher needs (a packed-image
// view, a disk-resident function store on the lane's recycled
// DiskManager, a private tree for tree-mutating matchers); everything
// else — problem, object tree, packed image — is shared const-clean
// across lanes. The result contract follows from that isolation: a
// response is byte-identical (matching, io_accesses, pairs, loops) to
// a direct Matcher::Run() on the same inputs, at any lane count and
// under any interleaving (tests/serve_test.cc).
//
// Concurrency contract: the layers underneath are NOT internally
// synchronized (the LRU buffer pools mutate on every read — see
// storage/buffer_pool.h); isolation, not locking, is what makes lanes
// safe. Concurrent runs must not share mutable state: no shared tree
// over a PagedNodeStore, no shared DiskFunctionStore, no shared
// ExecContext. Immutable inputs (the AssignmentProblem, a tree over a
// MemNodeStore that no matcher mutates, a packed image read through
// per-request views) may be shared; see the per-layer notes in
// rtree/node_store.h.
//
// Admission control: Submit() never blocks. A request is either
// accepted (future completes when a lane finishes it) or rejected
// immediately with a typed status — kOverloaded when the queue is full
// or the in-flight cap is reached, kUnavailable after Close() started
// or while a dataset is shedding load (see health below),
// kNotFound / kFailedPrecondition / kInvalidArgument for bad requests.
// Invalid input is never allowed to reach an engine CHECK: one bad
// request cannot take down the service.
//
// Deadlines: Request::deadline_ms bounds end-to-end latency from
// Submit(). It is enforced twice — at dequeue (a request that already
// overstayed its deadline in the queue is failed without running) and
// mid-run (the ExecContext deadline trips at the matcher's next
// cancellation point). Either way the response is kDeadlineExceeded.
//
// Fault recovery: when ServerOptions::fault_plan is active, every
// attempt of every request runs against a FaultInjector seeded from
// (plan seed, request id, attempt) on the lane's disk, with
// per-page CRC verification on. Storage faults surface as typed
// engine statuses (common/status.h), never a crash. Transient failures
// (kUnavailable, kDataLoss) are retried up to max_attempts with a
// fixed backoff; each attempt is a fresh isolated run on a recycled
// lane disk, so a successful retry is byte-identical to a fault-free
// run (tests/chaos_test.cc holds it to that). Because the schedule
// depends only on (request id, attempt), fault and retry counts are
// invariant under lane count and completion order.
//
// Health: after `health_threshold` consecutive requests against one
// dataset end in data loss, the server sheds further load on that
// dataset (Submit rejects with kUnavailable) until a success or
// ResetHealth() clears it — a persistently corrupt dataset degrades to
// fast typed rejections instead of burning lanes on doomed retries.
//
// Shutdown: Close() stops admitting, drains every accepted request,
// then joins the lanes. Destruction closes.
#ifndef FAIRMATCH_SERVE_SERVER_H_
#define FAIRMATCH_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fairmatch/assign/problem.h"
#include "fairmatch/serve/dataset_registry.h"
#include "fairmatch/serve/status.h"
#include "fairmatch/storage/disk_manager.h"
#include "fairmatch/storage/fault_injector.h"

namespace fairmatch {
struct MatcherInfo;
}

namespace fairmatch::serve {

/// Server construction knobs.
struct ServerOptions {
  /// Worker lanes draining the admission queue (clamped to >= 1).
  int lanes = 2;

  /// Admission bound: requests queued (accepted, not yet running).
  /// A Submit() that would exceed it is rejected with kOverloaded.
  size_t max_queue = 64;

  /// Cap on accepted-but-unfinished requests (queued + running).
  /// 0 = max_queue + lanes (the natural capacity).
  size_t max_inflight = 0;

  /// Execution attempts per request (clamped to >= 1). Attempts beyond
  /// the first fire only on transient failures (kUnavailable,
  /// kDataLoss); kDeadlineExceeded is terminal.
  int max_attempts = 1;

  /// Fixed sleep between attempts, milliseconds.
  double retry_backoff_ms = 0.0;

  /// Consecutive final data-loss failures against one dataset before
  /// the server sheds further load on it (0 = never shed).
  int health_threshold = 0;

  /// Deterministic storage-fault schedule applied to every attempt's
  /// lane disk (chaos testing / the fault_recovery bench).
  /// Inactive (all-zero rates) by default: no injector is attached and
  /// per-page CRC verification stays off.
  FaultInjectorOptions fault_plan;
};

/// One client request against a resident dataset.
struct Request {
  /// Name of a dataset opened in the server's DatasetRegistry.
  std::string dataset;

  /// Name of a registered matcher (engine/registry.h). Tree-mutating
  /// matchers (Chain) are served on a per-request private tree; the
  /// shared resident tree is never mutated.
  std::string matcher;

  /// Run the Section 7.6 disk-resident-F setting: a per-request
  /// DiskFunctionStore built on the lane's recycled disk (counted
  /// I/O). Matchers whose info requires it get one regardless.
  bool disk_resident_functions = false;

  /// Buffer fraction for per-request disk structures.
  double buffer_fraction = 0.02;

  /// End-to-end deadline from Submit(), milliseconds. 0 = none.
  /// Enforced at dequeue and at engine cancellation points; an expired
  /// request completes with kDeadlineExceeded.
  double deadline_ms = 0.0;
};

/// What the client gets back. On a non-OK status, matching/stats are
/// empty and only the timings are meaningful.
struct Response {
  ServeStatus status;
  Matching matching;
  RunStats stats;

  /// Milliseconds spent queued before a lane picked the request up.
  double queue_ms = 0.0;
  /// Milliseconds of lane execution (env assembly + Matcher::Run).
  double exec_ms = 0.0;
  /// End-to-end milliseconds from Submit() to completion.
  double total_ms = 0.0;

  /// Server-assigned id, increasing in admission order.
  uint64_t request_id = 0;

  /// Execution attempts made (0 when the request never ran: rejected
  /// at Submit, or expired while queued).
  int attempts = 0;

  /// Result-affecting storage faults injected across all attempts
  /// (deterministic for a given fault plan + request id).
  int64_t injected_faults = 0;
};

/// Handle to an in-flight (or already-failed) request. Cheap to copy;
/// all copies share the same response.
class ResponseFuture {
 public:
  ResponseFuture() = default;

  /// False for a default-constructed handle.
  bool valid() const { return state_ != nullptr; }

  /// True once the response is ready (never blocks).
  bool done() const;

  /// Blocks until the response is ready, then returns it. The
  /// reference stays valid as long as any copy of this future lives.
  const Response& Wait() const;

 private:
  friend class Server;
  struct State;
  explicit ResponseFuture(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// Monotonic admission/completion counters (snapshot).
struct ServerCounters {
  int64_t accepted = 0;
  int64_t rejected = 0;
  int64_t completed = 0;
  /// Re-run attempts after a transient failure (attempt 2 and up).
  int64_t retries = 0;
  /// Requests that completed with kDeadlineExceeded.
  int64_t deadline_exceeded = 0;
  /// Requests that completed with kDataLoss (after retries).
  int64_t data_loss = 0;
  /// Submits rejected because the dataset was shedding load.
  int64_t shed = 0;
};

/// The serving core. Thread-safe: any number of threads may Submit()
/// concurrently; Close() may race with submissions.
class Server {
 public:
  /// Serves datasets resident in `registry` (not owned; must outlive
  /// the server).
  explicit Server(DatasetRegistry* registry, ServerOptions options = {});

  /// Close()s, draining accepted requests.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int lanes() const { return static_cast<int>(lanes_.size()); }
  DatasetRegistry* registry() const { return registry_; }

  /// Validates and enqueues `request`. Never blocks: returns either an
  /// accepted future or one already completed with the rejection
  /// status.
  ResponseFuture Submit(Request request);

  /// Submit + Wait, for synchronous callers.
  Response Execute(Request request);

  /// Stops admitting (new Submits get kUnavailable), waits for every
  /// accepted request to finish, joins the lanes. Idempotent.
  void Close();

  ServerCounters counters() const;

  /// Requests queued (accepted, not yet picked up) right now.
  size_t queue_depth() const;

  /// Clears `dataset`'s consecutive-data-loss count, re-admitting
  /// traffic after a shed (e.g. once the storage is repaired).
  void ResetHealth(const std::string& dataset);

 private:
  struct Pending;

  /// Admission check under mu_. Empty message = admit.
  ServeStatus AdmissionStatus() const;

  /// Static validation (names, matcher requirements) against the
  /// registry; fills `dataset` on success.
  ServeStatus Validate(const Request& request, DatasetHandle* dataset) const;

  void LaneLoop(DiskManager* disk);

  /// Executes one admitted request on a lane — the per-attempt loop
  /// (recycle the lane disk, seed injector, run, classify, maybe
  /// retry). Never CHECK-fails on request content: everything reachable
  /// from client input was validated at Submit().
  void Process(Pending* pending, DiskManager* disk);

  /// One isolated execution attempt on the lane's `disk`; fills
  /// response matching/stats on success and returns the mapped request
  /// status.
  ServeStatus RunAttempt(Pending* pending, DiskManager* disk,
                         const MatcherInfo* info, int attempt,
                         Response* response);

  /// Records the final status of a run against `dataset` (consecutive
  /// data-loss tracking) and bumps the outcome counters.
  void RecordOutcome(const std::string& dataset, const ServeStatus& status);

  DatasetRegistry* registry_;
  ServerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::unique_ptr<Pending>> queue_;
  bool draining_ = false;
  size_t inflight_ = 0;
  uint64_t next_id_ = 1;
  ServerCounters counters_;
  /// Consecutive final kDataLoss outcomes per dataset name; reaching
  /// options_.health_threshold sheds that dataset's traffic.
  std::map<std::string, int> consecutive_data_loss_;

  /// One disk per lane, Recycle()d before every attempt so per-request
  /// stores reuse the previous request's page buffers.
  std::vector<std::unique_ptr<DiskManager>> lane_disks_;
  std::vector<std::thread> lanes_;
  bool joined_ = false;
};

}  // namespace fairmatch::serve

#endif  // FAIRMATCH_SERVE_SERVER_H_

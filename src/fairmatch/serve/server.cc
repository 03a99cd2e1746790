#include "fairmatch/serve/server.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "fairmatch/common/check.h"
#include "fairmatch/common/timer.h"
#include "fairmatch/engine/registry.h"
#include "fairmatch/topk/disk_function_lists.h"

namespace fairmatch::serve {

namespace {

/// Transient = a fresh attempt can plausibly succeed (the fault model
/// is transfer-level). Deadline expiry is terminal: retrying cannot
/// recover time already spent.
bool IsTransient(ErrorCode code) {
  return code == ErrorCode::kUnavailable || code == ErrorCode::kDataLoss;
}

}  // namespace

/// Shared completion state behind a ResponseFuture.
struct ResponseFuture::State {
  mutable std::mutex mu;
  mutable std::condition_variable cv;
  bool done = false;
  Response response;

  void Complete(Response&& r) {
    {
      std::lock_guard<std::mutex> lock(mu);
      response = std::move(r);
      done = true;
    }
    cv.notify_all();
  }
};

bool ResponseFuture::done() const {
  FAIRMATCH_CHECK(state_ != nullptr);
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

const Response& ResponseFuture::Wait() const {
  FAIRMATCH_CHECK(state_ != nullptr);
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  return state_->response;
}

/// One admitted request queued for a lane. The dataset handle pins the
/// resident structures for the request's whole life, which is what
/// makes DatasetRegistry::Close safe under in-flight traffic.
struct Server::Pending {
  Request request;
  DatasetHandle dataset;
  std::shared_ptr<ResponseFuture::State> state;
  uint64_t id = 0;
  /// Started at admission; read once at pickup (queue_ms) and once at
  /// completion (total_ms).
  Timer since_submit;
};

Server::Server(DatasetRegistry* registry, ServerOptions options)
    : registry_(registry), options_(options) {
  FAIRMATCH_CHECK(registry_ != nullptr);
  if (options_.lanes < 1) options_.lanes = 1;
  if (options_.max_attempts < 1) options_.max_attempts = 1;
  if (options_.max_inflight == 0) {
    options_.max_inflight =
        options_.max_queue + static_cast<size_t>(options_.lanes);
  }
  // Touch the registry before spawning lanes so its lazy builtin
  // registration happens once, off the serving path.
  MatcherRegistry::Global();
  lane_disks_.reserve(static_cast<size_t>(options_.lanes));
  lanes_.reserve(static_cast<size_t>(options_.lanes));
  for (int i = 0; i < options_.lanes; ++i) {
    lane_disks_.push_back(std::make_unique<DiskManager>());
    DiskManager* disk = lane_disks_.back().get();
    lanes_.emplace_back([this, disk] { LaneLoop(disk); });
  }
}

Server::~Server() { Close(); }

Status Server::AdmissionStatus() const {
  if (draining_) {
    return Status::Unavailable("server is draining");
  }
  if (queue_.size() >= options_.max_queue) {
    return Status::Overloaded("admission queue is full (" +
                              std::to_string(options_.max_queue) +
                              " queued)");
  }
  if (inflight_ >= options_.max_inflight) {
    return Status::Overloaded("in-flight cap reached (" +
                              std::to_string(options_.max_inflight) +
                              " accepted)");
  }
  return Status::Ok();
}

Status Server::Validate(const Request& request,
                        DatasetHandle* dataset) const {
  const MatcherInfo* info = MatcherRegistry::Global().Find(request.matcher);
  if (info == nullptr) {
    return Status::NotFound("unknown matcher '" + request.matcher + "'");
  }
  // Written so that NaN fails too: every comparison with NaN is false.
  if (!(request.buffer_fraction >= 0.0 && request.buffer_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "buffer_fraction must be in [0, 1], got " +
        std::to_string(request.buffer_fraction));
  }
  *dataset = registry_->Find(request.dataset);
  if (*dataset == nullptr) {
    return Status::NotFound("unknown dataset '" + request.dataset + "'");
  }
  if (info->needs_packed_functions && (*dataset)->packed() == nullptr) {
    return Status::FailedPrecondition(
        "matcher '" + request.matcher + "' needs a packed image, but "
        "dataset '" + request.dataset + "' was opened without one");
  }
  return Status::Ok();
}

ResponseFuture Server::Submit(Request request) {
  auto state = std::make_shared<ResponseFuture::State>();

  // Reject with a completed future: the caller never blocks to learn
  // that a request was not admitted.
  auto reject = [&state](Status status) {
    Response response;
    response.status = std::move(status);
    state->Complete(std::move(response));
    return ResponseFuture(state);
  };

  DatasetHandle dataset;
  Status status = Validate(request, &dataset);
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.rejected;
    return reject(std::move(status));
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    status = AdmissionStatus();
    if (!status.ok()) {
      ++counters_.rejected;
      return reject(std::move(status));
    }
    if (options_.health_threshold > 0) {
      auto it = consecutive_data_loss_.find(request.dataset);
      if (it != consecutive_data_loss_.end() &&
          it->second >= options_.health_threshold) {
        ++counters_.rejected;
        ++counters_.shed;
        return reject(Status::Unavailable(
            "dataset '" + request.dataset + "' is shedding load after " +
            std::to_string(it->second) +
            " consecutive data-loss failures"));
      }
    }
    auto pending = std::make_unique<Pending>();
    pending->request = std::move(request);
    pending->dataset = std::move(dataset);
    pending->state = state;
    pending->id = next_id_++;
    queue_.push_back(std::move(pending));
    ++inflight_;
    ++counters_.accepted;
  }
  work_cv_.notify_one();
  return ResponseFuture(state);
}

Response Server::Execute(Request request) {
  return Submit(std::move(request)).Wait();
}

void Server::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (joined_) return;
    draining_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& lane : lanes_) lane.join();
  std::lock_guard<std::mutex> lock(mu_);
  joined_ = true;
}

ServerCounters Server::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

size_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void Server::ResetHealth(const std::string& dataset) {
  std::lock_guard<std::mutex> lock(mu_);
  consecutive_data_loss_.erase(dataset);
}

void Server::RecordOutcome(const std::string& dataset,
                           const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (status.code == ErrorCode::kDeadlineExceeded) {
    ++counters_.deadline_exceeded;
  } else if (status.code == ErrorCode::kDataLoss) {
    ++counters_.data_loss;
  }
  if (options_.health_threshold <= 0) return;
  if (status.ok()) {
    consecutive_data_loss_.erase(dataset);
  } else if (status.code == ErrorCode::kDataLoss) {
    ++consecutive_data_loss_[dataset];
  }
}

void Server::LaneLoop(DiskManager* disk) {
  for (;;) {
    std::unique_ptr<Pending> pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) return;  // draining with an empty queue
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    Process(pending.get(), disk);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --inflight_;
      ++counters_.completed;
    }
  }
}

void Server::Process(Pending* pending, DiskManager* disk) {
  Response response;
  response.request_id = pending->id;
  response.queue_ms = pending->since_submit.ElapsedMs();

  const Request& request = pending->request;
  // Re-resolved, not cached from Submit: re-registration (tests stub
  // variants) must not leave a dangling info pointer in the queue.
  const MatcherInfo* info = MatcherRegistry::Global().Find(request.matcher);

  Timer exec_timer;
  if (info == nullptr) {
    // The matcher disappeared between Submit and pickup (only possible
    // through test re-registration); typed error, not a CHECK.
    response.status = Status::NotFound("matcher '" + request.matcher +
                                       "' is no longer registered");
  } else if (request.deadline_ms > 0.0 &&
             response.queue_ms >= request.deadline_ms) {
    // Expired while queued: fail fast instead of burning a lane on a
    // request whose client has already given up.
    response.status = Status::DeadlineExceeded(
        "deadline of " + std::to_string(request.deadline_ms) +
        " ms expired after " + std::to_string(response.queue_ms) +
        " ms in queue");
  } else {
    for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
      response.attempts = attempt;
      response.status = RunAttempt(pending, disk, info, attempt, &response);
      if (response.status.ok() || !IsTransient(response.status.code) ||
          attempt == options_.max_attempts) {
        break;
      }
      // A retry re-runs the whole attempt from scratch on the recycled
      // lane disk; if the deadline cannot survive the backoff, report
      // the expiry now instead of sleeping through it.
      if (request.deadline_ms > 0.0 &&
          pending->since_submit.ElapsedMs() + options_.retry_backoff_ms >=
              request.deadline_ms) {
        response.status = Status::DeadlineExceeded(
            "deadline of " + std::to_string(request.deadline_ms) +
            " ms leaves no room to retry after: " + response.status.message);
        break;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.retries;
      }
      if (options_.retry_backoff_ms > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            options_.retry_backoff_ms));
      }
    }
  }

  RecordOutcome(request.dataset, response.status);
  response.exec_ms = exec_timer.ElapsedMs();
  response.total_ms = pending->since_submit.ElapsedMs();
  pending->state->Complete(std::move(response));
}

Status Server::RunAttempt(Pending* pending, DiskManager* disk,
                          const MatcherInfo* info, int attempt,
                          Response* response) {
  const Request& request = pending->request;
  const ResidentDataset& dataset = *pending->dataset;

  // Per-attempt execution state over the shared dataset, per the
  // isolation contract in serve/server.h: private ExecContext, private
  // disk structures on the lane's recycled disk, private packed-image
  // view, and — for tree-mutating matchers — a private tree, so the
  // resident one stays immutable. Because every attempt starts from a
  // recycled (observably fresh) disk, a successful retry is
  // byte-identical to a fault-free first attempt.
  disk->Recycle();
  ExecContext ctx;
  // Lanes already spread requests over the cores.
  ctx.set_parallel(false);
  // The lane disk reports storage faults into this attempt's sink; the
  // matcher unwinds at its next cancellation point.
  disk->set_error_sink(&ctx.errors());

  std::optional<FaultInjector> injector;
  if (options_.fault_plan.active()) {
    // One schedule per (request, attempt): independent of lane count,
    // lane placement and completion order.
    FaultInjectorOptions plan = options_.fault_plan;
    plan.seed = FaultInjector::DeriveSeed(plan.seed, pending->id,
                                          static_cast<uint64_t>(attempt));
    injector.emplace(plan);
    disk->set_fault_injector(&*injector);
    // Checksums make injected corruption detectable (typed kDataLoss)
    // instead of silently consumed.
    disk->set_verify_checksums(true);
  }

  if (request.deadline_ms > 0.0) {
    // Remaining budget may already be negative after earlier attempts;
    // the context then trips at the first cancellation point.
    ctx.set_deadline(std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             request.deadline_ms -
                             pending->since_submit.ElapsedMs())));
  }

  MatcherEnv env;
  env.problem = &dataset.problem();
  env.tree = dataset.tree();
  env.buffer_fraction = request.buffer_fraction;
  env.ctx = &ctx;

  std::optional<MemNodeStore> private_store;
  std::optional<RTree> private_tree;
  if (info->mutates_tree) {
    private_store.emplace(dataset.problem().dims);
    private_tree.emplace(&*private_store);
    BuildObjectTree(dataset.problem(), &*private_tree);
    env.tree = &*private_tree;
  }

  std::optional<DiskFunctionStore> fstore;
  if (info->needs_disk_functions || request.disk_resident_functions) {
    fstore.emplace(dataset.problem().functions, request.buffer_fraction,
                   &ctx.counters(), disk);
    env.fn_store = &*fstore;
  }

  std::unique_ptr<PackedFunctionStore> packed_view;
  if (info->needs_packed_functions) {
    packed_view = PackedFunctionStore::NewSharedView(*dataset.packed());
    env.packed_fns = packed_view.get();
  }

  Status status;
  std::unique_ptr<Matcher> matcher =
      MatcherRegistry::Global().Create(request.matcher, env);
  if (matcher == nullptr) {
    // Validate() checks every Create precondition, so this is
    // unreachable today; kept as a typed error so a future
    // requirement added to Create degrades to a rejected request
    // instead of a crashed service.
    status = Status::FailedPrecondition(
        "matcher '" + request.matcher + "' cannot run against dataset '" +
        request.dataset + "'");
  } else {
    AssignResult result = matcher->Run();
    status = std::move(result.status);
    if (status.ok()) {
      response->matching = std::move(result.matching);
      response->stats = std::move(result.stats);
    } else {
      // On a non-OK status matching/stats are empty by contract; the
      // partial result of an aborted run must not leak out.
      response->matching.clear();
      response->stats = RunStats{};
    }
  }

  if (injector.has_value()) {
    response->injected_faults += injector->counters().injected();
  }
  // Unwire before the stack-owned injector and sink die; the next
  // attempt (or request) re-wires against its own.
  disk->set_fault_injector(nullptr);
  disk->set_error_sink(nullptr);
  disk->set_verify_checksums(false);
  return status;
}

}  // namespace fairmatch::serve

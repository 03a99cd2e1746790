// Chaos suite: seeded storage-fault schedules against the full serving
// stack. The contract under test (server.h "Fault recovery"): storage
// faults surface as typed statuses — never a crash, never an engine
// CHECK — a fault aborts exactly one request, a successful retry is
// byte-identical to a fault-free run, and because every schedule is a
// pure function of (plan seed, request id, attempt), per-request
// outcomes are invariant under lane count and completion order. Part of
// the chaos ctest label: CI runs this under both ASan+UBSan and TSan.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fairmatch/engine/exec_context.h"
#include "fairmatch/engine/registry.h"
#include "fairmatch/topk/disk_function_lists.h"
#include "fairmatch/serve/dataset_registry.h"
#include "fairmatch/serve/server.h"
#include "fairmatch/common/status.h"
#include "fairmatch/common/rng.h"
#include "fairmatch/storage/disk_manager.h"
#include "fairmatch/storage/fault_injector.h"
#include "fairmatch/update/delta_builder.h"
#include "test_util.h"

namespace fairmatch::serve {
namespace {

using fairmatch::testing::ProblemSpec;
using fairmatch::testing::RandomProblem;
using fairmatch::testing::RunRegisteredMatcher;

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t MatchingHash(const Matching& m) {
  uint64_t h = 1469598103934665603ull;
  for (const MatchPair& p : m) {
    h = Fnv1a(h, static_cast<uint64_t>(p.fid));
    h = Fnv1a(h, static_cast<uint64_t>(p.oid));
  }
  return h;
}

/// The per-request numbers a successful response must reproduce exactly.
struct Fingerprint {
  uint64_t matching_hash;
  int64_t io_accesses;
  uint64_t pairs;
  int64_t loops;

  bool operator==(const Fingerprint& other) const {
    return matching_hash == other.matching_hash &&
           io_accesses == other.io_accesses && pairs == other.pairs &&
           loops == other.loops;
  }
};

Fingerprint OfResponse(const Response& response) {
  return Fingerprint{MatchingHash(response.matching),
                     response.stats.io_accesses, response.stats.pairs,
                     response.stats.loops};
}

Fingerprint OfDirect(const AssignResult& result) {
  return Fingerprint{MatchingHash(result.matching), result.stats.io_accesses,
                     result.stats.pairs, result.stats.loops};
}

/// Smaller than serve_test's problem: chaos requests run many attempts
/// each, and the whole suite repeats under ASan and TSan in CI.
AssignmentProblem SmallProblem(uint64_t seed) {
  ProblemSpec spec;
  spec.num_functions = 20;
  spec.num_objects = 120;
  spec.dims = 3;
  spec.distribution = Distribution::kAntiCorrelated;
  spec.seed = seed;
  spec.max_gamma = 3;
  return RandomProblem(spec);
}

/// A per-access fault rate calibrated so one full fault-free run sees
/// `expected` faults on average: rates are meaningful relative to how
/// many physical accesses a run makes (tens of thousands here), and
/// deriving them from the measured fault-free I/O keeps the schedule
/// deterministic while staying robust to problem-shape tweaks.
double RatePerRun(double expected, const Fingerprint& oracle) {
  return expected / static_cast<double>(oracle.io_accesses);
}

// --- the injector itself ---------------------------------------------

TEST(FaultInjectorTest, SameSeedReplaysTheSameSchedule) {
  FaultInjectorOptions plan;
  plan.seed = 1234;
  plan.read_fail_rate = 0.3;
  plan.corrupt_rate = 0.2;
  plan.write_fail_rate = 0.2;
  plan.spike_rate = 0.25;  // spike_us stays 0: decisions only, no sleeps

  // One character per access: 'x' failed, 'c' delivered corrupt bytes,
  // 'o' clean.
  auto drive = [](FaultInjector* injector) {
    std::string trace;
    PageData page, reference;
    std::memset(reference.bytes, 0x5a, kPageSize);
    for (int i = 0; i < 200; ++i) {
      std::memcpy(page.bytes, reference.bytes, kPageSize);
      int spike_us = 0;
      const Status status =
          i % 2 == 0
              ? injector->OnRead(static_cast<PageId>(i), page.bytes, &spike_us)
              : injector->OnWrite(static_cast<PageId>(i), &spike_us);
      if (!status.ok()) {
        trace += 'x';
      } else if (std::memcmp(page.bytes, reference.bytes, kPageSize) != 0) {
        trace += 'c';
      } else {
        trace += 'o';
      }
    }
    return trace;
  };

  FaultInjector a(plan), b(plan);
  const std::string trace = drive(&a);
  EXPECT_EQ(trace, drive(&b));
  EXPECT_EQ(a.counters().read_failures, b.counters().read_failures);
  EXPECT_EQ(a.counters().corruptions, b.counters().corruptions);
  EXPECT_EQ(a.counters().write_failures, b.counters().write_failures);
  EXPECT_EQ(a.counters().spikes, b.counters().spikes);
  EXPECT_GT(a.counters().injected(), 0);
  EXPECT_GT(a.counters().spikes, 0);

  FaultInjectorOptions reseeded = plan;
  reseeded.seed = 4321;
  FaultInjector c(reseeded);
  EXPECT_NE(trace, drive(&c)) << "schedule must depend on the seed";
}

TEST(FaultInjectorTest, DeriveSeedSeparatesRequestAndAttemptCoordinates) {
  const uint64_t base = 42;
  EXPECT_EQ(FaultInjector::DeriveSeed(base, 7, 1),
            FaultInjector::DeriveSeed(base, 7, 1));
  EXPECT_NE(FaultInjector::DeriveSeed(base, 7, 1),
            FaultInjector::DeriveSeed(base, 7, 2));
  EXPECT_NE(FaultInjector::DeriveSeed(base, 7, 1),
            FaultInjector::DeriveSeed(base, 8, 1));
  EXPECT_NE(FaultInjector::DeriveSeed(base, 7, 1),
            FaultInjector::DeriveSeed(base + 1, 7, 1));
  EXPECT_NE(FaultInjector::DeriveSeed(base, 7, 1),
            FaultInjector::DeriveSeed(base, 1, 7));
}

// --- the disk under faults -------------------------------------------

TEST(DiskFaultTest, InjectedReadFailureZeroFillsReportsAndLeavesPageIntact) {
  DiskManager disk;
  const PageId pid = disk.AllocatePage();
  PageData pattern;
  std::memset(pattern.bytes, 0x7e, kPageSize);
  ASSERT_TRUE(disk.WritePage(pid, pattern.bytes).ok());

  FaultInjectorOptions plan;
  plan.seed = 9;
  plan.read_fail_rate = 1.0;
  FaultInjector injector(plan);
  ErrorSink sink;
  disk.set_fault_injector(&injector);
  disk.set_error_sink(&sink);

  PageData out;
  const PageRead read = disk.ReadPage(pid, out.bytes);
  EXPECT_EQ(read.status.code, ErrorCode::kUnavailable);
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(read.bytes[i], std::byte{0}) << "byte " << i;
  }
  EXPECT_TRUE(sink.failed());
  EXPECT_EQ(sink.status().code, ErrorCode::kUnavailable);
  EXPECT_EQ(injector.counters().read_failures, 1);

  // Transfer fault only: with the injector detached the stored page is
  // intact, which is what makes retries able to succeed.
  disk.set_fault_injector(nullptr);
  const PageRead reread = disk.ReadPage(pid, out.bytes);
  ASSERT_TRUE(reread.status.ok());
  EXPECT_EQ(std::memcmp(reread.bytes, pattern.bytes, kPageSize), 0);
}

TEST(DiskFaultTest, ChecksumVerificationTurnsCorruptionIntoDataLoss) {
  DiskManager disk;
  disk.set_verify_checksums(true);
  const PageId pid = disk.AllocatePage();
  PageData pattern;
  std::memset(pattern.bytes, 0x31, kPageSize);
  ASSERT_TRUE(disk.WritePage(pid, pattern.bytes).ok());

  FaultInjectorOptions plan;
  plan.seed = 11;
  plan.corrupt_rate = 1.0;
  FaultInjector injector(plan);
  ErrorSink sink;
  disk.set_fault_injector(&injector);
  disk.set_error_sink(&sink);

  PageData out;
  const PageRead read = disk.ReadPage(pid, out.bytes);
  EXPECT_EQ(read.status.code, ErrorCode::kDataLoss);
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(read.bytes[i], std::byte{0}) << "byte " << i;
  }
  EXPECT_EQ(sink.status().code, ErrorCode::kDataLoss);
  EXPECT_EQ(injector.counters().corruptions, 1);

  disk.set_fault_injector(nullptr);
  const PageRead reread = disk.ReadPage(pid, out.bytes);
  ASSERT_TRUE(reread.status.ok());
  EXPECT_EQ(std::memcmp(reread.bytes, pattern.bytes, kPageSize), 0);
}

TEST(DiskFaultTest, CorruptionWithoutChecksumsIsSilentlyConsumed) {
  DiskManager disk;  // verify_checksums off: the seed-parity default
  const PageId pid = disk.AllocatePage();
  PageData pattern;
  std::memset(pattern.bytes, 0x44, kPageSize);
  ASSERT_TRUE(disk.WritePage(pid, pattern.bytes).ok());

  FaultInjectorOptions plan;
  plan.seed = 13;
  plan.corrupt_rate = 1.0;
  FaultInjector injector(plan);
  ErrorSink sink;
  disk.set_fault_injector(&injector);
  disk.set_error_sink(&sink);

  PageData out;
  const PageRead read = disk.ReadPage(pid, out.bytes);
  EXPECT_TRUE(read.status.ok());
  EXPECT_NE(std::memcmp(read.bytes, pattern.bytes, kPageSize), 0)
      << "the flipped bytes should be delivered";
  EXPECT_FALSE(sink.failed()) << "undetectable corruption must not report";
  EXPECT_EQ(injector.counters().corruptions, 1);
}

// --- the serving sweep -----------------------------------------------

const std::vector<std::string>& ChaosMatchers() {
  static const std::vector<std::string> kMatchers = {
      "SB", "SB-alt", "SB-TwoSkylines", "BruteForce"};
  return kMatchers;
}

constexpr int kSweepRounds = 2;

/// Per-request outcome facts that must be lane-invariant.
struct ChaosRecord {
  ErrorCode code = ErrorCode::kOk;
  int attempts = 0;
  int64_t faults = 0;
  Fingerprint fp{0, 0, 0, 0};
};

struct SweepResult {
  std::vector<ChaosRecord> records;
  ServerCounters counters;
};

/// Submits kSweepRounds rounds of every chaos matcher (disk-resident
/// functions: the lane disk is the fault surface) against one
/// shared resident dataset, waits them all, closes, and snapshots.
SweepResult RunChaosSweep(DatasetRegistry* registry, double rate, int lanes) {
  ServerOptions options;
  options.lanes = lanes;
  options.max_attempts = 3;
  options.fault_plan.seed = 0xC0FFEE;
  options.fault_plan.read_fail_rate = rate / 2;
  options.fault_plan.corrupt_rate = rate / 2;
  options.fault_plan.write_fail_rate = rate / 4;
  Server server(registry, options);

  std::vector<ResponseFuture> futures;
  for (int round = 0; round < kSweepRounds; ++round) {
    for (const std::string& name : ChaosMatchers()) {
      Request request;
      request.dataset = "ds";
      request.matcher = name;
      request.disk_resident_functions = true;
      futures.push_back(server.Submit(request));
    }
  }

  SweepResult result;
  for (ResponseFuture& future : futures) {
    const Response& response = future.Wait();
    if (!response.status.ok()) {
      EXPECT_TRUE(response.matching.empty())
          << "a failed response must not carry a partial matching";
      EXPECT_EQ(response.stats.pairs, 0u);
    }
    ChaosRecord record;
    record.code = response.status.code;
    record.attempts = response.attempts;
    record.faults = response.injected_faults;
    record.fp = OfResponse(response);
    result.records.push_back(record);
  }
  server.Close();
  EXPECT_EQ(server.queue_depth(), 0u);
  result.counters = server.counters();
  return result;
}

TEST(ChaosSweepTest, TypedStatusesLaneInvarianceAndByteIdenticalSuccesses) {
  const AssignmentProblem problem = SmallProblem(61000);
  DatasetRegistry registry;
  registry.Open("ds", problem);

  std::map<std::string, Fingerprint> oracle;
  for (const std::string& name : ChaosMatchers()) {
    ExecContext ctx;
    oracle[name] = OfDirect(
        RunRegisteredMatcher(name, problem, &ctx,
                             /*force_disk_functions=*/true));
  }

  // The middle rate yields a mix of successes, recovered retries and
  // exhausted requests; the top one mostly failures.
  int64_t total_faults = 0;
  const Fingerprint& sb = oracle["SB"];
  for (const double rate : {0.0, RatePerRun(1.5, sb), RatePerRun(15.0, sb)}) {
    const SweepResult lane1 = RunChaosSweep(&registry, rate, 1);
    const SweepResult lane4 = RunChaosSweep(&registry, rate, 4);
    const size_t n = kSweepRounds * ChaosMatchers().size();
    ASSERT_EQ(lane1.records.size(), n);
    ASSERT_EQ(lane4.records.size(), n);

    for (size_t i = 0; i < n; ++i) {
      const std::string& name = ChaosMatchers()[i % ChaosMatchers().size()];
      const ChaosRecord& record = lane1.records[i];

      // Typed, always: a fault class the layer above can act on.
      EXPECT_TRUE(record.code == ErrorCode::kOk ||
                  record.code == ErrorCode::kUnavailable ||
                  record.code == ErrorCode::kDataLoss)
          << name << " at rate " << rate << ": "
          << ErrorCodeName(record.code);

      // A success — first try or retried — is byte-identical to the
      // fault-free direct run.
      if (record.code == ErrorCode::kOk) {
        EXPECT_TRUE(record.fp == oracle[name])
            << name << " at rate " << rate
            << ": OK response diverged from the fault-free oracle";
      }
      if (rate == 0.0) {
        EXPECT_EQ(record.code, ErrorCode::kOk) << name;
        EXPECT_EQ(record.attempts, 1) << name;
        EXPECT_EQ(record.faults, 0) << name;
      }

      // The schedule is per (request id, attempt): outcomes must not
      // depend on how many lanes raced the queue.
      const ChaosRecord& other = lane4.records[i];
      EXPECT_EQ(record.code, other.code) << name << " at rate " << rate;
      EXPECT_EQ(record.attempts, other.attempts) << name;
      EXPECT_EQ(record.faults, other.faults) << name;
      EXPECT_TRUE(record.fp == other.fp) << name;
      total_faults += record.faults;
    }

    EXPECT_EQ(lane1.counters.accepted, static_cast<int64_t>(n));
    EXPECT_EQ(lane1.counters.completed, static_cast<int64_t>(n));
    EXPECT_EQ(lane1.counters.rejected, 0);
    EXPECT_EQ(lane1.counters.retries, lane4.counters.retries);
    EXPECT_EQ(lane1.counters.data_loss, lane4.counters.data_loss);
    EXPECT_EQ(lane1.counters.deadline_exceeded, 0);
  }
  EXPECT_GT(total_faults, 0) << "the sweep never injected anything";
}

TEST(ChaosRetryTest, SuccessfulRetriesAreByteIdenticalToFaultFreeRuns) {
  const AssignmentProblem problem = SmallProblem(62000);
  DatasetRegistry registry;
  registry.Open("ds", problem);
  ExecContext ctx;
  const Fingerprint oracle = OfDirect(
      RunRegisteredMatcher("SB", problem, &ctx,
                           /*force_disk_functions=*/true));

  ServerOptions options;
  options.lanes = 2;
  options.max_attempts = 6;
  // ~0.7 expected faults per attempt puts single-attempt success near a
  // coin flip, so a handful of requests is enough to observe
  // recovery-by-retry.
  options.fault_plan.seed = 909;
  options.fault_plan.read_fail_rate = RatePerRun(0.35, oracle);
  options.fault_plan.corrupt_rate = RatePerRun(0.35, oracle);
  Server server(&registry, options);

  Request request;
  request.dataset = "ds";
  request.matcher = "SB";
  request.disk_resident_functions = true;

  int retried_successes = 0;
  for (int i = 0; i < 12; ++i) {
    const Response response = server.Execute(request);
    if (!response.status.ok()) continue;
    EXPECT_TRUE(OfResponse(response) == oracle)
        << "request " << i << " (attempts=" << response.attempts << ")";
    if (response.attempts > 1) {
      ++retried_successes;
      EXPECT_GT(response.injected_faults, 0) << "request " << i;
    } else {
      // A first-try success by definition saw no result-affecting fault.
      EXPECT_EQ(response.injected_faults, 0) << "request " << i;
    }
  }
  EXPECT_GT(retried_successes, 0)
      << "no request recovered via retry; re-seed the plan";
  EXPECT_GT(server.counters().retries, 0);
}

/// Re-derives one server attempt's fault schedule offline and replays
/// it in the attempt's exact environment: fresh DiskManager with
/// checksums on, injector wired before the DiskFunctionStore is built
/// (its page writes are part of the schedule), the resident tree, the
/// request's buffer fraction. Returns that attempt's injected() count.
int64_t ReplayedAttemptFaults(const ResidentDataset& dataset,
                              const FaultInjectorOptions& base_plan,
                              const Request& request, uint64_t request_id,
                              int attempt) {
  FaultInjectorOptions plan = base_plan;
  plan.seed = FaultInjector::DeriveSeed(base_plan.seed, request_id,
                                        static_cast<uint64_t>(attempt));
  FaultInjector injector(plan);
  DiskManager disk;
  ExecContext ctx;
  disk.set_error_sink(&ctx.errors());
  disk.set_fault_injector(&injector);
  disk.set_verify_checksums(true);
  DiskFunctionStore fstore(dataset.problem().functions,
                           request.buffer_fraction, &ctx.counters(), &disk);
  MatcherEnv env;
  env.problem = &dataset.problem();
  env.tree = dataset.tree();
  env.buffer_fraction = request.buffer_fraction;
  env.ctx = &ctx;
  env.fn_store = &fstore;
  auto matcher = MatcherRegistry::Global().Create(request.matcher, env);
  if (matcher == nullptr) return -1;
  matcher->Run();
  return injector.counters().injected();
}

// Response.injected_faults is documented as the result-affecting fault
// total "across all attempts". Because every attempt's schedule is the
// pure function (plan seed, request id, attempt) and every attempt
// runs on an observably fresh lane disk, that total must equal the sum
// of per-attempt injector counts replayed offline — if the server
// under- or over-accounted (dropped a failed attempt's counters,
// double-added a retry), the books would not balance.
TEST(ChaosAccountingTest, InjectedFaultsEqualThePerAttemptScheduleSum) {
  const AssignmentProblem problem = SmallProblem(64000);
  DatasetRegistry registry;
  registry.Open("ds", problem);
  ExecContext ctx;
  const Fingerprint oracle = OfDirect(
      RunRegisteredMatcher("SB", problem, &ctx,
                           /*force_disk_functions=*/true));

  ServerOptions options;
  options.lanes = 2;
  options.max_attempts = 6;
  options.fault_plan.seed = 515;
  options.fault_plan.read_fail_rate = RatePerRun(0.4, oracle);
  options.fault_plan.corrupt_rate = RatePerRun(0.4, oracle);
  Server server(&registry, options);

  Request request;
  request.dataset = "ds";
  request.matcher = "SB";
  request.disk_resident_functions = true;

  DatasetHandle handle = registry.Find("ds");
  ASSERT_NE(handle, nullptr);
  int multi_attempt = 0;
  int64_t total = 0;
  for (int i = 0; i < 10; ++i) {
    const Response response = server.Execute(request);
    ASSERT_GT(response.attempts, 0) << "request " << i << " never ran";
    int64_t want = 0;
    for (int attempt = 1; attempt <= response.attempts; ++attempt) {
      const int64_t replayed = ReplayedAttemptFaults(
          *handle, options.fault_plan, request, response.request_id, attempt);
      ASSERT_GE(replayed, 0);
      want += replayed;
    }
    EXPECT_EQ(response.injected_faults, want)
        << "request " << i << " (" << response.attempts << " attempts)";
    total += response.injected_faults;
    if (response.attempts > 1) ++multi_attempt;
  }
  EXPECT_GT(multi_attempt, 0)
      << "no request retried; the accounting claim was not exercised";
  EXPECT_GT(total, 0);
}

TEST(ChaosSpikeTest, LatencySpikesNeverAffectResults) {
  const AssignmentProblem problem = SmallProblem(63000);
  DatasetRegistry registry;
  registry.Open("ds", problem);

  ServerOptions options;
  options.lanes = 2;
  options.fault_plan.seed = 7;
  options.fault_plan.spike_rate = 0.3;
  options.fault_plan.spike_us = 50;
  Server server(&registry, options);

  for (const std::string& name : ChaosMatchers()) {
    ExecContext ctx;
    const Fingerprint oracle = OfDirect(
        RunRegisteredMatcher(name, problem, &ctx,
                             /*force_disk_functions=*/true));
    Request request;
    request.dataset = "ds";
    request.matcher = name;
    request.disk_resident_functions = true;
    const Response response = server.Execute(request);
    ASSERT_TRUE(response.status.ok()) << name;
    EXPECT_EQ(response.attempts, 1) << name;
    EXPECT_EQ(response.injected_faults, 0)
        << name << ": spikes only cost time";
    EXPECT_TRUE(OfResponse(response) == oracle) << name;
  }
}

// --- health ----------------------------------------------------------

TEST(ChaosHealthTest, ConsecutiveDataLossShedsUntilResetOrSuccess) {
  const AssignmentProblem problem = SmallProblem(65000);
  DatasetRegistry registry;
  registry.Open("ds", problem);

  ServerOptions options;
  options.lanes = 1;
  options.max_attempts = 2;
  options.health_threshold = 2;
  options.fault_plan.seed = 5;
  options.fault_plan.corrupt_rate = 1.0;  // every read corrupt + detected
  Server server(&registry, options);

  Request faulted;
  faulted.dataset = "ds";
  faulted.matcher = "SB";
  faulted.disk_resident_functions = true;  // touches the faulted disk
  Request memory_only;
  memory_only.dataset = "ds";
  memory_only.matcher = "SB";  // no disk access: cannot fault

  const Response first = server.Execute(faulted);
  EXPECT_EQ(first.status.code, ErrorCode::kDataLoss);
  EXPECT_EQ(first.attempts, 2) << "both attempts should be burned";
  EXPECT_GT(first.injected_faults, 0);
  EXPECT_TRUE(first.matching.empty());

  // A success in between clears the streak...
  EXPECT_TRUE(server.Execute(memory_only).status.ok());

  // ...so the threshold needs two fresh consecutive data losses.
  EXPECT_EQ(server.Execute(faulted).status.code, ErrorCode::kDataLoss);
  EXPECT_EQ(server.Execute(faulted).status.code, ErrorCode::kDataLoss);

  // Shedding applies to the dataset, healthy requests included.
  const Response shed = server.Execute(memory_only);
  EXPECT_EQ(shed.status.code, ErrorCode::kUnavailable);
  EXPECT_NE(shed.status.message.find("shedding"), std::string::npos)
      << shed.status.message;
  EXPECT_EQ(shed.attempts, 0);
  EXPECT_EQ(server.counters().shed, 1);

  server.ResetHealth("ds");
  EXPECT_TRUE(server.Execute(memory_only).status.ok());

  server.Close();
  EXPECT_EQ(server.counters().data_loss, 3);
  EXPECT_EQ(server.counters().shed, 1);
}

// --- deadlines -------------------------------------------------------

TEST(ChaosDeadlineTest, ExpiredDeadlineAbortsDirectRunAtCancellationPoint) {
  const AssignmentProblem problem = SmallProblem(64000);
  // Every matcher that runs the shared skyline loop
  // (assign/skyline_loop.h); RunRegisteredMatcher wires the disk and
  // packed function stores the SB-alt and packed variants need.
  for (const char* name :
       {"SB", "SB-SinglePair", "SB-UpdateSkyline", "SB-DeltaSky",
        "SB-TwoSkylines", "SB-alt", "SB-Packed"}) {
    ExecContext ctx;
    ctx.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
    const AssignResult result = RunRegisteredMatcher(name, problem, &ctx);
    EXPECT_EQ(result.status.code, ErrorCode::kDeadlineExceeded) << name;
    EXPECT_TRUE(result.matching.empty())
        << name << ": the first cancellation point precedes any assignment";
  }
}

/// Spins at a cancellation point until the run deadline trips (bounded
/// so a missing deadline cannot hang the suite).
class SleeperMatcher : public Matcher {
 public:
  explicit SleeperMatcher(ExecContext* ctx) : ctx_(ctx) {}
  std::string Name() const override { return "Sleeper"; }
  AssignResult Run() override {
    AssignResult result;
    result.stats.algorithm = "Sleeper";
    if (ctx_ == nullptr) return result;
    for (int i = 0; i < 50000 && !ctx_->ShouldAbort(); ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    result.status = ctx_->status();
    return result;
  }

 private:
  ExecContext* ctx_;
};

/// Registers the sleeper stub (before any server lane exists — Register
/// is not synchronized).
void RegisterSleeperMatcher() {
  MatcherInfo info;
  info.name = "Sleeper";
  info.description = "test stub: spins at a cancellation point until aborted";
  info.factory = [](const MatcherEnv& env) {
    return std::make_unique<SleeperMatcher>(env.ctx);
  };
  MatcherRegistry::Global().Register(std::move(info));
}

TEST(ChaosDeadlineTest, DeadlinesTripMidRunAndInQueue) {
  const AssignmentProblem problem = SmallProblem(66000);
  DatasetRegistry registry;
  registry.Open("ds", problem);
  RegisterSleeperMatcher();

  ServerOptions options;
  options.lanes = 1;
  Server server(&registry, options);

  // The sleeper occupies the single lane until its own deadline cancels
  // it mid-run; the request queued behind it overstays its deadline
  // before a lane ever picks it up.
  Request slow;
  slow.dataset = "ds";
  slow.matcher = "Sleeper";
  slow.deadline_ms = 200.0;
  Request quick;
  quick.dataset = "ds";
  quick.matcher = "SB";
  quick.deadline_ms = 1.0;
  ResponseFuture running = server.Submit(slow);
  ResponseFuture queued = server.Submit(quick);

  const Response& mid_run = running.Wait();
  EXPECT_EQ(mid_run.status.code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(mid_run.attempts, 1) << "it ran, and was cancelled mid-run";
  EXPECT_TRUE(mid_run.matching.empty());

  const Response& expired = queued.Wait();
  EXPECT_EQ(expired.status.code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(expired.attempts, 0) << "it must never have run";
  EXPECT_GE(expired.queue_ms, 1.0);
  EXPECT_TRUE(expired.matching.empty());

  server.Close();
  EXPECT_EQ(server.counters().deadline_exceeded, 2);
}

TEST(ChaosDeadlineTest, DeadlineIsTerminalEvenWithRetriesConfigured) {
  const AssignmentProblem problem = SmallProblem(67000);
  DatasetRegistry registry;
  registry.Open("ds", problem);
  RegisterSleeperMatcher();

  ServerOptions options;
  options.lanes = 1;
  options.max_attempts = 5;
  options.retry_backoff_ms = 1.0;
  Server server(&registry, options);

  Request slow;
  slow.dataset = "ds";
  slow.matcher = "Sleeper";
  slow.deadline_ms = 50.0;
  const Response response = server.Execute(slow);
  EXPECT_EQ(response.status.code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(response.attempts, 1)
      << "an expired deadline must not be retried";
}

// ---------------------------------------------------------------------
// Update-under-faults: DeltaBuilder::Apply with an injector attached
// must be all-or-nothing. A faulted Apply returns a typed status
// (kUnavailable for injected read/write failures — never a crash, never
// an engine CHECK) and leaves the builder on the old epoch with every
// queryable byte unchanged; an Apply that survives its schedule commits
// a full epoch that passes the update-vs-rebuild differential.
//
// corrupt_rate stays 0 here on purpose: the in-memory tree pages carry
// no checksum, so corruption outside the node header would pass the
// structural IsWellFormed() screen undetected and break the success-
// path differential. Header damage IS screened (typed kDataLoss) —
// that path is exercised directly below with a hand-damaged page.
// ---------------------------------------------------------------------

update::UpdateBatch ChaosBatch(const AssignmentProblem& problem, Rng* rng) {
  update::UpdateBatch batch;
  const int num_objects = static_cast<int>(problem.objects.size());
  batch.delete_objects.push_back(
      static_cast<ObjectId>(rng->UniformInt(0, num_objects / 2)));
  batch.delete_objects.push_back(static_cast<ObjectId>(
      rng->UniformInt(num_objects / 2 + 1, num_objects - 1)));
  for (int i = 0; i < 6; ++i) {
    ObjectItem o;
    o.point = Point(problem.dims);
    for (int d = 0; d < problem.dims; ++d) {
      o.point[d] = static_cast<float>(rng->Uniform());
    }
    batch.insert_objects.push_back(o);
  }
  return batch;
}

struct ApplySweepCounts {
  int committed = 0;
  int rejected = 0;
};

// Three faulted-or-committed Applies over a fresh base dataset. With
// `packed_mmap` every epoch maps its packed image through the injector's
// OnMap, so a refused map joins the read/write failures below.
void SweepApplyUnderFaults(uint64_t seed, double rate, bool packed_mmap,
                           ApplySweepCounts* counts) {
  ProblemSpec spec;
  spec.seed = seed + 4000;
  spec.num_objects = 70;
  AssignmentProblem problem = RandomProblem(spec);
  DatasetOptions dopts;
  dopts.packed_mmap = packed_mmap;
  DatasetRegistry registry;
  DatasetHandle base = registry.Open("chaos-update", problem, dopts);

  FaultInjectorOptions fopts;
  fopts.seed = seed * 977 + static_cast<uint64_t>(rate * 10000);
  fopts.read_fail_rate = rate;
  fopts.write_fail_rate = rate;
  fopts.spike_rate = 0.02;
  fopts.spike_us = 50;
  FaultInjector injector(fopts);

  update::DeltaOptions options;
  options.dataset = dopts;
  options.injector = &injector;
  update::DeltaBuilder builder(base, options);

  Rng rng(seed * 13 + 7);
  for (int step = 0; step < 3; ++step) {
    const DatasetHandle before = builder.current();
    const std::vector<ObjectRecord> before_scan = before->tree()->ScanAll();
    const uint64_t before_hash =
        MatchingHash(update::RunOnDataset(*before, "SB").matching);
    const uint64_t before_packed_hash =
        MatchingHash(update::RunOnDataset(*before, "SB-Packed").matching);

    const Status status =
        builder.Apply(ChaosBatch(before->problem(), &rng), nullptr);
    if (status.ok()) {
      ++counts->committed;
      // Full-commit leg of the contract: the new epoch passes the
      // update-vs-rebuild differential.
      const AssignmentProblem& now = builder.current()->problem();
      EXPECT_EQ(
          MatchingHash(
              update::RunOnDataset(*builder.current(), "SB").matching),
          MatchingHash(RunRegisteredMatcher("SB", now).matching));
      EXPECT_EQ(builder.current()->packed()->mapped(), packed_mmap);
      continue;
    }
    ++counts->rejected;
    EXPECT_TRUE(status.code == ErrorCode::kUnavailable ||
                status.code == ErrorCode::kDataLoss)
        << status.message;
    // Atomicity leg: the builder still names the identical epoch
    // object, and the old epoch is byte-for-byte untouched.
    ASSERT_EQ(builder.current().get(), before.get());
    const std::vector<ObjectRecord> after_scan = before->tree()->ScanAll();
    ASSERT_EQ(after_scan.size(), before_scan.size());
    for (size_t i = 0; i < after_scan.size(); ++i) {
      EXPECT_EQ(after_scan[i].id, before_scan[i].id);
      for (int d = 0; d < before->problem().dims; ++d) {
        EXPECT_EQ(after_scan[i].point[d], before_scan[i].point[d]);
      }
    }
    EXPECT_EQ(MatchingHash(update::RunOnDataset(*before, "SB").matching),
              before_hash);
    EXPECT_EQ(
        MatchingHash(update::RunOnDataset(*before, "SB-Packed").matching),
        before_packed_hash);
  }
}

TEST(ChaosUpdateTest, ApplyUnderFaultsCommitsFullyOrNotAtAll) {
  ApplySweepCounts counts;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (double rate : {0.005, 0.05}) {
      for (bool packed_mmap : {false, true}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " rate " +
                     std::to_string(rate) + " packed_mmap " +
                     std::to_string(packed_mmap));
        SweepApplyUnderFaults(seed, rate, packed_mmap, &counts);
        if (HasFatalFailure()) return;
      }
    }
  }
  // The sweep must actually exercise both legs of the contract.
  EXPECT_GT(counts.committed, 0) << "every Apply faulted; lower the rates";
  EXPECT_GT(counts.rejected, 0) << "no Apply faulted; raise the rates";
}

TEST(ChaosUpdateTest, RefusedImageMapIsTypedUnavailable) {
  ProblemSpec spec;
  spec.seed = 4200;
  spec.num_objects = 70;
  const AssignmentProblem problem = RandomProblem(spec);
  DatasetOptions dopts;
  dopts.packed_mmap = true;
  DatasetRegistry registry;
  DatasetHandle base = registry.Open("chaos-map", problem, dopts);
  const uint64_t base_hash =
      MatchingHash(update::RunOnDataset(*base, "SB-Packed").matching);

  // The map draw follows the cloned-page reads on the same read stream,
  // so a schedule may fail a page read first or grant the map. Probe
  // schedules until one refuses the map: the Apply must come back
  // kUnavailable and leave the builder on the untouched old epoch.
  bool found = false;
  for (uint64_t seed = 1; seed <= 64 && !found; ++seed) {
    FaultInjectorOptions fopts;
    fopts.seed = seed;
    fopts.read_fail_rate = 0.5;
    FaultInjector injector(fopts);

    update::DeltaOptions options;
    options.dataset = dopts;
    options.injector = &injector;
    update::DeltaBuilder builder(base, options);

    Rng rng(seed);
    const Status status =
        builder.Apply(ChaosBatch(base->problem(), &rng), nullptr);
    if (status.message.rfind("packed image map:", 0) != 0) continue;
    found = true;
    EXPECT_EQ(status.code, ErrorCode::kUnavailable) << status.message;
    EXPECT_EQ(builder.current().get(), base.get())
        << "a refused image map must not advance the epoch";
  }
  EXPECT_TRUE(found) << "no schedule refused the image map in 64 tries";
  EXPECT_TRUE(base->packed()->mapped());
  EXPECT_EQ(MatchingHash(update::RunOnDataset(*base, "SB-Packed").matching),
            base_hash);
}

TEST(ChaosUpdateTest, DamagedClonePageIsTypedDataLoss) {
  ProblemSpec spec;
  spec.seed = 4100;
  // The node header (level + count) is 4 bytes of a 4 KiB page, so a
  // large tree keeps the expected probes-to-hit low.
  spec.num_objects = 4000;
  const AssignmentProblem problem = RandomProblem(spec);
  DatasetRegistry registry;
  DatasetHandle base = registry.Open("chaos-damage", problem);

  // Corruption lands at schedule-determined offsets, so any single
  // schedule may miss every node header. Probe schedules until one
  // damages a header, which the structural screen must convert into
  // kDataLoss — not a crash, not a silent commit. The batch is
  // function-only: a schedule whose damage misses every header commits
  // without a single tree edit, so the probe never traverses a
  // corrupted clone and cannot crash.
  bool found = false;
  for (uint64_t seed = 1; seed <= 400 && !found; ++seed) {
    FaultInjectorOptions fopts;
    fopts.seed = seed;
    fopts.corrupt_rate = 1.0;
    FaultInjector injector(fopts);

    update::DeltaOptions options;
    options.injector = &injector;
    update::DeltaBuilder builder(base, options);

    update::UpdateBatch batch;
    batch.delete_functions.push_back(0);
    const Status status = builder.Apply(batch, nullptr);
    if (status.code == ErrorCode::kDataLoss) {
      found = true;
      EXPECT_EQ(builder.current().get(), base.get())
          << "a detected damaged clone must not advance the epoch";
    } else {
      EXPECT_TRUE(status.ok()) << status.message;
    }
  }
  EXPECT_TRUE(found) << "no schedule damaged a node header in 400 tries";
}

}  // namespace
}  // namespace fairmatch::serve

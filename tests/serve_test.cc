// The serving layer's headline guarantee: a Response from fairmatchd is
// byte-identical (matching, io_accesses, pairs, loops) to a direct
// Matcher::Run() on the same inputs — for every registered matcher, at
// any lane count, under any request interleaving, over one shared
// resident dataset. Also covered: admission control (bounded queue →
// kOverloaded, drain completes every accepted request), the dataset
// open/close refcount lifecycle (second open shares, close under
// in-flight traffic is safe), and the typed-error contract (bad
// requests get a status, never an engine CHECK). Part of the TSan CI
// matrix: the concurrency here is real lanes over real shared indexes.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fairmatch/common/rng.h"
#include "fairmatch/data/synthetic.h"
#include "fairmatch/serve/dataset_registry.h"
#include "fairmatch/serve/server.h"
#include "fairmatch/serve/status.h"
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

/// The per-request numbers that must not depend on serving.
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

AssignmentProblem SmallProblem(uint64_t seed) {
  ProblemSpec spec;
  spec.num_functions = 30;
  spec.num_objects = 250;
  spec.dims = 3;
  spec.distribution = Distribution::kAntiCorrelated;
  spec.seed = seed;
  spec.max_gamma = 3;  // priorities on, to exercise the richer paths
  return RandomProblem(spec);
}

/// Registered matchers the server runs end-to-end. Excludes test-local
/// stubs (registered by later tests in this binary, never by the
/// library).
std::vector<std::string> ServableMatchers() {
  std::vector<std::string> names;
  for (const std::string& name : MatcherRegistry::Global().Names()) {
    if (name != "Gated") names.push_back(name);
  }
  return names;
}

// --- the headline response contract ----------------------------------

TEST(ServeContractTest, ResponsesByteIdenticalToDirectRunsForEveryMatcher) {
  const AssignmentProblem problem = SmallProblem(41000);
  DatasetRegistry registry;
  registry.Open("ds", problem);

  ServerOptions options;
  options.lanes = 2;
  Server server(&registry, options);

  for (const std::string& name : ServableMatchers()) {
    ExecContext ctx;
    const Fingerprint direct = OfDirect(RunRegisteredMatcher(name, problem,
                                                             &ctx));
    Request request;
    request.dataset = "ds";
    request.matcher = name;
    const Response response = server.Execute(request);
    ASSERT_TRUE(response.status.ok())
        << name << ": " << response.status.message;
    EXPECT_TRUE(OfResponse(response) == direct)
        << name << " served response diverged from the direct run";
    EXPECT_EQ(response.stats.algorithm, name);
    EXPECT_GE(response.total_ms, response.exec_ms);
    EXPECT_GE(response.queue_ms, 0.0);
    EXPECT_GT(response.request_id, 0u);
  }
}

// The Section 7.6 setting rides through the request knob: a
// per-request DiskFunctionStore on the lane's recycled disk must count
// exactly the I/O a fresh-storage direct run counts.
TEST(ServeContractTest, DiskResidentFunctionRequestsMatchDirectRuns) {
  const AssignmentProblem problem = SmallProblem(42000);
  DatasetRegistry registry;
  registry.Open("ds", problem);
  Server server(&registry);

  for (const char* name : {"SB", "SB-alt", "BruteForce"}) {
    ExecContext ctx;
    const Fingerprint direct = OfDirect(RunRegisteredMatcher(
        name, problem, &ctx, /*force_disk_functions=*/true));
    Request request;
    request.dataset = "ds";
    request.matcher = name;
    request.disk_resident_functions = true;
    const Response response = server.Execute(request);
    ASSERT_TRUE(response.status.ok()) << name;
    EXPECT_TRUE(OfResponse(response) == direct) << name;
    EXPECT_GT(response.stats.io_accesses, 0) << name;
    // Consecutive requests on the same lane recycle the lane disk;
    // the second run must not see the first one's pages.
    const Response again = server.Execute(request);
    ASSERT_TRUE(again.status.ok()) << name;
    EXPECT_TRUE(OfResponse(again) == direct) << name << " (recycled lane)";
  }
}

// The packed image is resident once; every request probes it through a
// private view. Both image placements must serve identical bytes.
TEST(ServeContractTest, PackedViewsServeIdenticalResultsInBothImageModes) {
  const AssignmentProblem problem = SmallProblem(43000);
  for (const bool mmap_mode : {false, true}) {
    DatasetRegistry registry;
    DatasetOptions dopts;
    dopts.packed_mmap = mmap_mode;
    registry.Open("ds", problem, dopts);
    Server server(&registry);

    ExecContext ctx;
    const Fingerprint direct = OfDirect(RunRegisteredMatcher(
        "SB-Packed", problem, &ctx, /*force_disk_functions=*/false,
        /*buffer_fraction=*/0.02, mmap_mode));
    Request request;
    request.dataset = "ds";
    request.matcher = "SB-Packed";
    const Response response = server.Execute(request);
    ASSERT_TRUE(response.status.ok()) << "mmap=" << mmap_mode;
    EXPECT_TRUE(OfResponse(response) == direct) << "mmap=" << mmap_mode;
    EXPECT_EQ(response.stats.io_accesses, 0);
  }
}

// Tree-mutating matchers get a private tree; the resident one must
// come through completely unscathed.
TEST(ServeContractTest, TreeMutatingMatchersDoNotDisturbTheSharedTree) {
  const AssignmentProblem problem = SmallProblem(44000);
  DatasetRegistry registry;
  registry.Open("ds", problem);
  Server server(&registry);

  Request sb;
  sb.dataset = "ds";
  sb.matcher = "SB";
  const Fingerprint before = OfResponse(server.Execute(sb));

  Request chain;
  chain.dataset = "ds";
  chain.matcher = "Chain";
  ExecContext ctx;
  const Fingerprint chain_direct =
      OfDirect(RunRegisteredMatcher("Chain", problem, &ctx));
  for (int i = 0; i < 3; ++i) {
    const Response response = server.Execute(chain);
    ASSERT_TRUE(response.status.ok());
    EXPECT_TRUE(OfResponse(response) == chain_direct) << "run " << i;
  }
  EXPECT_TRUE(OfResponse(server.Execute(sb)) == before)
      << "Chain requests mutated the shared resident tree";
}

// --- concurrent-request determinism ----------------------------------

TEST(ServeConcurrencyTest, DeterministicAtOneTwoAndEightLanes) {
  const AssignmentProblem problem = SmallProblem(45000);

  // A request mix crossing every backend: shared tree, per-request
  // disk store (SB-alt, and SB with disk-resident functions), shared
  // packed image, private tree.
  struct MixEntry {
    const char* matcher;
    bool disk_resident_functions;
  };
  const std::vector<MixEntry> mix = {
      {"SB", false},     {"SB-Packed", false}, {"BruteForce", false},
      {"SB-alt", false}, {"Chain", false},     {"SB", true},
      {"SB-TwoSkylines", false}};
  const int kRequests = 24;

  // Both packed-image placements: lane count and the in-memory/mmap
  // switch must not change any per-request number.
  for (const bool mmap_mode : {false, true}) {
    DatasetRegistry registry;
    DatasetOptions dopts;
    dopts.packed_mmap = mmap_mode;
    registry.Open("ds", problem, dopts);

    std::vector<Fingerprint> direct;
    for (int i = 0; i < kRequests; ++i) {
      const MixEntry& entry = mix[static_cast<size_t>(i) % mix.size()];
      ExecContext ctx;
      direct.push_back(OfDirect(RunRegisteredMatcher(
          entry.matcher, problem, &ctx, entry.disk_resident_functions,
          /*buffer_fraction=*/0.02, mmap_mode)));
    }

    for (const int lanes : {1, 2, 8}) {
      ServerOptions options;
      options.lanes = lanes;
      options.max_queue = kRequests;  // admit everything
      Server server(&registry, options);
      std::vector<ResponseFuture> futures;
      for (int i = 0; i < kRequests; ++i) {
        const MixEntry& entry = mix[static_cast<size_t>(i) % mix.size()];
        Request request;
        request.dataset = "ds";
        request.matcher = entry.matcher;
        request.disk_resident_functions = entry.disk_resident_functions;
        futures.push_back(server.Submit(std::move(request)));
      }
      for (int i = 0; i < kRequests; ++i) {
        const Response& response = futures[static_cast<size_t>(i)].Wait();
        ASSERT_TRUE(response.status.ok())
            << "request " << i << " at lanes=" << lanes
            << " mmap=" << mmap_mode << ": " << response.status.message;
        EXPECT_TRUE(OfResponse(response) == direct[static_cast<size_t>(i)])
            << "request " << i << " (" << response.stats.algorithm
            << ") diverged at lanes=" << lanes << " mmap=" << mmap_mode;
      }
      server.Close();
      const ServerCounters counters = server.counters();
      EXPECT_EQ(counters.accepted, kRequests);
      EXPECT_EQ(counters.completed, kRequests);
      EXPECT_EQ(counters.rejected, 0);
    }
  }
}

// --- admission control -----------------------------------------------

/// Matcher stub whose Run() blocks until the test releases it — the
/// deterministic way to hold a lane busy and fill the queue.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  bool release = false;

  void WaitForStarted(int n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this, n] { return started >= n; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
  }
};

class GatedMatcher : public Matcher {
 public:
  explicit GatedMatcher(std::shared_ptr<Gate> gate)
      : gate_(std::move(gate)) {}
  std::string Name() const override { return "Gated"; }
  AssignResult Run() override {
    {
      std::lock_guard<std::mutex> lock(gate_->mu);
      ++gate_->started;
    }
    gate_->cv.notify_all();
    std::unique_lock<std::mutex> lock(gate_->mu);
    gate_->cv.wait(lock, [this] { return gate_->release; });
    AssignResult result;
    result.stats.algorithm = "Gated";
    return result;
  }

 private:
  std::shared_ptr<Gate> gate_;
};

/// Registers the gated stub (before any server lane exists — Register
/// is not synchronized) and returns its gate.
std::shared_ptr<Gate> RegisterGatedMatcher() {
  auto gate = std::make_shared<Gate>();
  MatcherInfo info;
  info.name = "Gated";
  info.description = "test stub: blocks until released";
  info.factory = [gate](const MatcherEnv&) {
    return std::make_unique<GatedMatcher>(gate);
  };
  MatcherRegistry::Global().Register(std::move(info));
  return gate;
}

TEST(ServeAdmissionTest, FullQueueRejectsWithOverloaded) {
  const AssignmentProblem problem = SmallProblem(46000);
  DatasetRegistry registry;
  registry.Open("ds", problem);
  std::shared_ptr<Gate> gate = RegisterGatedMatcher();

  ServerOptions options;
  options.lanes = 1;
  options.max_queue = 1;
  Server server(&registry, options);

  Request request;
  request.dataset = "ds";
  request.matcher = "Gated";

  // First request occupies the single lane...
  ResponseFuture running = server.Submit(request);
  gate->WaitForStarted(1);
  // ...second fills the queue...
  ResponseFuture queued = server.Submit(request);
  // ...third must be rejected, immediately and without blocking.
  ResponseFuture rejected = server.Submit(request);
  EXPECT_TRUE(rejected.done());
  EXPECT_EQ(rejected.Wait().status.code, ServeCode::kOverloaded);

  gate->Release();
  EXPECT_TRUE(running.Wait().status.ok());
  EXPECT_TRUE(queued.Wait().status.ok());

  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.accepted, 2);
  EXPECT_EQ(counters.rejected, 1);
}

TEST(ServeAdmissionTest, InflightCapRejectsWithOverloaded) {
  const AssignmentProblem problem = SmallProblem(46500);
  DatasetRegistry registry;
  registry.Open("ds", problem);
  std::shared_ptr<Gate> gate = RegisterGatedMatcher();

  ServerOptions options;
  options.lanes = 2;
  options.max_queue = 16;
  options.max_inflight = 2;  // both lanes busy = at capacity
  Server server(&registry, options);

  Request request;
  request.dataset = "ds";
  request.matcher = "Gated";
  ResponseFuture a = server.Submit(request);
  ResponseFuture b = server.Submit(request);
  gate->WaitForStarted(2);
  ResponseFuture c = server.Submit(request);
  EXPECT_TRUE(c.done());
  EXPECT_EQ(c.Wait().status.code, ServeCode::kOverloaded);

  gate->Release();
  EXPECT_TRUE(a.Wait().status.ok());
  EXPECT_TRUE(b.Wait().status.ok());
}

TEST(ServeAdmissionTest, DrainCompletesEveryAcceptedRequest) {
  const AssignmentProblem problem = SmallProblem(47000);
  DatasetRegistry registry;
  registry.Open("ds", problem);

  ServerOptions options;
  options.lanes = 2;
  options.max_queue = 64;
  Server server(&registry, options);

  std::vector<ResponseFuture> futures;
  for (int i = 0; i < 16; ++i) {
    Request request;
    request.dataset = "ds";
    request.matcher = (i % 2 == 0) ? "SB" : "BruteForce";
    futures.push_back(server.Submit(std::move(request)));
  }
  server.Close();  // must drain, not drop

  int completed_ok = 0;
  for (ResponseFuture& future : futures) {
    const Response& response = future.Wait();
    if (response.status.ok()) ++completed_ok;
    EXPECT_GT(response.stats.pairs, 0u);
  }
  EXPECT_EQ(completed_ok, 16);

  // After Close, new submissions are turned away with kUnavailable.
  Request late;
  late.dataset = "ds";
  late.matcher = "SB";
  const Response response = server.Execute(late);
  EXPECT_EQ(response.status.code, ServeCode::kUnavailable);
  EXPECT_EQ(server.counters().completed, 16);
}

// --- typed errors instead of CHECK-fails -----------------------------

TEST(ServeErrorTest, BadRequestsGetTypedStatusesNotCrashes) {
  const AssignmentProblem problem = SmallProblem(48000);
  DatasetRegistry registry;
  registry.Open("plain", problem, [] {
    DatasetOptions o;
    o.build_packed = false;  // no packed image
    return o;
  }());
  Server server(&registry);

  Request request;
  request.dataset = "plain";
  request.matcher = "NoSuchMatcher";
  EXPECT_EQ(server.Execute(request).status.code, ServeCode::kNotFound);

  request.matcher = "SB";
  request.dataset = "no-such-dataset";
  EXPECT_EQ(server.Execute(request).status.code, ServeCode::kNotFound);

  request.dataset = "plain";
  request.matcher = "SB-Packed";  // needs the packed image
  EXPECT_EQ(server.Execute(request).status.code,
            ServeCode::kFailedPrecondition);

  request.matcher = "SB";
  request.buffer_fraction = -0.5;
  EXPECT_EQ(server.Execute(request).status.code,
            ServeCode::kInvalidArgument);

  // The service survived all of it.
  request.buffer_fraction = 0.02;
  EXPECT_TRUE(server.Execute(request).status.ok());
  EXPECT_EQ(server.counters().rejected, 4);
}

// --- dataset lifecycle -----------------------------------------------

TEST(DatasetLifecycleTest, SecondOpenSharesTheResidentStructures) {
  const AssignmentProblem problem = SmallProblem(49000);
  DatasetRegistry registry;
  DatasetHandle first = registry.Open("ds", problem);
  DatasetHandle second = registry.Open("ds", problem);
  EXPECT_EQ(first.get(), second.get()) << "warm open rebuilt the dataset";
  EXPECT_EQ(registry.cold_opens(), 1);
  EXPECT_EQ(registry.warm_opens(), 1);
  EXPECT_GT(first->build_ms(), 0.0);
  EXPECT_GT(first->memory_bytes(), 0u);
  EXPECT_EQ(registry.Names(), std::vector<std::string>{"ds"});
}

TEST(DatasetLifecycleTest, CloseWhileHandlesLiveIsSafe) {
  const AssignmentProblem problem = SmallProblem(49500);
  DatasetRegistry registry;
  DatasetHandle handle = registry.Open("ds", problem);
  EXPECT_TRUE(registry.Close("ds").ok());
  EXPECT_EQ(registry.Find("ds"), nullptr);
  EXPECT_EQ(registry.Close("ds").code, ServeCode::kNotFound);

  // The outstanding handle still works: the structures live until the
  // last reference drops.
  EXPECT_EQ(handle->problem().objects.size(), problem.objects.size());
  EXPECT_GT(handle->tree()->size(), 0);

  // Re-opening builds fresh structures (a cold open again).
  DatasetHandle reopened = registry.Open("ds", problem);
  EXPECT_NE(reopened.get(), handle.get());
  EXPECT_EQ(registry.cold_opens(), 2);
}

TEST(DatasetLifecycleTest, CloseUnderInflightTrafficIsSafe) {
  const AssignmentProblem problem = SmallProblem(49800);
  DatasetRegistry registry;
  registry.Open("ds", problem);
  std::shared_ptr<Gate> gate = RegisterGatedMatcher();

  ServerOptions options;
  options.lanes = 1;
  Server server(&registry, options);

  Request gated;
  gated.dataset = "ds";
  gated.matcher = "Gated";
  ResponseFuture inflight = server.Submit(gated);
  gate->WaitForStarted(1);

  // Drop the registry's reference while the request holds its own.
  EXPECT_TRUE(registry.Close("ds").ok());
  gate->Release();
  EXPECT_TRUE(inflight.Wait().status.ok());

  // The dataset is gone for NEW requests only.
  Request late;
  late.dataset = "ds";
  late.matcher = "SB";
  EXPECT_EQ(server.Execute(late).status.code, ServeCode::kNotFound);
}

// OpenOrError attaches a pre-built packed image and reports attach
// failures typed, with the PackedOpenError class in the detail — the
// difference between "deploy the file" (kNotFound), "rebuild the image"
// (kDataLoss) and "wrong problem" (kFailedPrecondition).
TEST(DatasetLifecycleTest, OpenOrErrorReportsTypedPackedImageFailures) {
  const AssignmentProblem problem = SmallProblem(49900);
  const std::string path = ::testing::TempDir() + "/serve_packed_image.pkfl";
  std::string error;
  ASSERT_TRUE(PackedFunctionStore::WriteFile(problem.functions, path,
                                             /*block_entries=*/64, &error))
      << error;

  DatasetRegistry registry;
  DatasetOptions options;
  options.packed_image_path = path;

  // A good image opens cold and serves the *-Packed variants.
  DatasetHandle handle;
  ASSERT_TRUE(registry.OpenOrError("ds", problem, options, &handle).ok());
  ASSERT_NE(handle, nullptr);
  ASSERT_NE(handle->packed(), nullptr);
  EXPECT_EQ(handle->packed()->size(),
            static_cast<int>(problem.functions.size()));

  // Missing file: kNotFound, classed IO_ERROR.
  options.packed_image_path = path + ".missing";
  ServeStatus status = registry.OpenOrError("other", problem, options);
  EXPECT_EQ(status.code, ServeCode::kNotFound);
  EXPECT_NE(status.message.find("IO_ERROR"), std::string::npos)
      << status.message;

  // Image for a different problem shape: kFailedPrecondition.
  options.packed_image_path = path;
  AssignmentProblem mismatched = problem;
  mismatched.functions.pop_back();
  status = registry.OpenOrError("other", mismatched, options);
  EXPECT_EQ(status.code, ServeCode::kFailedPrecondition);

  // Damaged image: kDataLoss, with the corruption class named.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_SET);
    std::fputc('X', f);  // clobber the magic
    std::fclose(f);
  }
  status = registry.OpenOrError("other", problem, options);
  EXPECT_EQ(status.code, ServeCode::kDataLoss);
  EXPECT_NE(status.message.find("BAD_MAGIC"), std::string::npos)
      << status.message;

  // The already-resident dataset is untouched by the failures above.
  EXPECT_TRUE(registry.OpenOrError("ds", problem, options).ok());
  std::remove(path.c_str());
}

// Epoch republish: a request is pinned to the epoch resident at
// Submit(). Requests submitted before a Publish() finish on the old
// epoch and byte-match the old dataset; requests submitted after see
// the new one; and once the server closes and every handle drops, the
// old epoch's refcount drains to zero.
TEST(DatasetLifecycleTest, RepublishStraddlingRequestsServeTheirEpoch) {
  const AssignmentProblem problem = SmallProblem(50100);
  DatasetRegistry registry;
  DatasetHandle old_epoch = registry.Open("ds", problem);

  // Build the next epoch off-lock while the old one serves. The batch
  // churns objects and a function; the new epoch builds its own packed
  // image and shares nothing with the old one, so the old epoch's
  // refcount must drain to zero below with the builder still alive.
  update::DeltaBuilder builder(old_epoch);
  update::UpdateBatch batch;
  for (ObjectId oid = 0; oid < 25; ++oid) batch.delete_objects.push_back(oid);
  batch.delete_functions.push_back(0);
  Rng fn_rng(50123);
  batch.insert_functions = GenerateFunctions(1, problem.dims, &fn_rng);
  ASSERT_TRUE(builder.Apply(batch, nullptr).ok());
  DatasetHandle new_epoch = builder.current();

  const uint64_t old_hash =
      MatchingHash(update::RunOnDataset(*old_epoch, "SB").matching);
  const uint64_t new_hash =
      MatchingHash(update::RunOnDataset(*new_epoch, "SB").matching);
  ASSERT_NE(old_hash, new_hash)
      << "the update must change the matching for the straddle to bite";

  ServerOptions options;
  options.lanes = 2;
  options.max_queue = 64;
  Server server(&registry, options);

  Request request;
  request.dataset = "ds";
  request.matcher = "SB";
  constexpr int kEach = 8;
  std::vector<ResponseFuture> before;
  for (int i = 0; i < kEach; ++i) before.push_back(server.Submit(request));

  DatasetHandle replaced = registry.Publish(new_epoch);
  ASSERT_EQ(replaced.get(), old_epoch.get());
  EXPECT_EQ(registry.republishes(), 1);

  std::vector<ResponseFuture> after;
  for (int i = 0; i < kEach; ++i) after.push_back(server.Submit(request));

  for (int i = 0; i < kEach; ++i) {
    const Response& response = before[i].Wait();
    ASSERT_TRUE(response.status.ok()) << response.status.message;
    EXPECT_EQ(MatchingHash(response.matching), old_hash)
        << "pre-publish request " << i << " left its epoch";
  }
  for (int i = 0; i < kEach; ++i) {
    const Response& response = after[i].Wait();
    ASSERT_TRUE(response.status.ok()) << response.status.message;
    EXPECT_EQ(MatchingHash(response.matching), new_hash)
        << "post-publish request " << i << " served the stale epoch";
  }
  server.Close();

  // Refcount drain: the server is closed and the registry now maps the
  // name to the new epoch, so dropping the local handles must destroy
  // the old epoch.
  std::weak_ptr<const ResidentDataset> old_weak = old_epoch;
  before.clear();
  after.clear();
  replaced.reset();
  old_epoch.reset();
  EXPECT_TRUE(old_weak.expired()) << "old epoch leaked after republish";
}

}  // namespace
}  // namespace fairmatch::serve

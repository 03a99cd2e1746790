// Update-vs-rebuild differential suite for incremental index updates
// (update/delta_builder.h).
//
// The headline property: applying a batch of updates to a resident
// dataset must be indistinguishable, for every query, from rebuilding
// every structure from scratch over the updated problem. Randomized
// seeded update traces (insert-only, delete-only, mixed; in-memory and
// mmap-backed packed images) drive a DeltaBuilder and after every epoch
// compare against a from-scratch rebuild: matchings byte-identical per
// matcher, maintained skylines equal to both a brute-force skyline and
// a fresh BBS, serving responses identical between the updated and the
// rebuilt dataset at 1/2/8 lanes, and R-tree structural invariants
// (MBR containment, level/size bookkeeping) after adversarial update
// orders. Epoch publishes are exercised under concurrent traffic (the
// TSan leg runs this binary) with refcount-drain checks.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fairmatch/common/rng.h"
#include "fairmatch/data/synthetic.h"
#include "fairmatch/geom/mbr.h"
#include "fairmatch/rtree/node.h"
#include "fairmatch/rtree/rtree.h"
#include "fairmatch/serve/dataset_registry.h"
#include "fairmatch/serve/server.h"
#include "fairmatch/skyline/delta_sky.h"
#include "fairmatch/topk/packed_function_lists.h"
#include "fairmatch/update/delta_builder.h"
#include "test_util.h"

namespace fairmatch {
namespace {

using serve::DatasetHandle;
using serve::DatasetOptions;
using serve::DatasetRegistry;
using serve::Request;
using serve::Response;
using serve::Server;
using serve::ServerOptions;
using testing::MemTree;
using testing::NaiveSkyline;
using testing::ProblemSpec;
using testing::RandomProblem;
using testing::RunRegisteredMatcher;
using update::DeltaBuilder;
using update::DeltaOptions;
using update::RunOnDataset;
using update::UpdateBatch;
using update::UpdateStats;

// The matchers the differential suite pins: the reference algorithm,
// the disk-resident-F variant, and the packed-image variant (which
// probes each epoch's freshly built packed image).
const char* const kMatchers[] = {"SB", "SB-alt", "SB-Packed"};

// ---- helpers ---------------------------------------------------------

void ExpectSameSequence(const Matching& got, const Matching& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].fid, want[i].fid) << label << " pair " << i;
    EXPECT_EQ(got[i].oid, want[i].oid) << label << " pair " << i;
    EXPECT_EQ(got[i].score, want[i].score) << label << " pair " << i;
  }
}

/// Recursive structural audit: stored levels decrease by one per edge,
/// every stored entry MBR contains its subtree's actual bounding box,
/// non-root nodes are non-empty, and leaf records are counted.
void AuditNode(const RTree& tree, PageId pid, int level, bool is_root,
               int64_t* leaf_records, MBR* actual_mbr) {
  NodeHandle handle = tree.ReadNode(pid);
  NodeView node = handle.view();
  ASSERT_EQ(node.level(), level);
  if (!is_root) {
    EXPECT_GE(node.count(), 1) << "underflowed non-root node " << pid;
  }
  *actual_mbr = MBR::Empty(tree.dims());
  for (int i = 0; i < node.count(); ++i) {
    if (node.is_leaf()) {
      actual_mbr->Expand(node.leaf_point(i));
      ++*leaf_records;
    } else {
      MBR child_actual = MBR::Empty(tree.dims());
      AuditNode(tree, node.child(i), level - 1, false, leaf_records,
                &child_actual);
      const MBR stored = node.entry_mbr(i);
      for (int d = 0; d < tree.dims(); ++d) {
        EXPECT_LE(stored.lo()[d], child_actual.lo()[d])
            << "entry " << i << " of node " << pid;
        EXPECT_GE(stored.hi()[d], child_actual.hi()[d])
            << "entry " << i << " of node " << pid;
      }
      actual_mbr->Expand(stored);
    }
  }
}

void CheckTreeInvariants(const RTree& tree,
                         const std::vector<ObjectItem>& objects) {
  int64_t leaf_records = 0;
  MBR root_mbr = MBR::Empty(tree.dims());
  AuditNode(tree, tree.root(), tree.root_level(), true, &leaf_records,
            &root_mbr);
  EXPECT_EQ(leaf_records, tree.size());
  EXPECT_EQ(leaf_records, static_cast<int64_t>(objects.size()));

  // The tree holds exactly the live records.
  std::vector<ObjectRecord> records = tree.ScanAll();
  ASSERT_EQ(records.size(), objects.size());
  std::sort(records.begin(), records.end(),
            [](const ObjectRecord& a, const ObjectRecord& b) {
              return a.id < b.id;
            });
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].id, static_cast<ObjectId>(i));
    for (int d = 0; d < tree.dims(); ++d) {
      EXPECT_EQ(records[i].point[d], objects[i].point[d]);
    }
  }
}

void CheckSkyline(const serve::ResidentDataset& dataset) {
  const AssignmentProblem& problem = dataset.problem();
  std::vector<Point> points;
  points.reserve(problem.objects.size());
  for (const ObjectItem& o : problem.objects) points.push_back(o.point);

  std::vector<int> naive = NaiveSkyline(points);
  std::vector<int> maintained;
  for (const ObjectRecord& m : dataset.skyline()) {
    maintained.push_back(m.id);
  }
  EXPECT_EQ(maintained, naive) << "maintained skyline != brute force";

  // And against a fresh BBS over a from-scratch tree.
  MemTree rebuilt(problem);
  DeltaSkyManager fresh(&rebuilt.tree);
  fresh.ComputeInitial();
  std::vector<int> recomputed;
  fresh.skyline().ForEach([&recomputed](int, const SkylineObject& m) {
    recomputed.push_back(m.id);
  });
  std::sort(recomputed.begin(), recomputed.end());
  EXPECT_EQ(maintained, recomputed) << "maintained skyline != fresh BBS";
}

/// The full per-epoch differential: dense ids, tree structure and
/// contents, maintained skyline, and byte-identical matchings between
/// the updated dataset and a from-scratch rebuild of its problem.
void VerifyEpochAgainstRebuild(const serve::ResidentDataset& dataset) {
  const AssignmentProblem& problem = dataset.problem();
  for (size_t i = 0; i < problem.objects.size(); ++i) {
    ASSERT_EQ(problem.objects[i].id, static_cast<ObjectId>(i));
  }
  for (size_t i = 0; i < problem.functions.size(); ++i) {
    ASSERT_EQ(problem.functions[i].id, static_cast<FunctionId>(i));
  }
  CheckTreeInvariants(*dataset.tree(), problem.objects);
  CheckSkyline(dataset);

  for (const char* name : kMatchers) {
    AssignResult updated = RunOnDataset(dataset, name);
    ASSERT_TRUE(updated.status.ok()) << name << ": " << updated.status.message;
    AssignResult rebuilt = RunRegisteredMatcher(name, problem);
    ASSERT_TRUE(rebuilt.status.ok()) << name;
    ExpectSameSequence(updated.matching, rebuilt.matching,
                       std::string(name) + " updated-vs-rebuilt, epoch " +
                           std::to_string(dataset.epoch()));
  }

  // Rebuild-path determinism: two independent from-scratch runs agree
  // on every counter (io, pairs, loops), which is what makes the
  // rebuild a usable reference.
  AssignResult a = RunRegisteredMatcher("SB-alt", problem);
  AssignResult b = RunRegisteredMatcher("SB-alt", problem);
  EXPECT_EQ(a.stats.io_accesses, b.stats.io_accesses);
  EXPECT_EQ(a.stats.pairs, b.stats.pairs);
  EXPECT_EQ(a.stats.loops, b.stats.loops);
}

/// One random batch against the current problem. `mode` cycles the
/// trace through insert-only, delete-only and mixed steps, with
/// function churn on the mixed steps.
UpdateBatch RandomBatch(Rng* rng, const AssignmentProblem& problem,
                        int mode) {
  UpdateBatch batch;
  const int num_objects = static_cast<int>(problem.objects.size());
  const int num_functions = static_cast<int>(problem.functions.size());
  const bool inserts = mode % 3 != 1;
  const bool deletes = mode % 3 != 0;
  if (deletes) {
    // Sample distinct ids; keep at least 2 objects alive.
    const int want = static_cast<int>(
        rng->UniformInt(1, std::max(1, num_objects / 4)));
    std::vector<bool> picked(num_objects, false);
    for (int i = 0; i < want &&
                    static_cast<int>(batch.delete_objects.size()) <
                        num_objects - 2;
         ++i) {
      const int id = static_cast<int>(rng->UniformInt(0, num_objects - 1));
      if (picked[id]) continue;
      picked[id] = true;
      batch.delete_objects.push_back(id);
    }
    if (num_functions > 3 && rng->UniformInt(0, 1) == 1) {
      batch.delete_functions.push_back(
          static_cast<FunctionId>(rng->UniformInt(0, num_functions - 1)));
    }
  }
  if (inserts) {
    const int want =
        static_cast<int>(rng->UniformInt(1, std::max(1, num_objects / 5)));
    for (int i = 0; i < want; ++i) {
      ObjectItem o;
      o.point = Point(problem.dims);
      for (int d = 0; d < problem.dims; ++d) {
        o.point[d] = static_cast<float>(rng->Uniform());
      }
      batch.insert_objects.push_back(o);
    }
    if (rng->UniformInt(0, 1) == 1) {
      Rng fn_rng(static_cast<uint64_t>(rng->UniformInt(1, 1 << 20)));
      FunctionSet fresh =
          GenerateFunctions(static_cast<int>(rng->UniformInt(1, 3)),
                            problem.dims, &fn_rng);
      for (PrefFunction& f : fresh) batch.insert_functions.push_back(f);
    }
  }
  return batch;
}

void RunTrace(uint64_t seed, bool packed_mmap) {
  ProblemSpec spec;
  spec.num_functions = 16 + static_cast<int>(seed % 5);
  spec.num_objects = 80 + static_cast<int>(seed % 17);
  spec.dims = 3;
  spec.seed = seed;
  AssignmentProblem problem = RandomProblem(spec);

  DatasetRegistry registry;
  DatasetOptions dopts;
  dopts.packed_mmap = packed_mmap;
  DatasetHandle base = registry.Open("trace", problem, dopts);

  DeltaOptions options;
  options.dataset = dopts;
  DeltaBuilder builder(base, options);

  Rng rng(seed * 7919 + 13);
  for (int step = 0; step < 4; ++step) {
    UpdateBatch batch =
        RandomBatch(&rng, builder.current()->problem(), step);
    UpdateStats stats;
    Status status = builder.Apply(batch, &stats);
    ASSERT_TRUE(status.ok()) << status.message;
    ASSERT_EQ(stats.epoch, builder.current()->epoch());
    VerifyEpochAgainstRebuild(*builder.current());
    if (::testing::Test::HasFailure()) return;
  }
}

// ---- the randomized differential traces ------------------------------

TEST(UpdateDifferential, InMemoryTraces) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunTrace(seed, /*packed_mmap=*/false);
    if (HasFailure()) return;
  }
}

TEST(UpdateDifferential, MmapBackedTraces) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunTrace(seed, /*packed_mmap=*/true);
    if (HasFailure()) return;
  }
}

// Adversarial update orders: drain most of the dataset one object at a
// time (worst case for condensation), then refill, checking structure
// every few steps.
TEST(UpdateDifferential, AdversarialDeleteRefill) {
  ProblemSpec spec;
  spec.num_objects = 120;
  spec.num_functions = 12;
  spec.seed = 99;
  AssignmentProblem problem = RandomProblem(spec);
  DatasetRegistry registry;
  DatasetHandle base = registry.Open("adversarial", problem, {});
  DeltaBuilder builder(base, {});

  Rng rng(777);
  // Delete down to 8 objects, always removing the current minimum and
  // maximum id alternately — maximal swap-with-last churn.
  while (builder.current()->problem().objects.size() > 8) {
    const int n =
        static_cast<int>(builder.current()->problem().objects.size());
    UpdateBatch batch;
    batch.delete_objects.push_back(0);
    if (n > 9) batch.delete_objects.push_back(n - 1);
    ASSERT_TRUE(builder.Apply(batch, nullptr).ok());
    if (builder.current()->problem().objects.size() % 16 == 0) {
      CheckTreeInvariants(*builder.current()->tree(),
                          builder.current()->problem().objects);
      CheckSkyline(*builder.current());
    }
  }
  VerifyEpochAgainstRebuild(*builder.current());

  // Refill in bursts.
  for (int burst = 0; burst < 3; ++burst) {
    UpdateBatch batch;
    for (int i = 0; i < 40; ++i) {
      ObjectItem o;
      o.point = Point(spec.dims);
      for (int d = 0; d < spec.dims; ++d) {
        o.point[d] = static_cast<float>(rng.Uniform());
      }
      batch.insert_objects.push_back(o);
    }
    ASSERT_TRUE(builder.Apply(batch, nullptr).ok());
  }
  VerifyEpochAgainstRebuild(*builder.current());
}

// ---- batch validation ------------------------------------------------

TEST(UpdateValidation, MalformedBatchesAreTypedAndAtomic) {
  AssignmentProblem problem = RandomProblem({});
  DatasetRegistry registry;
  DatasetHandle base = registry.Open("valid", problem, {});
  DeltaBuilder builder(base, {});

  const auto expect_rejected = [&](UpdateBatch batch) {
    Status status = builder.Apply(batch, nullptr);
    EXPECT_EQ(status.code, ErrorCode::kInvalidArgument) << status.message;
    EXPECT_EQ(builder.current().get(), base.get())
        << "rejected batch must leave the epoch untouched";
  };

  UpdateBatch out_of_range;
  out_of_range.delete_objects = {static_cast<ObjectId>(
      problem.objects.size())};
  expect_rejected(out_of_range);

  UpdateBatch duplicate;
  duplicate.delete_objects = {3, 3};
  expect_rejected(duplicate);

  UpdateBatch bad_dims;
  ObjectItem o;
  o.point = Point(problem.dims + 1);
  bad_dims.insert_objects.push_back(o);
  expect_rejected(bad_dims);

  UpdateBatch empty_functions;
  for (FunctionId f = 0;
       f < static_cast<FunctionId>(problem.functions.size()); ++f) {
    empty_functions.delete_functions.push_back(f);
  }
  expect_rejected(empty_functions);
}

// ---- packed image: built flat per epoch ------------------------------

// A function churn leaves the epoch with the same packed image a fresh
// build over its function set produces, and the epoch holds nothing of
// its predecessor: once the new epoch is published and the last handle
// to the old one drops, the old epoch is freed while the builder lives.
TEST(UpdatePacked, EpochImageIsFlatAndFreesItsPredecessor) {
  ProblemSpec spec;
  spec.num_functions = 20;
  spec.seed = 5;
  AssignmentProblem problem = RandomProblem(spec);
  DatasetRegistry registry;
  DatasetHandle base = registry.Open("packed", problem, {});
  const std::weak_ptr<const serve::ResidentDataset> base_weak = base;
  DeltaBuilder builder(base, {});

  UpdateBatch churn;
  churn.delete_functions = {1};
  Rng fn_rng(17);
  churn.insert_functions = GenerateFunctions(1, spec.dims, &fn_rng);
  UpdateStats stats;
  ASSERT_TRUE(builder.Apply(churn, &stats).ok());
  EXPECT_TRUE(stats.packed_compacted);
  const PackedFunctionStore* packed = builder.current()->packed();
  ASSERT_NE(packed, nullptr);
  PackedFunctionStore fresh(builder.current()->problem().functions);
  EXPECT_EQ(packed->image_bytes(), fresh.image_bytes());
  ASSERT_EQ(packed->num_blocks(), fresh.num_blocks());
  std::vector<int32_t> got(fresh.block_entries());
  std::vector<int32_t> want(fresh.block_entries());
  for (int d = 0; d < fresh.dims(); ++d) {
    for (int b = 0; b < fresh.num_blocks(); ++b) {
      EXPECT_EQ(packed->BlockMaxImpact(d, b), fresh.BlockMaxImpact(d, b));
      const int n = packed->DecodeBlock(d, b, got.data());
      ASSERT_EQ(n, fresh.DecodeBlock(d, b, want.data()));
      for (int i = 0; i < n; ++i) EXPECT_EQ(got[i], want[i]);
    }
  }
  VerifyEpochAgainstRebuild(*builder.current());

  registry.Publish(builder.current());
  base.reset();
  EXPECT_TRUE(base_weak.expired())
      << "the new epoch kept its predecessor alive";
}

// ---- serving equality at 1/2/8 lanes ---------------------------------

TEST(UpdateServing, ResponsesMatchRebuiltDataset) {
  for (uint64_t seed : {3u, 11u}) {
    ProblemSpec spec;
    spec.seed = seed;
    spec.num_objects = 90;
    AssignmentProblem problem = RandomProblem(spec);

    DatasetRegistry updated_registry;
    DatasetHandle base = updated_registry.Open("live", problem, {});
    DeltaBuilder builder(base, {});
    Rng rng(seed * 101 + 7);
    for (int step = 0; step < 2; ++step) {
      ASSERT_TRUE(builder
                      .Apply(RandomBatch(&rng, builder.current()->problem(),
                                         step + 2),
                             nullptr)
                      .ok());
    }
    ASSERT_EQ(updated_registry.Publish(builder.current()) != nullptr, true);

    // A second registry holds the from-scratch rebuild of the same
    // problem.
    DatasetRegistry rebuilt_registry;
    rebuilt_registry.Open("live", builder.current()->problem(), {});

    for (int lanes : {1, 2, 8}) {
      ServerOptions sopts;
      sopts.lanes = lanes;
      sopts.max_queue = 128;
      Server updated_server(&updated_registry, sopts);
      Server rebuilt_server(&rebuilt_registry, sopts);
      for (const char* matcher : kMatchers) {
        std::vector<serve::ResponseFuture> updated_futures;
        std::vector<serve::ResponseFuture> rebuilt_futures;
        for (int i = 0; i < 6; ++i) {
          Request request;
          request.dataset = "live";
          request.matcher = matcher;
          updated_futures.push_back(updated_server.Submit(request));
          rebuilt_futures.push_back(rebuilt_server.Submit(request));
        }
        for (int i = 0; i < 6; ++i) {
          const Response& u = updated_futures[i].Wait();
          const Response& r = rebuilt_futures[i].Wait();
          ASSERT_TRUE(u.status.ok()) << matcher << ": " << u.status.message;
          ASSERT_TRUE(r.status.ok()) << matcher << ": " << r.status.message;
          ExpectSameSequence(u.matching, r.matching,
                             std::string(matcher) + " seed " +
                                 std::to_string(seed) + " lanes " +
                                 std::to_string(lanes));
        }
      }
    }
  }
}

// ---- epoch republish under concurrent traffic (TSan target) ----------

TEST(UpdateEpochSwap, ConcurrentTrafficAcrossPublishes) {
  ProblemSpec spec;
  spec.num_objects = 70;
  spec.num_functions = 14;
  spec.seed = 21;
  AssignmentProblem problem = RandomProblem(spec);

  DatasetRegistry registry;
  DatasetOptions dopts;
  DatasetHandle base = registry.Open("live", problem, dopts);

  std::vector<std::weak_ptr<const serve::ResidentDataset>> epochs;
  epochs.push_back(base);

  // Expected matchings per published epoch, guarded: the publisher
  // appends, request threads snapshot.
  std::mutex expected_mu;
  std::map<std::string, std::vector<Matching>> expected;
  for (const char* matcher : kMatchers) {
    expected[matcher].push_back(RunOnDataset(*base, matcher).matching);
  }

  {
    ServerOptions sopts;
    sopts.lanes = 8;
    sopts.max_queue = 256;
    Server server(&registry, sopts);

    std::atomic<bool> publishing_done{false};
    std::thread publisher([&] {
      DeltaOptions options;
      options.dataset = dopts;
      DeltaBuilder builder(base, options);
      Rng rng(4242);
      for (int e = 0; e < 4; ++e) {
        UpdateBatch batch =
            RandomBatch(&rng, builder.current()->problem(), e + 2);
        Status status = builder.Apply(batch, nullptr);
        ASSERT_TRUE(status.ok()) << status.message;
        {
          std::lock_guard<std::mutex> lock(expected_mu);
          for (const char* matcher : kMatchers) {
            expected[matcher].push_back(
                RunOnDataset(*builder.current(), matcher).matching);
          }
          epochs.push_back(builder.current());
        }
        registry.Publish(builder.current());
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      publishing_done.store(true);
    });

    // Hammer the server from two client threads while epochs swap: every
    // response must be OK and byte-identical to the full matching of
    // SOME epoch (the one its handle captured at Submit).
    auto client = [&](int salt) {
      int round = 0;
      while (!publishing_done.load() || round < 4) {
        const char* matcher = kMatchers[(salt + round) % 3];
        Request request;
        request.dataset = "live";
        request.matcher = matcher;
        Response response = server.Execute(request);
        ASSERT_TRUE(response.status.ok()) << response.status.message;
        std::vector<Matching> snapshot;
        {
          std::lock_guard<std::mutex> lock(expected_mu);
          snapshot = expected[matcher];
        }
        bool matched_one = false;
        for (const Matching& want : snapshot) {
          if (want.size() != response.matching.size()) continue;
          bool same = true;
          for (size_t i = 0; i < want.size() && same; ++i) {
            same = want[i].fid == response.matching[i].fid &&
                   want[i].oid == response.matching[i].oid &&
                   want[i].score == response.matching[i].score;
          }
          if (same) {
            matched_one = true;
            break;
          }
        }
        EXPECT_TRUE(matched_one)
            << matcher << " response matches no epoch's matching";
        ++round;
      }
    };
    std::thread c1(client, 0);
    std::thread c2(client, 1);
    publisher.join();
    c1.join();
    c2.join();
    server.Close();
    EXPECT_EQ(registry.republishes(), 4);
  }

  // Refcount drain: with the server closed, the registry entry dropped
  // and every local handle released, every epoch must be destroyed.
  registry.Close("live");
  base.reset();
  for (size_t i = 0; i < epochs.size(); ++i) {
    EXPECT_TRUE(epochs[i].expired()) << "epoch handle " << i << " leaked";
  }
}

}  // namespace
}  // namespace fairmatch

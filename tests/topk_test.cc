// Tests for BRS ranked search and the reverse top-1 search (the
// impact-ordered TA kernel and the generic TA loop).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <thread>
#include <tuple>

#include "fairmatch/common/rng.h"
#include "fairmatch/data/synthetic.h"
#include "fairmatch/rtree/node_store.h"
#include "fairmatch/rtree/rtree.h"
#include "fairmatch/topk/disk_function_lists.h"
#include "fairmatch/topk/function_lists.h"
#include "fairmatch/topk/packed_function_lists.h"
#include "fairmatch/topk/ranked_search.h"
#include "fairmatch/topk/reverse_top1.h"
#include "test_util.h"

namespace fairmatch {
namespace {

using fairmatch::testing::GridFunctions;
using fairmatch::testing::GridPoints;

PrefFunction MakeFn(std::initializer_list<double> weights, double gamma = 1) {
  PrefFunction f;
  f.id = 0;
  f.dims = static_cast<int>(weights.size());
  int d = 0;
  for (double w : weights) f.alpha[d++] = w;
  f.gamma = gamma;
  return f;
}

std::vector<std::pair<double, ObjectId>> ReferenceRanking(
    const std::vector<Point>& points, const PrefFunction& f) {
  std::vector<std::pair<double, ObjectId>> ranked;
  for (size_t i = 0; i < points.size(); ++i) {
    ranked.emplace_back(f.Score(points[i]), static_cast<ObjectId>(i));
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  return ranked;
}

TEST(RankedSearchTest, EmitsFullDescendingOrder) {
  Rng rng(1);
  auto points = GeneratePoints(Distribution::kIndependent, 700, 3, &rng);
  MemNodeStore store(3);
  RTree tree(&store);
  std::vector<ObjectRecord> records;
  for (size_t i = 0; i < points.size(); ++i) {
    records.push_back({points[i], static_cast<ObjectId>(i)});
  }
  tree.BulkLoad(records);

  PrefFunction f = MakeFn({0.5, 0.2, 0.3});
  RankedSearch search(&tree, &f);
  auto expect = ReferenceRanking(points, f);
  for (const auto& [score, oid] : expect) {
    auto hit = search.Next();
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->id, oid);
    EXPECT_DOUBLE_EQ(hit->score, score);
  }
  EXPECT_FALSE(search.Next().has_value());
}

TEST(RankedSearchTest, TieBreakBySmallerIdOnGrid) {
  auto points = GridPoints(500, 2, 4, 7);  // many exact ties
  MemNodeStore store(2);
  RTree tree(&store);
  std::vector<ObjectRecord> records;
  for (size_t i = 0; i < points.size(); ++i) {
    records.push_back({points[i], static_cast<ObjectId>(i)});
  }
  tree.BulkLoad(records);
  PrefFunction f = MakeFn({0.25, 0.75});
  RankedSearch search(&tree, &f);
  auto expect = ReferenceRanking(points, f);
  for (const auto& [score, oid] : expect) {
    auto hit = search.Next();
    ASSERT_TRUE(hit.has_value());
    ASSERT_EQ(hit->id, oid) << "tie broken differently at score " << score;
  }
}

TEST(RankedSearchTest, AliveFilterSkipsDeadObjects) {
  Rng rng(2);
  auto points = GeneratePoints(Distribution::kAntiCorrelated, 300, 2, &rng);
  MemNodeStore store(2);
  RTree tree(&store);
  std::vector<ObjectRecord> records;
  for (size_t i = 0; i < points.size(); ++i) {
    records.push_back({points[i], static_cast<ObjectId>(i)});
  }
  tree.BulkLoad(records);
  PrefFunction f = MakeFn({0.6, 0.4});
  std::vector<uint8_t> alive(points.size(), 1);
  for (size_t i = 0; i < points.size(); i += 3) alive[i] = 0;

  RankedSearch search(&tree, &f);
  std::optional<double> last;
  int count = 0;
  while (auto hit = search.Next(&alive)) {
    EXPECT_TRUE(alive[hit->id]);
    if (last.has_value()) {
      EXPECT_LE(hit->score, *last);
    }
    last = hit->score;
    count++;
  }
  EXPECT_EQ(count, static_cast<int>(std::count(alive.begin(), alive.end(),
                                               uint8_t{1})));
}

TEST(RankedSearchTest, ResumeAfterTombstoning) {
  Rng rng(3);
  auto points = GeneratePoints(Distribution::kIndependent, 200, 2, &rng);
  MemNodeStore store(2);
  RTree tree(&store);
  std::vector<ObjectRecord> records;
  for (size_t i = 0; i < points.size(); ++i) {
    records.push_back({points[i], static_cast<ObjectId>(i)});
  }
  tree.BulkLoad(records);
  PrefFunction f = MakeFn({0.5, 0.5});
  std::vector<uint8_t> alive(points.size(), 1);

  RankedSearch search(&tree, &f);
  auto first = search.Next(&alive);
  ASSERT_TRUE(first.has_value());
  // Kill the next-best object, then resume: result skips it.
  auto expect = ReferenceRanking(points, f);
  alive[expect[1].second] = 0;
  auto second = search.Next(&alive);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, expect[2].second);
}

// ---------------------------------------------------------------------------
// Reverse top-1
// ---------------------------------------------------------------------------

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

std::pair<FunctionId, double> ReferenceBestFn(
    const FunctionSet& fns, const Point& o,
    const std::vector<uint8_t>& assigned) {
  FunctionId best = kInvalidFunction;
  double best_s = 0.0;
  for (const PrefFunction& f : fns) {
    if (assigned[f.id]) continue;
    double s = f.Score(o);
    if (best == kInvalidFunction || s > best_s ||
        (s == best_s && f.id < best)) {
      best = f.id;
      best_s = s;
    }
  }
  return {best, best_s};
}

struct TaParam {
  double omega;
  bool biased;
  int max_gamma;
};

class ReverseTop1ParamTest : public ::testing::TestWithParam<TaParam> {};

TEST_P(ReverseTop1ParamTest, MatchesExhaustiveUnderAssignmentChurn) {
  TaParam param = GetParam();
  Rng rng(11);
  FunctionSet fns = GenerateFunctions(300, 4, &rng);
  if (param.max_gamma > 1) AssignPriorities(&fns, param.max_gamma, &rng);
  FunctionLists lists(&fns);
  ReverseTop1Options options;
  options.omega = param.omega;
  options.biased_probing = param.biased;
  ReverseTop1 rt1(&lists, options);

  auto points = GeneratePoints(Distribution::kIndependent, 40, 4, &rng);
  std::vector<uint8_t> assigned(fns.size(), 0);
  std::vector<ReverseTop1State> states(points.size());

  // Interleave queries with function assignments, exercising resume.
  for (int round = 0; round < 12; ++round) {
    for (size_t i = 0; i < points.size(); ++i) {
      auto expect = ReferenceBestFn(fns, points[i], assigned);
      auto got = rt1.Best(&states[i], points[i], assigned);
      if (expect.first == kInvalidFunction) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->first, expect.first) << "round " << round;
        EXPECT_DOUBLE_EQ(got->second, expect.second);
      }
    }
    // Assign ~8% of the remaining functions.
    for (size_t f = round; f < fns.size(); f += 13) assigned[f] = 1;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OmegaAndProbing, ReverseTop1ParamTest,
    ::testing::Values(TaParam{0.025, true, 1}, TaParam{0.025, false, 1},
                      TaParam{0.5, true, 1}, TaParam{0.004, true, 1},
                      TaParam{0.025, true, 4}, TaParam{0.1, false, 8}));

TEST(ReverseTop1Test, TieHeavyGridAgreesWithExhaustive) {
  FunctionSet fns = GridFunctions(150, 3, 4, 21);
  FunctionLists lists(&fns);
  ReverseTop1 rt1(&lists, ReverseTop1Options{});
  auto points = GridPoints(60, 3, 4, 22);
  std::vector<uint8_t> assigned(fns.size(), 0);
  std::vector<ReverseTop1State> states(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    auto expect = ReferenceBestFn(fns, points[i], assigned);
    auto got = rt1.Best(&states[i], points[i], assigned);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->first, expect.first);
  }
}

TEST(ReverseTop1Test, AllAssignedReturnsNothing) {
  Rng rng(31);
  FunctionSet fns = GenerateFunctions(20, 3, &rng);
  FunctionLists lists(&fns);
  ReverseTop1 rt1(&lists, ReverseTop1Options{});
  std::vector<uint8_t> assigned(fns.size(), 1);
  ReverseTop1State state;
  Point o(3, 0.5f);
  EXPECT_FALSE(rt1.Best(&state, o, assigned).has_value());
}

// TA probing over the counted-disk lists, the one index where both
// probing strategies run TA: biased probing probes no more list entries
// than round-robin.
TEST(ReverseTop1Test, BiasedProbingProbesNoMoreThanRoundRobin) {
  Rng rng(41);
  FunctionSet fns = GenerateFunctions(2000, 4, &rng);
  DiskFunctionStore disk_lists(fns, /*buffer_fraction=*/0.3);
  auto points = GeneratePoints(Distribution::kAntiCorrelated, 100, 4, &rng);
  std::vector<uint8_t> assigned(fns.size(), 0);

  int64_t probes[2];
  for (const bool biased : {true, false}) {
    ReverseTop1Options options;
    options.biased_probing = biased;
    ReverseTop1 rt1(&disk_lists, options);
    for (const Point& p : points) {
      ReverseTop1State state;
      rt1.Best(&state, p, assigned);
    }
    probes[biased ? 0 : 1] = rt1.probes();
  }
  EXPECT_LE(probes[0], probes[1]);
}

TEST(FunctionListsTest, ListsSortedDescendingPerDimension) {
  Rng rng(51);
  FunctionSet fns = GenerateFunctions(500, 5, &rng);
  FunctionLists lists(&fns);
  for (int d = 0; d < 5; ++d) {
    double prev = 1e100;
    for (int pos = 0; pos < lists.size(); ++pos) {
      auto [coef, fid] = lists.Entry(d, pos);
      EXPECT_LE(coef, prev);
      EXPECT_DOUBLE_EQ(coef, fns[fid].eff(d));
      prev = coef;
    }
  }
  EXPECT_DOUBLE_EQ(lists.max_gamma(), 1.0);
}

// ---------------------------------------------------------------------------
// Disk-resident lists
// ---------------------------------------------------------------------------

TEST(DiskFunctionStoreTest, EntriesMatchInMemoryLists) {
  Rng rng(61);
  FunctionSet fns = GenerateFunctions(700, 4, &rng);
  FunctionLists mem_lists(&fns);
  DiskFunctionStore disk_lists(fns, /*buffer_fraction=*/0.5);
  for (int d = 0; d < 4; ++d) {
    for (int pos = 0; pos < 700; pos += 31) {
      auto a = mem_lists.Entry(d, pos);
      auto b = disk_lists.Entry(d, pos);
      EXPECT_EQ(a.second, b.second);
      EXPECT_DOUBLE_EQ(a.first, b.first);
    }
  }
}

TEST(DiskFunctionStoreTest, ScoreOfBitIdenticalToMemory) {
  Rng rng(62);
  FunctionSet fns = GenerateFunctions(300, 5, &rng);
  AssignPriorities(&fns, 4, &rng);
  DiskFunctionStore store(fns, 0.5);
  auto points = GeneratePoints(Distribution::kIndependent, 50, 5, &rng);
  for (const Point& p : points) {
    for (FunctionId fid = 0; fid < 300; fid += 17) {
      EXPECT_EQ(store.ScoreOf(fid, p), fns[fid].Score(p));
    }
  }
}

TEST(DiskFunctionStoreTest, CountsIo) {
  Rng rng(63);
  FunctionSet fns = GenerateFunctions(4000, 4, &rng);
  DiskFunctionStore store(fns, /*buffer_fraction=*/0.0);
  EXPECT_EQ(store.counters().io_accesses(), 0);
  Point p(4, 0.5f);
  store.ScoreOf(0, p);
  // One random access per list with no buffer.
  EXPECT_EQ(store.counters().page_reads, 4);
  store.ResetCounters();
  std::vector<ListRecord> page;
  store.ReadListPage(0, 0, &page);
  EXPECT_EQ(store.counters().page_reads, 1);
  EXPECT_EQ(static_cast<int>(page.size()), store.records_per_page());
}

// The memory-resident lists (FunctionLists) against the counted-disk
// lists (DiskFunctionStore), both through the generic TA loop, under
// assignment churn: every returned id, every score bit pattern and,
// round by round, both work counters agree. The final totals are the
// TA loop's seed values.
struct BackendParam {
  int dims;
  double omega;
  bool resume;
};

struct BackendGolden {
  int64_t probes;
  int64_t restarts;
};

void ExpectBackendsAgree(const FunctionSet& fns,
                         const std::vector<Point>& points,
                         ReverseTop1Options options,
                         const BackendGolden& golden) {
  FunctionLists mem_lists(&fns);
  DiskFunctionStore disk_lists(fns, 0.3);
  ReverseTop1 mem_rt1(&mem_lists, options);
  ReverseTop1 disk_rt1(&disk_lists, options);
  std::vector<uint8_t> assigned(fns.size(), 0);
  std::vector<ReverseTop1State> mem_states(points.size());
  std::vector<ReverseTop1State> disk_states(points.size());
  for (int round = 0; round < 10; ++round) {
    for (size_t i = 0; i < points.size(); ++i) {
      auto a = mem_rt1.Best(&mem_states[i], points[i], assigned);
      auto b = disk_rt1.Best(&disk_states[i], points[i], assigned);
      ASSERT_EQ(a.has_value(), b.has_value()) << "round " << round;
      if (!a.has_value()) continue;
      EXPECT_EQ(a->first, b->first) << "round " << round << " point " << i;
      EXPECT_EQ(Bits(a->second), Bits(b->second)) << "round " << round;
    }
    ASSERT_EQ(mem_rt1.probes(), disk_rt1.probes()) << "round " << round;
    ASSERT_EQ(mem_rt1.restarts(), disk_rt1.restarts()) << "round " << round;
    for (size_t f = round; f < fns.size(); f += 11) assigned[f] = 1;
  }
  EXPECT_EQ(disk_rt1.probes(), golden.probes);
  EXPECT_EQ(disk_rt1.restarts(), golden.restarts);
  EXPECT_GT(disk_lists.counters().io_accesses(), 0);
}

struct BackendCase {
  BackendParam param;
  BackendGolden golden;
};

class KernelVsGenericTest : public ::testing::TestWithParam<BackendCase> {};

TEST_P(KernelVsGenericTest, ChurnAgreesBitForBit) {
  const BackendParam param = GetParam().param;
  Rng rng(64 + param.dims);
  FunctionSet fns = GenerateFunctions(400, param.dims, &rng);
  auto points =
      GeneratePoints(Distribution::kAntiCorrelated, 60, param.dims, &rng);
  ReverseTop1Options options;
  options.omega = param.omega;
  options.resume = param.resume;
  ExpectBackendsAgree(fns, points, options, GetParam().golden);
}

INSTANTIATE_TEST_SUITE_P(
    DimsOmegaResume, KernelVsGenericTest,
    ::testing::Values(
        BackendCase{{2, 0.025, true}, {180, 0}},
        BackendCase{{2, 0.025, false}, {720, 0}},
        BackendCase{{2, 0.006, true}, {180, 0}},
        BackendCase{{2, 0.006, false}, {720, 0}},
        BackendCase{{4, 0.025, true}, {3624, 1}},
        BackendCase{{4, 0.025, false}, {20276, 0}},
        BackendCase{{4, 0.006, true}, {4572, 36}},
        BackendCase{{4, 0.006, false}, {20276, 0}},
        BackendCase{{8, 0.025, true}, {11357, 5}},
        BackendCase{{8, 0.025, false}, {72035, 0}},
        BackendCase{{8, 0.006, true}, {15289, 49}},
        BackendCase{{8, 0.006, false}, {72035, 0}}));

TEST(KernelVsGenericGridTest, TieHeavyGridAgreesBitForBit) {
  FunctionSet fns = GridFunctions(150, 3, 4, 21);
  auto points = GridPoints(60, 3, 4, 22);
  ExpectBackendsAgree(fns, points, ReverseTop1Options{}, {2715, 38});
}

// ---------------------------------------------------------------------------
// The impact-ordered kernel against the exhaustive oracle
// ---------------------------------------------------------------------------

// dims, omega, resume, max_gamma, tie-heavy grid functions and points.
using OracleParam = std::tuple<int, double, bool, int, bool>;

class ImpactKernelOracleTest : public ::testing::TestWithParam<OracleParam> {
};

// Every call of the TA kernel over impact-ordered packed blocks (SB's
// in-memory search) returns the oracle's winner (id and score bits)
// under churn that assigns both scattered functions and the winners
// themselves (queue pops, Omega restarts at omega = 0.004, where Omega
// is one candidate). FunctionLists' generic loop answers every call
// the same way.
TEST_P(ImpactKernelOracleTest, EveryCallMatchesExhaustive) {
  const auto [dims, omega, resume, max_gamma, grid] = GetParam();
  Rng rng(900 + dims);
  FunctionSet fns = grid ? GridFunctions(300, dims, 3, 901 + dims)
                         : GenerateFunctions(300, dims, &rng);
  if (max_gamma > 1) AssignPriorities(&fns, max_gamma, &rng);
  const std::vector<Point> points =
      grid ? GridPoints(40, dims, 3, 950 + dims)
           : GeneratePoints(Distribution::kAntiCorrelated, 40, dims, &rng);
  ReverseTop1Options options;
  options.omega = omega;
  options.resume = resume;
  FunctionLists lists(&fns);
  // Small blocks, so a list spans many of them and the block frontier
  // moves on every probe.
  PackedStoreOptions packed_options;
  packed_options.block_entries = 16;
  PackedFunctionStore packed(fns, packed_options);
  ReverseTop1 rt1(&packed, options);
  ReverseTop1 lists_rt1(&lists, options);
  ASSERT_TRUE(rt1.concurrent());
  ASSERT_FALSE(lists_rt1.concurrent());
  std::vector<uint8_t> assigned(fns.size(), 0);
  int64_t remaining = static_cast<int64_t>(fns.size());
  const auto assign = [&](FunctionId fid) {
    if (assigned[fid]) return;
    assigned[fid] = 1;
    remaining--;
  };
  std::vector<ReverseTop1State> states(points.size());
  std::vector<ReverseTop1State> lists_states(points.size());
  for (int round = 0; remaining > 0 && round < 40; ++round) {
    for (size_t i = 0; i < points.size(); ++i) {
      const auto want = ReferenceBestFn(fns, points[i], assigned);
      const auto got = rt1.Best(&states[i], points[i], assigned, remaining);
      const auto got_lists = lists_rt1.Best(&lists_states[i], points[i],
                                            assigned, remaining);
      if (want.first == kInvalidFunction) {
        EXPECT_FALSE(got.has_value());
        EXPECT_FALSE(got_lists.has_value());
        continue;
      }
      ASSERT_TRUE(got.has_value()) << "round " << round << " point " << i;
      ASSERT_TRUE(got_lists.has_value());
      ASSERT_EQ(got->first, want.first) << "round " << round << " point " << i;
      ASSERT_EQ(Bits(got->second), Bits(want.second)) << "round " << round;
      ASSERT_EQ(got_lists->first, want.first);
      ASSERT_EQ(Bits(got_lists->second), Bits(want.second));
      if (i % 3 == 0) assign(got->first);
    }
    for (size_t f = round; f < fns.size(); f += 13) {
      assign(static_cast<FunctionId>(f));
    }
  }
  EXPECT_EQ(remaining, 0);
  if (resume && omega < 0.01) {
    EXPECT_GT(rt1.restarts(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, ImpactKernelOracleTest,
    ::testing::Combine(::testing::Range(1, kMaxDims + 1),
                       ::testing::Values(0.025, 0.004), ::testing::Bool(),
                       ::testing::Values(1, 4), ::testing::Values(false)));

INSTANTIATE_TEST_SUITE_P(
    TieHeavyGrid, ImpactKernelOracleTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(0.025, 0.004), ::testing::Bool(),
                       ::testing::Values(1), ::testing::Values(true)));

// ---------------------------------------------------------------------------
// The kernel with assignments reported through OnFunctionAssigned
// ---------------------------------------------------------------------------

// dims, block entries, mmap placement.
using HookParam = std::tuple<int, int, bool>;

class HookedKernelTest : public ::testing::TestWithParam<HookParam> {};

// Seeded churn over one packed image, searched by a kernel that is told
// of every newly assigned function (hooked) and one that is not
// (unhooked). Besides scattered functions and some winners, rounds
// assign a whole block of one list and the first 64 entries of another
// block, so blocks die and blocks keep live entries only past their
// first mask word. After every call both kernels return the winner of
// FunctionLists' generic loop and of the exhaustive oracle (id and
// score bits), and in total the hooked kernel probes no more entries.
TEST_P(HookedKernelTest, EveryCallMatchesOracleAndProbesNoMore) {
  const auto [dims, block_entries, use_mmap] = GetParam();
  Rng rng(1300 + 7 * dims + block_entries);
  FunctionSet fns = GenerateFunctions(420, dims, &rng);
  if (dims == 3) AssignPriorities(&fns, 4, &rng);
  const std::vector<Point> points =
      GeneratePoints(Distribution::kAntiCorrelated, 40, dims, &rng);
  FunctionLists lists(&fns);
  PackedStoreOptions packed_options;
  packed_options.block_entries = block_entries;
  packed_options.use_mmap = use_mmap;
  PackedFunctionStore packed(fns, packed_options);
  ASSERT_EQ(packed.mapped(), use_mmap);
  std::vector<int32_t> ids(packed.block_entries());
  for (const bool resume : {true, false}) {
    ReverseTop1Options options;
    options.omega = 0.01;
    options.resume = resume;
    ReverseTop1 hooked(&packed, options);
    ReverseTop1 unhooked(&packed, options);
    ReverseTop1 oracle(&lists, options);
    std::vector<uint8_t> assigned(fns.size(), 0);
    int64_t remaining = static_cast<int64_t>(fns.size());
    const auto assign = [&](FunctionId fid) {
      if (assigned[fid]) return;
      assigned[fid] = 1;
      remaining--;
      hooked.OnFunctionAssigned(fid);
    };
    std::vector<ReverseTop1State> hooked_states(points.size());
    std::vector<ReverseTop1State> unhooked_states(points.size());
    std::vector<ReverseTop1State> oracle_states(points.size());
    for (int round = 0; remaining > 0 && round < 60; ++round) {
      for (size_t i = 0; i < points.size(); ++i) {
        const auto want = ReferenceBestFn(fns, points[i], assigned);
        const auto got_oracle =
            oracle.Best(&oracle_states[i], points[i], assigned, remaining);
        const auto got_hooked =
            hooked.Best(&hooked_states[i], points[i], assigned, remaining);
        const auto got_unhooked = unhooked.Best(&unhooked_states[i],
                                                points[i], assigned, remaining);
        if (want.first == kInvalidFunction) {
          ASSERT_FALSE(got_oracle.has_value());
          ASSERT_FALSE(got_hooked.has_value());
          ASSERT_FALSE(got_unhooked.has_value());
          continue;
        }
        ASSERT_TRUE(got_oracle.has_value());
        ASSERT_TRUE(got_hooked.has_value())
            << "resume " << resume << " round " << round << " point " << i;
        ASSERT_TRUE(got_unhooked.has_value());
        ASSERT_EQ(got_oracle->first, want.first);
        ASSERT_EQ(got_hooked->first, want.first)
            << "resume " << resume << " round " << round << " point " << i;
        ASSERT_EQ(Bits(got_hooked->second), Bits(want.second));
        ASSERT_EQ(got_unhooked->first, want.first)
            << "resume " << resume << " round " << round << " point " << i;
        ASSERT_EQ(Bits(got_unhooked->second), Bits(want.second));
        if (i % 4 == 0) assign(got_hooked->first);
      }
      const int whole_dim = round % dims;
      const int count = packed.DecodeBlock(
          whole_dim, static_cast<int>(rng.UniformInt(0, packed.num_blocks() - 1)),
          ids.data());
      for (int k = 0; k < count; ++k) assign(ids[k]);
      const int head_count = packed.DecodeBlock(
          (round + 1) % dims,
          static_cast<int>(rng.UniformInt(0, packed.num_blocks() - 1)),
          ids.data());
      for (int k = 0; k < std::min(head_count, 64); ++k) assign(ids[k]);
      for (size_t f = round; f < fns.size(); f += 29) {
        assign(static_cast<FunctionId>(f));
      }
    }
    EXPECT_EQ(remaining, 0);
    EXPECT_LE(hooked.probes(), unhooked.probes()) << "resume " << resume;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsBlocksPlacement, HookedKernelTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 6),
                       ::testing::Values(1, 100, 128), ::testing::Bool()));

// ---------------------------------------------------------------------------
// Concurrent searches over one shared searcher
// ---------------------------------------------------------------------------

// Several threads call Best() at once on distinct states over one shared
// ReverseTop1 (the SB fan-out contract): every result and the probe and
// restart totals equal a one-thread run, round after round of churn,
// with and without the assignments reported through OnFunctionAssigned
// between rounds (SB reports them between fan-outs). The TA kernel
// over impact-ordered packed blocks is the one concurrent search.
class ReverseTop1ParallelTest : public ::testing::TestWithParam<bool> {};

TEST_P(ReverseTop1ParallelTest, DistinctStatesShareOneSearcher) {
  constexpr int kThreads = 4;
  const bool hooked = GetParam();
  Rng rng(77);
  const FunctionSet fns = GenerateFunctions(1500, 5, &rng);
  const auto points =
      GeneratePoints(Distribution::kAntiCorrelated, 96, 5, &rng);
  PackedFunctionStore packed(fns);
  ReverseTop1Options options;
  options.omega = 0.006;
  ReverseTop1 shared(&packed, options);
  ReverseTop1 serial(&packed, options);
  ASSERT_TRUE(shared.concurrent());
  std::vector<ReverseTop1State> shared_states(points.size());
  std::vector<ReverseTop1State> serial_states(points.size());
  std::vector<uint8_t> assigned(fns.size(), 0);
  const auto assign = [&](FunctionId fid) {
    if (assigned[fid]) return;
    assigned[fid] = 1;
    if (!hooked) return;
    shared.OnFunctionAssigned(fid);
    serial.OnFunctionAssigned(fid);
  };
  for (int round = 0; round < 8; ++round) {
    std::vector<std::optional<std::pair<FunctionId, double>>> got(
        points.size());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < points.size(); i += kThreads) {
          got[i] = shared.Best(&shared_states[i], points[i], assigned);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t i = 0; i < points.size(); ++i) {
      const auto want = serial.Best(&serial_states[i], points[i], assigned);
      ASSERT_EQ(got[i].has_value(), want.has_value());
      if (!want.has_value()) continue;
      ASSERT_EQ(got[i]->first, want->first)
          << "round " << round << " point " << i;
      ASSERT_EQ(Bits(got[i]->second), Bits(want->second));
    }
    EXPECT_EQ(shared.probes(), serial.probes()) << "round " << round;
    EXPECT_EQ(shared.restarts(), serial.restarts()) << "round " << round;
    for (size_t i = 0; i < points.size(); i += 2) {
      if (got[i].has_value()) assign(got[i]->first);
    }
    for (size_t f = round; f < fns.size(); f += 17) {
      assign(static_cast<FunctionId>(f));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Hook, ReverseTop1ParallelTest, ::testing::Bool());

}  // namespace
}  // namespace fairmatch

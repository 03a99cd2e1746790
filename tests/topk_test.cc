// Tests for BRS ranked search and the TA-based reverse top-1 search.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>

#include "fairmatch/common/rng.h"
#include "fairmatch/data/synthetic.h"
#include "fairmatch/rtree/node_store.h"
#include "fairmatch/rtree/rtree.h"
#include "fairmatch/topk/disk_function_lists.h"
#include "fairmatch/topk/function_lists.h"
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
// Reverse top-1 (TA)
// ---------------------------------------------------------------------------

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

TEST(ReverseTop1Test, BiasedProbingProbesNoMoreThanRoundRobin) {
  Rng rng(41);
  FunctionSet fns = GenerateFunctions(2000, 4, &rng);
  FunctionLists lists(&fns);
  auto points = GeneratePoints(Distribution::kAntiCorrelated, 100, 4, &rng);
  std::vector<uint8_t> assigned(fns.size(), 0);

  int64_t probes_biased;
  int64_t probes_rr;
  {
    ReverseTop1Options options;
    options.biased_probing = true;
    ReverseTop1 rt1(&lists, options);
    for (const Point& p : points) {
      ReverseTop1State state;
      rt1.Best(&state, p, assigned);
    }
    probes_biased = rt1.probes();
  }
  {
    ReverseTop1Options options;
    options.biased_probing = false;
    ReverseTop1 rt1(&lists, options);
    for (const Point& p : points) {
      ReverseTop1State state;
      rt1.Best(&state, p, assigned);
    }
    probes_rr = rt1.probes();
  }
  EXPECT_LE(probes_biased, probes_rr);
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

// The memory-resident probe kernel (FunctionLists) against the generic
// counted loop (DiskFunctionStore) under assignment churn: every
// returned id, every score bit pattern and both work counters agree.
struct BackendParam {
  int dims;
  double omega;
  bool resume;
};

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

void ExpectBackendsAgree(const FunctionSet& fns,
                         const std::vector<Point>& points,
                         ReverseTop1Options options) {
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
  EXPECT_GT(disk_lists.counters().io_accesses(), 0);
}

class KernelVsGenericTest : public ::testing::TestWithParam<BackendParam> {};

TEST_P(KernelVsGenericTest, ChurnAgreesBitForBit) {
  const BackendParam param = GetParam();
  Rng rng(64 + param.dims);
  FunctionSet fns = GenerateFunctions(400, param.dims, &rng);
  auto points =
      GeneratePoints(Distribution::kAntiCorrelated, 60, param.dims, &rng);
  ReverseTop1Options options;
  options.omega = param.omega;
  options.resume = param.resume;
  ExpectBackendsAgree(fns, points, options);
}

INSTANTIATE_TEST_SUITE_P(
    DimsOmegaResume, KernelVsGenericTest,
    ::testing::Values(BackendParam{2, 0.025, true}, BackendParam{2, 0.025, false},
                      BackendParam{2, 0.006, true}, BackendParam{2, 0.006, false},
                      BackendParam{4, 0.025, true}, BackendParam{4, 0.025, false},
                      BackendParam{4, 0.006, true}, BackendParam{4, 0.006, false},
                      BackendParam{8, 0.025, true}, BackendParam{8, 0.025, false},
                      BackendParam{8, 0.006, true},
                      BackendParam{8, 0.006, false}));

TEST(KernelVsGenericGridTest, TieHeavyGridAgreesBitForBit) {
  FunctionSet fns = GridFunctions(150, 3, 4, 21);
  auto points = GridPoints(60, 3, 4, 22);
  ExpectBackendsAgree(fns, points, ReverseTop1Options{});
}

}  // namespace
}  // namespace fairmatch

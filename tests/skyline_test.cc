// Tests for BBS, UpdateSkyline (incl. the Theorem 1 I/O-optimality
// property), DeltaSky and SkylineSet's dominator search.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "fairmatch/common/rng.h"
#include "fairmatch/data/synthetic.h"
#include "fairmatch/rtree/node_store.h"
#include "fairmatch/rtree/rtree.h"
#include "fairmatch/skyline/bbs.h"
#include "fairmatch/skyline/delta_sky.h"
#include "fairmatch/skyline/skyline_set.h"
#include "test_util.h"

namespace fairmatch {
namespace {

using fairmatch::testing::GridPoints;
using fairmatch::testing::NaiveSkyline;

std::set<ObjectId> MemberIds(const SkylineSet& sky) {
  std::set<ObjectId> ids;
  sky.ForEach([&](int, const SkylineObject& m) { ids.insert(m.id); });
  return ids;
}

struct SkyCase {
  int n;
  int dims;
  Distribution distribution;
  uint64_t seed;
};

class SkylineParamTest : public ::testing::TestWithParam<SkyCase> {};

TEST_P(SkylineParamTest, InitialSkylineMatchesNaive) {
  SkyCase c = GetParam();
  Rng rng(c.seed);
  auto points = GeneratePoints(c.distribution, c.n, c.dims, &rng);
  MemNodeStore store(c.dims);
  RTree tree(&store);
  std::vector<ObjectRecord> records;
  for (size_t i = 0; i < points.size(); ++i) {
    records.push_back({points[i], static_cast<ObjectId>(i)});
  }
  tree.BulkLoad(records);

  SkylineManager mgr(&tree);
  mgr.ComputeInitial();
  auto naive = NaiveSkyline(points);
  std::set<ObjectId> expect(naive.begin(), naive.end());
  EXPECT_EQ(MemberIds(mgr.skyline()), expect);
}

TEST_P(SkylineParamTest, UpdateSkylineTracksDeletions) {
  SkyCase c = GetParam();
  Rng rng(c.seed + 1);
  auto points = GeneratePoints(c.distribution, c.n, c.dims, &rng);
  MemNodeStore store(c.dims);
  RTree tree(&store);
  std::vector<ObjectRecord> records;
  for (size_t i = 0; i < points.size(); ++i) {
    records.push_back({points[i], static_cast<ObjectId>(i)});
  }
  tree.BulkLoad(records);

  SkylineManager mgr(&tree);
  mgr.ComputeInitial();
  std::vector<bool> alive(points.size(), true);

  // Repeatedly delete 1-3 skyline members and compare with the naive
  // skyline of the survivors.
  Rng pick(c.seed + 2);
  for (int round = 0; round < 40; ++round) {
    auto members = MemberIds(mgr.skyline());
    if (members.empty()) break;
    std::vector<ObjectId> victims;
    int want = 1 + static_cast<int>(pick.UniformInt(0, 2));
    for (ObjectId id : members) {
      if (static_cast<int>(victims.size()) >= want) break;
      victims.push_back(id);
    }
    for (ObjectId id : victims) alive[id] = false;
    mgr.RemoveAndUpdate(victims);

    auto naive = NaiveSkyline(points, &alive);
    std::set<ObjectId> expect(naive.begin(), naive.end());
    ASSERT_EQ(MemberIds(mgr.skyline()), expect) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SkylineParamTest,
    ::testing::Values(SkyCase{200, 2, Distribution::kIndependent, 10},
                      SkyCase{500, 3, Distribution::kAntiCorrelated, 11},
                      SkyCase{500, 3, Distribution::kCorrelated, 12},
                      SkyCase{1500, 4, Distribution::kIndependent, 13},
                      SkyCase{1000, 5, Distribution::kAntiCorrelated, 14},
                      SkyCase{60, 2, Distribution::kAntiCorrelated, 15}));

TEST(SkylineManagerTest, DuplicateSkylinePointsBothReported) {
  std::vector<Point> points;
  Point a(2);
  a[0] = 0.9f;
  a[1] = 0.1f;
  Point b(2);
  b[0] = 0.1f;
  b[1] = 0.9f;
  points = {a, a, b};  // two coincident maxima on one axis
  MemNodeStore store(2);
  RTree tree(&store);
  std::vector<ObjectRecord> records;
  for (size_t i = 0; i < points.size(); ++i) {
    records.push_back({points[i], static_cast<ObjectId>(i)});
  }
  tree.BulkLoad(records);
  SkylineManager mgr(&tree);
  mgr.ComputeInitial();
  EXPECT_EQ(MemberIds(mgr.skyline()), (std::set<ObjectId>{0, 1, 2}));
}

// Theorem 1: UpdateSkyline never reads the same R-tree node twice across
// the entire deletion sequence.
TEST(SkylineManagerTest, Theorem1NoNodeReadTwice) {
  Rng rng(77);
  auto points = GeneratePoints(Distribution::kAntiCorrelated, 3000, 3, &rng);
  MemNodeStore store(3);
  RTree tree(&store);
  std::vector<ObjectRecord> records;
  for (size_t i = 0; i < points.size(); ++i) {
    records.push_back({points[i], static_cast<ObjectId>(i)});
  }
  tree.BulkLoad(records);

  SkylineManager mgr(&tree);
  mgr.EnableReadLog();
  mgr.ComputeInitial();
  // Delete every member until the data set is exhausted.
  while (mgr.skyline().size() > 0) {
    auto members = MemberIds(mgr.skyline());
    std::vector<ObjectId> victims(members.begin(), members.end());
    // Delete in chunks to exercise the batch path.
    victims.resize(std::max<size_t>(1, victims.size() / 2));
    mgr.RemoveAndUpdate(victims);
  }
  const auto& log = mgr.read_log();
  std::unordered_set<PageId> distinct(log.begin(), log.end());
  EXPECT_EQ(distinct.size(), log.size()) << "a node was read twice";
  // And every node was eventually needed: full exhaustion reads all.
  EXPECT_EQ(static_cast<int64_t>(log.size()), tree.CountNodes());
}

// Physical-I/O version of Theorem 1: with a 0% buffer each physical read
// maps 1:1 to a node access, so SB's skyline stack does exactly
// CountNodes() reads to drain the whole data set.
TEST(SkylineManagerTest, Theorem1PhysicalReadsWithZeroBuffer) {
  Rng rng(78);
  auto points = GeneratePoints(Distribution::kIndependent, 4000, 3, &rng);
  PagedNodeStore store(3, /*buffer_frames=*/64);
  RTree tree(&store);
  std::vector<ObjectRecord> records;
  for (size_t i = 0; i < points.size(); ++i) {
    records.push_back({points[i], static_cast<ObjectId>(i)});
  }
  tree.BulkLoad(records);
  store.ResetCounters();
  store.SetBufferFraction(0.0);

  SkylineManager mgr(&tree);
  mgr.ComputeInitial();
  while (mgr.skyline().size() > 0) {
    auto members = MemberIds(mgr.skyline());
    mgr.RemoveAndUpdate(
        std::vector<ObjectId>(members.begin(), members.end()));
  }
  // Capture the counter before CountNodes(), which itself reads pages.
  int64_t reads_during_drain = store.counters().page_reads;
  int64_t writes_during_drain = store.counters().page_writes;
  EXPECT_EQ(reads_during_drain, tree.CountNodes());
  EXPECT_EQ(writes_during_drain, 0);
}

TEST(DeltaSkyTest, MaintenanceMatchesNaive) {
  Rng rng(91);
  auto points = GeneratePoints(Distribution::kAntiCorrelated, 800, 3, &rng);
  MemNodeStore store(3);
  RTree tree(&store);
  std::vector<ObjectRecord> records;
  for (size_t i = 0; i < points.size(); ++i) {
    records.push_back({points[i], static_cast<ObjectId>(i)});
  }
  tree.BulkLoad(records);

  DeltaSkyManager mgr(&tree);
  mgr.ComputeInitial();
  std::vector<bool> alive(points.size(), true);
  {
    auto naive = NaiveSkyline(points, &alive);
    EXPECT_EQ(MemberIds(mgr.skyline()),
              std::set<ObjectId>(naive.begin(), naive.end()));
  }
  for (int round = 0; round < 60; ++round) {
    auto members = MemberIds(mgr.skyline());
    if (members.empty()) break;
    ObjectId victim = *members.begin();
    alive[victim] = false;
    mgr.Remove(victim);
    auto naive = NaiveSkyline(points, &alive);
    ASSERT_EQ(MemberIds(mgr.skyline()),
              std::set<ObjectId>(naive.begin(), naive.end()))
        << "round " << round;
  }
}

TEST(DeltaSkyTest, ReadsMoreNodesThanUpdateSkyline) {
  Rng rng(92);
  auto points = GeneratePoints(Distribution::kAntiCorrelated, 5000, 3, &rng);
  std::vector<ObjectRecord> records;
  for (size_t i = 0; i < points.size(); ++i) {
    records.push_back({points[i], static_cast<ObjectId>(i)});
  }

  MemNodeStore s1(3), s2(3);
  RTree t1(&s1), t2(&s2);
  t1.BulkLoad(records);
  t2.BulkLoad(records);

  SkylineManager update(&t1);
  DeltaSkyManager delta(&t2);
  update.ComputeInitial();
  delta.ComputeInitial();
  for (int round = 0; round < 50; ++round) {
    auto members = MemberIds(update.skyline());
    if (members.empty()) break;
    ObjectId victim = *members.begin();
    update.RemoveAndUpdate({victim});
    delta.Remove(victim);
  }
  EXPECT_LT(update.nodes_read(), delta.nodes_read());
}

TEST(SkylineSetTest, FindDominatorHonorsSumPruning) {
  SkylineSet sky;
  Point a(2);
  a[0] = 0.9f;
  a[1] = 0.8f;
  sky.Add(a, 1);
  Point probe(2);
  probe[0] = 0.5f;
  probe[1] = 0.5f;
  EXPECT_GE(sky.FindDominator(probe, probe.Sum()), 0);
  Point high(2);
  high[0] = 0.95f;
  high[1] = 0.95f;
  EXPECT_EQ(sky.FindDominator(high, high.Sum()), -1);
  sky.Remove(1);
  EXPECT_EQ(sky.FindDominator(probe, probe.Sum()), -1);
  EXPECT_EQ(sky.size(), 0u);
}

}  // namespace
}  // namespace fairmatch

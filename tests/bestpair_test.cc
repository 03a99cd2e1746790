// Unit tests for the mutual-best pair engine and for the rounded-up
// function R-tree scoring used by Chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fairmatch/assign/best_pair.h"
#include "fairmatch/common/float_util.h"
#include "fairmatch/common/rng.h"
#include "fairmatch/common/simd.h"
#include "fairmatch/data/synthetic.h"
#include "fairmatch/rtree/node_store.h"
#include "fairmatch/rtree/rtree.h"
#include "fairmatch/topk/ranked_search.h"
#include "test_util.h"

namespace fairmatch {
namespace {

using fairmatch::testing::GridFunctions;
using fairmatch::testing::GridPoints;

Point P2(float x, float y) {
  Point p(2);
  p[0] = x;
  p[1] = y;
  return p;
}

FunctionSet TwoFunctions() {
  FunctionSet fns(2);
  fns[0] = PrefFunction{0, 2, {0.9, 0.1}, 1.0, 1};
  fns[1] = PrefFunction{1, 2, {0.1, 0.9}, 1.0, 1};
  return fns;
}

TEST(BestPairEngineTest, MutualPairDetected) {
  FunctionSet fns = TwoFunctions();
  BestPairEngine engine(&fns);
  Point a = P2(0.9f, 0.1f);  // best for f0
  Point b = P2(0.1f, 0.9f);  // best for f1
  std::vector<MemberCandidate> members{
      {0, &a, 0, fns[0].Score(a)},
      {1, &b, 1, fns[1].Score(b)},
  };
  auto pairs = engine.FindMutualPairs(members, {0, 1});
  ASSERT_EQ(pairs.size(), 2u);
}

TEST(BestPairEngineTest, NonMutualCandidateNotEmitted) {
  FunctionSet fns = TwoFunctions();
  BestPairEngine engine(&fns);
  Point a = P2(0.9f, 0.2f);
  Point b = P2(0.8f, 0.1f);  // also names f0 but scores lower
  std::vector<MemberCandidate> members{
      {0, &a, 0, fns[0].Score(a)},
      {1, &b, 0, fns[0].Score(b)},
  };
  auto pairs = engine.FindMutualPairs(members, {0, 1});
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].oid, 0);
  EXPECT_EQ(pairs[0].fid, 0);
}

TEST(BestPairEngineTest, CacheUpdatesWithNewMembers) {
  FunctionSet fns = TwoFunctions();
  BestPairEngine engine(&fns);
  Point a = P2(0.7f, 0.1f);
  std::vector<MemberCandidate> members{{0, &a, 0, fns[0].Score(a)}};
  auto pairs = engine.FindMutualPairs(members, {0});
  ASSERT_EQ(pairs.size(), 1u);

  // A better object for f0 joins the skyline: the cached obest must be
  // displaced, so the old member no longer forms a mutual pair.
  Point better = P2(0.95f, 0.2f);
  std::vector<MemberCandidate> members2{
      {0, &a, 0, fns[0].Score(a)},
      {7, &better, 0, fns[0].Score(better)},
  };
  auto pairs2 = engine.FindMutualPairs(members2, {7});
  ASSERT_EQ(pairs2.size(), 1u);
  EXPECT_EQ(pairs2[0].oid, 7);
}

TEST(BestPairEngineTest, RemovedObjectInvalidatesCache) {
  FunctionSet fns = TwoFunctions();
  BestPairEngine engine(&fns);
  Point a = P2(0.9f, 0.1f);
  Point b = P2(0.7f, 0.1f);
  std::vector<MemberCandidate> members{
      {0, &a, 0, fns[0].Score(a)},
      {1, &b, 0, fns[0].Score(b)},
  };
  auto pairs = engine.FindMutualPairs(members, {0, 1});
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].oid, 0);

  engine.OnObjectsRemoved({0});
  std::vector<MemberCandidate> members2{{1, &b, 0, fns[0].Score(b)}};
  auto pairs2 = engine.FindMutualPairs(members2, {});
  ASSERT_EQ(pairs2.size(), 1u);
  EXPECT_EQ(pairs2[0].oid, 1);  // full rescan found the survivor
}

TEST(BestPairEngineTest, FunctionSkippingACallIsRescanned) {
  // f0 leaves F_best for one call, during which a better object for it
  // joins; when f0 returns, its old entry must not be reused.
  FunctionSet fns = TwoFunctions();
  BestPairEngine engine(&fns);
  Point a = P2(0.7f, 0.1f);
  Point b = P2(0.1f, 0.9f);
  Point better = P2(0.95f, 0.2f);
  engine.FindMutualPairs({{0, &a, 0, fns[0].Score(a)}}, {0});
  EXPECT_EQ(engine.CachedBest(0), 0);
  engine.FindMutualPairs(
      {{0, &a, 1, fns[1].Score(a)}, {4, &better, 1, fns[1].Score(better)},
       {9, &b, 1, fns[1].Score(b)}},
      {4, 9});
  EXPECT_EQ(engine.CachedBest(0), kInvalidObject);
  auto pairs = engine.FindMutualPairs(
      {{0, &a, 0, fns[0].Score(a)}, {4, &better, 0, fns[0].Score(better)},
       {9, &b, 1, fns[1].Score(b)}},
      {});
  EXPECT_EQ(engine.CachedBest(0), 4);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].oid, 4);
  EXPECT_EQ(pairs[1].oid, 9);
}

// f's best member under PairBefore, from scratch.
ObjectId ReferenceBest(const PrefFunction& f,
                       const std::vector<MemberCandidate>& members) {
  ObjectId best = kInvalidObject;
  double best_score = 0.0;
  for (const MemberCandidate& m : members) {
    const double s = f.Score(*m.point);
    if (best == kInvalidObject ||
        PairBefore(s, f.id, m.oid, best_score, f.id, best)) {
      best = m.oid;
      best_score = s;
    }
  }
  return best;
}

// How a member picks its candidate function each call.
enum class CandidateRule {
  kBestUnassigned,  // SB's rule: its best unassigned function
  kRandom,          // any unassigned function, redrawn every call, so
                    // functions leave F_best and come back
};

struct RandomizedCase {
  int dims;
  int levels;  // grid levels per coordinate: few levels, many ties
  int objects;
  int functions;
  uint64_t seed;
  CandidateRule rule;
};

// Drives the engine through a run of calls on grid points and grid
// weights (duplicate points, tied scores) with sparse object ids, a
// first call whose members span more than two kernel blocks with a
// ragged tail, newcomers on later calls, capacities that assign
// functions and remove objects, and members removed without pairing.
// After every call each f in F_best must hold exactly the from-scratch
// argmax and every other function no entry, and the reported pairs
// must be the members their candidate's argmax names.
void RunRandomizedCase(const RandomizedCase& c) {
  SCOPED_TRACE(::testing::Message() << "seed " << c.seed << " dims "
                                    << c.dims);
  Rng rng(c.seed);
  const std::vector<Point> points =
      GridPoints(c.objects, c.dims, c.levels, c.seed);
  FunctionSet fns = GridFunctions(c.functions, c.dims, 3, c.seed + 1);
  std::vector<int> fcap(fns.size());
  for (PrefFunction& f : fns) {
    f.gamma = static_cast<double>(rng.UniformInt(1, 2));
    fcap[f.id] = static_cast<int>(rng.UniformInt(1, 3));
  }
  std::vector<int> ocap(c.objects);
  for (int& cap : ocap) cap = static_cast<int>(rng.UniformInt(1, 2));
  std::vector<uint8_t> assigned(fns.size(), 0);
  const auto oid_of = [](int i) { return 7 + 13 * i; };
  const auto index_of = [](ObjectId oid) { return (oid - 7) / 13; };

  BestPairEngine engine(&fns);
  std::vector<int> live;  // object indexes of the current members
  int next = 0;           // objects join in index order
  for (int call = 0; call < 60; ++call) {
    std::vector<ObjectId> added;
    int joins = call == 0 ? 2 * simd::kScoreBlock + 3
                          : static_cast<int>(rng.UniformInt(0, 4));
    for (; joins > 0 && next < c.objects; --joins, ++next) {
      live.push_back(next);
      added.push_back(oid_of(next));
    }
    if (live.empty()) break;
    // Member order is not oid order, so ties resolve across lanes.
    std::shuffle(live.begin(), live.end(), rng.engine());

    std::vector<FunctionId> open;
    for (const PrefFunction& f : fns) {
      if (!assigned[f.id]) open.push_back(f.id);
    }
    if (open.empty()) break;
    std::vector<MemberCandidate> members;
    for (int i : live) {
      FunctionId fid = kInvalidFunction;
      if (c.rule == CandidateRule::kRandom) {
        fid = open[rng.UniformInt(0, static_cast<int64_t>(open.size()) - 1)];
      } else {
        double best = 0.0;
        for (FunctionId g : open) {
          const double s = fns[g].Score(points[i]);
          if (fid == kInvalidFunction || s > best) {
            fid = g;
            best = s;
          }
        }
      }
      members.push_back(MemberCandidate{oid_of(i), &points[i], fid,
                                        fns[fid].Score(points[i])});
    }

    const std::vector<MatchPair> pairs =
        engine.FindMutualPairs(members, added);

    std::vector<uint8_t> in_fbest(fns.size(), 0);
    for (const MemberCandidate& m : members) in_fbest[m.fbest] = 1;
    std::vector<ObjectId> want(fns.size(), kInvalidObject);
    for (const PrefFunction& f : fns) {
      if (in_fbest[f.id]) want[f.id] = ReferenceBest(f, members);
      ASSERT_EQ(engine.CachedBest(f.id), want[f.id])
          << "call " << call << " fid " << f.id;
    }
    std::vector<ObjectId> want_pairs;
    for (const MemberCandidate& m : members) {
      if (want[m.fbest] == m.oid) want_pairs.push_back(m.oid);
    }
    std::vector<ObjectId> got_pairs;
    for (const MatchPair& p : pairs) got_pairs.push_back(p.oid);
    ASSERT_EQ(got_pairs, want_pairs) << "call " << call;

    // Capacities, as the skyline loop applies them, plus an occasional
    // member removed without pairing.
    std::vector<ObjectId> removed;
    for (const MatchPair& p : pairs) {
      if (--fcap[p.fid] == 0) {
        assigned[p.fid] = 1;
        engine.OnFunctionAssigned(p.fid);
      }
      if (--ocap[index_of(p.oid)] == 0) removed.push_back(p.oid);
    }
    if (rng.UniformInt(0, 3) == 0) {
      const ObjectId oid = oid_of(live[0]);
      if (std::find(removed.begin(), removed.end(), oid) == removed.end()) {
        removed.push_back(oid);
      }
    }
    for (ObjectId oid : removed) {
      live.erase(std::find(live.begin(), live.end(), index_of(oid)));
    }
    engine.OnObjectsRemoved(removed);
  }
}

TEST(BestPairEngineTest, RandomizedCallsMatchFromScratchArgmax) {
  uint64_t seed = 4100;
  for (CandidateRule rule :
       {CandidateRule::kBestUnassigned, CandidateRule::kRandom}) {
    for (int dims : {2, 3, 4, 6}) {
      for (int levels : {2, 4}) {
        RunRandomizedCase(RandomizedCase{dims, levels, 160, 40, ++seed, rule});
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// Chain's function R-tree stores FloatUp-rounded effective coefficients
// as coordinates. Property: with exact leaf rescoring the search still
// returns the exact argmax function, for random objects and priorities.
TEST(FunctionTreeSearchTest, FloatUpCoordinatesPreserveExactOrder) {
  Rng rng(99);
  FunctionSet fns = GenerateFunctions(600, 4, &rng);
  AssignPriorities(&fns, 8, &rng);
  MemNodeStore store(4);
  RTree ftree(&store);
  std::vector<ObjectRecord> records;
  for (const PrefFunction& f : fns) {
    Point w(4);
    for (int d = 0; d < 4; ++d) w[d] = FloatUp(f.eff(d));
    records.push_back({w, f.id});
  }
  ftree.BulkLoad(records);

  auto points = GeneratePoints(Distribution::kIndependent, 200, 4, &rng);
  for (const Point& o : points) {
    // Exhaustive argmax (score desc, fid asc).
    FunctionId best = kInvalidFunction;
    double best_s = 0.0;
    for (const PrefFunction& f : fns) {
      double s = f.Score(o);
      if (best == kInvalidFunction || s > best_s ||
          (s == best_s && f.id < best)) {
        best = f.id;
        best_s = s;
      }
    }
    PrefFunction pseudo;
    pseudo.id = 0;
    pseudo.dims = 4;
    for (int d = 0; d < 4; ++d) pseudo.alpha[d] = o[d];
    RankedSearch search(&ftree, &pseudo);
    search.set_leaf_scorer(
        [&](ObjectId fid, const Point&) { return fns[fid].Score(o); });
    auto hit = search.Next();
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->id, best);
    EXPECT_DOUBLE_EQ(hit->score, best_s);
  }
}

}  // namespace
}  // namespace fairmatch

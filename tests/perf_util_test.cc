// Unit tests for the hot-path utilities introduced by the perf PRs:
// the flat min-max heap behind the TA candidate queue, the SkyEntry
// arena behind BBS/UpdateSkyline, the portable SIMD kernels
// (common/simd.h) and the SkylineSet dominance probes (single and
// batched) they power. Everything is exercised with randomized
// operation sequences against straightforward reference models; the CI
// Debug job runs these under ASan/UBSan and the FAIRMATCH_SIMD=OFF leg
// re-runs them on the scalar fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "fairmatch/common/minmax_heap.h"
#include "fairmatch/common/rng.h"
#include "fairmatch/common/simd.h"
#include "fairmatch/geom/point.h"
#include "fairmatch/skyline/sky_arena.h"
#include "fairmatch/skyline/skyline_set.h"
#include "fairmatch/topk/reverse_top1.h"

namespace fairmatch {
namespace {

TEST(MinMaxHeapTest, BasicEnds) {
  MinMaxHeap<int> heap;
  EXPECT_TRUE(heap.empty());
  for (int v : {5, 1, 9, 3, 7}) heap.push(v);
  EXPECT_EQ(heap.size(), 5u);
  EXPECT_EQ(heap.min(), 1);
  EXPECT_EQ(heap.max(), 9);
  heap.pop_min();
  EXPECT_EQ(heap.min(), 3);
  heap.pop_max();
  EXPECT_EQ(heap.max(), 7);
  heap.pop_max();
  heap.pop_max();
  EXPECT_EQ(heap.min(), 3);
  EXPECT_EQ(heap.max(), 3);
  heap.pop_min();
  EXPECT_TRUE(heap.empty());
}

TEST(MinMaxHeapTest, DrainAscendingAndDescending) {
  Rng rng(101);
  std::vector<int> values;
  MinMaxHeap<int> up, down;
  for (int i = 0; i < 500; ++i) {
    int v = static_cast<int>(rng.UniformInt(0, 1 << 20)) * 512 + i;
    values.push_back(v);  // distinct values: total order
    up.push(v);
    down.push(v);
  }
  std::sort(values.begin(), values.end());
  for (int v : values) {
    EXPECT_EQ(up.min(), v);
    up.pop_min();
  }
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    EXPECT_EQ(down.max(), *it);
    down.pop_max();
  }
}

TEST(MinMaxHeapTest, RandomOpsAgainstMultisetModel) {
  Rng rng(102);
  MinMaxHeap<int> heap;
  std::multiset<int> model;
  for (int op = 0; op < 20000; ++op) {
    const int choice = static_cast<int>(rng.UniformInt(0, 3));
    if (model.empty() || choice == 0) {
      int v = static_cast<int>(rng.UniformInt(0, 1000));
      heap.push(v);
      model.insert(v);
    } else if (choice == 1) {
      ASSERT_EQ(heap.min(), *model.begin());
      heap.pop_min();
      model.erase(model.begin());
    } else {
      ASSERT_EQ(heap.max(), *model.rbegin());
      heap.pop_max();
      model.erase(std::prev(model.end()));
    }
    ASSERT_EQ(heap.size(), model.size());
    if (!model.empty()) {
      ASSERT_EQ(heap.min(), *model.begin());
      ASSERT_EQ(heap.max(), *model.rbegin());
    }
  }
}

// The exact usage pattern of the TA candidate queue: bounded capacity,
// best-first item order with id tie-breaks, overflow evicted from the
// worst end. Must reproduce the seed's sorted-vector semantics.
TEST(MinMaxHeapTest, BoundedQueueMatchesSortedVector) {
  struct Item {
    double score;
    int fid;
    bool operator<(const Item& other) const {
      if (score != other.score) return score > other.score;
      return fid < other.fid;
    }
  };
  Rng rng(103);
  for (int cap : {1, 2, 3, 8, 57}) {
    MinMaxHeap<Item> heap;
    std::vector<Item> model;  // sorted best-first
    for (int op = 0; op < 4000; ++op) {
      if (!model.empty() && rng.UniformInt(0, 4) == 0) {
        ASSERT_EQ(heap.min().fid, model.front().fid);
        ASSERT_EQ(heap.min().score, model.front().score);
        heap.pop_min();
        model.erase(model.begin());
        continue;
      }
      // Coarse scores force plenty of exact ties.
      Item item{static_cast<double>(rng.UniformInt(0, 32)) / 32.0, op};
      heap.push(item);
      model.insert(std::lower_bound(model.begin(), model.end(), item),
                   item);
      if (static_cast<int>(model.size()) > cap) {
        heap.pop_max();
        model.pop_back();
      }
      ASSERT_EQ(heap.size(), model.size());
      ASSERT_EQ(heap.min().fid, model.front().fid);
      ASSERT_EQ(heap.max().fid, model.back().fid);
    }
  }
}

// The TA candidate queue across both storage regimes (sorted ring
// below the capacity threshold, min-max heap above): identical
// semantics to the seed's sorted vector, including exact-tie eviction
// order.
TEST(CandidateQueueTest, BothRegimesMatchSortedVectorModel) {
  Rng rng(105);
  for (int cap : {1, 3, 57, CandidateQueue::kHeapThreshold + 1, 2000}) {
    CandidateQueue queue;
    queue.Reset(cap);
    std::vector<ScoredCandidate> model;  // sorted best-first
    for (int op = 0; op < 6000; ++op) {
      if (!model.empty() && rng.UniformInt(0, 4) == 0) {
        ASSERT_EQ(queue.best().fid, model.front().fid);
        ASSERT_EQ(queue.best().score, model.front().score);
        queue.PopBest();
        model.erase(model.begin());
        continue;
      }
      // Coarse scores force plenty of exact ties.
      ScoredCandidate item{
          static_cast<double>(rng.UniformInt(0, 64)) / 64.0, op};
      queue.Push(item);
      model.insert(std::lower_bound(model.begin(), model.end(), item),
                   item);
      if (static_cast<int>(model.size()) > cap) {
        queue.PopWorst();
        model.pop_back();
      }
      ASSERT_EQ(queue.size(), model.size());
      ASSERT_EQ(queue.best().fid, model.front().fid);
    }
    while (!model.empty()) {
      ASSERT_EQ(queue.best().fid, model.front().fid);
      queue.PopBest();
      model.erase(model.begin());
    }
    ASSERT_TRUE(queue.empty());
  }
}

TEST(SkyEntryArenaTest, AllocFreeReuseAndHighWater) {
  SkyEntryArena arena;
  Point p(3, 0.5f);
  uint32_t a = arena.Alloc(SkyEntry::ForObject(p, 1));
  uint32_t b = arena.Alloc(SkyEntry::ForObject(p, 2));
  EXPECT_EQ(arena.live(), 2u);
  EXPECT_EQ(arena.high_water(), 2u);
  EXPECT_EQ(arena.entry(a).id, 1);
  EXPECT_EQ(arena.entry(b).id, 2);
  arena.Free(a);
  EXPECT_EQ(arena.live(), 1u);
  // The freed slot is recycled before the pool grows.
  uint32_t c = arena.Alloc(SkyEntry::ForObject(p, 3));
  EXPECT_EQ(c, a);
  EXPECT_EQ(arena.entry(c).id, 3);
  EXPECT_EQ(arena.high_water(), 2u);
  uint32_t d = arena.Alloc(SkyEntry::ForObject(p, 4));
  EXPECT_EQ(arena.live(), 3u);
  EXPECT_EQ(arena.high_water(), 3u);
  arena.Free(b);
  arena.Free(c);
  arena.Free(d);
  EXPECT_EQ(arena.live(), 0u);
  EXPECT_EQ(arena.high_water(), 3u);
  EXPECT_GT(arena.high_water_bytes(), 0u);
}

TEST(SkyEntryArenaTest, IntrusiveChainsSurviveGrowth) {
  SkyEntryArena arena;
  Point p(2, 0.25f);
  // Build a chain while forcing multiple buffer growths.
  uint32_t head = SkyEntryArena::kNil;
  for (int i = 0; i < 10000; ++i) {
    uint32_t h = arena.Alloc(SkyEntry::ForObject(p, i));
    arena.set_next(h, head);
    head = h;
  }
  // Walk the chain: ids come back in reverse insertion order.
  int expect = 9999;
  size_t walked = 0;
  for (uint32_t h = head; h != SkyEntryArena::kNil; h = arena.next(h)) {
    ASSERT_EQ(arena.entry(h).id, expect--);
    walked++;
  }
  EXPECT_EQ(walked, 10000u);
  EXPECT_EQ(arena.high_water(), 10000u);
}

TEST(SkyEntryArenaTest, RandomChurnAgainstModel) {
  Rng rng(104);
  SkyEntryArena arena;
  Point p(2, 0.75f);
  std::vector<std::pair<uint32_t, int>> live;  // (handle, id)
  int next_id = 0;
  size_t max_live = 0;
  for (int op = 0; op < 50000; ++op) {
    if (live.empty() || rng.UniformInt(0, 2) == 0) {
      uint32_t h = arena.Alloc(SkyEntry::ForObject(p, next_id));
      live.emplace_back(h, next_id++);
    } else {
      size_t pick = rng.UniformInt(0, static_cast<int>(live.size()) - 1);
      ASSERT_EQ(arena.entry(live[pick].first).id, live[pick].second);
      arena.Free(live[pick].first);
      live[pick] = live.back();
      live.pop_back();
    }
    max_live = std::max(max_live, live.size());
    ASSERT_EQ(arena.live(), live.size());
  }
  EXPECT_EQ(arena.high_water(), max_live);
  for (const auto& [h, id] : live) {
    ASSERT_EQ(arena.entry(h).id, id);
  }
}

// --- SIMD kernels (common/simd.h) ------------------------------------

// The dispatching score kernel must be bit-identical to the scalar
// reference on arbitrary blocks (counts straddling every vector-width
// remainder, negative weights, subnormal-free random coords).
TEST(SimdKernelTest, ScoreColumnsMatchesScalarBitExactly) {
  Rng rng(601);
  for (int iter = 0; iter < 300; ++iter) {
    const int dims = 1 + static_cast<int>(rng.UniformInt(0, kMaxDims - 1));
    const int count = static_cast<int>(rng.UniformInt(0, 37));
    const size_t stride = count + rng.UniformInt(0, 5);
    std::vector<float> cols(dims * stride + 1, 0.0f);
    for (float& v : cols) {
      v = static_cast<float>(rng.Uniform(-2.0, 2.0));
    }
    std::vector<double> weights(dims);
    for (double& w : weights) w = rng.Uniform(-1.0, 1.0);
    std::vector<double> got(count, -1.0), want(count, -2.0);
    simd::ScoreColumns(cols.data(), stride, dims, weights.data(), count,
                       got.data());
    simd::ScoreColumnsScalar(cols.data(), stride, dims, weights.data(),
                             count, want.data());
    for (int j = 0; j < count; ++j) {
      ASSERT_EQ(got[j], want[j]) << "iter " << iter << " col " << j;
    }
  }
}

TEST(SimdKernelTest, FirstDominatorMatchesScalar) {
  Rng rng(602);
  for (int iter = 0; iter < 500; ++iter) {
    const int dims = 1 + static_cast<int>(rng.UniformInt(0, kMaxDims - 1));
    const int count = static_cast<int>(rng.UniformInt(0, 41));
    const size_t stride = count + rng.UniformInt(0, 3);
    std::vector<float> cols(dims * stride + 1, 0.0f);
    // Coarse grid coordinates force exact ties, equal-in-some-dims
    // near-dominators and duplicated columns.
    for (float& v : cols) {
      v = static_cast<float>(rng.UniformInt(0, 6)) / 6.0f;
    }
    float corner[kMaxDims];
    for (int d = 0; d < dims; ++d) {
      corner[d] = static_cast<float>(rng.UniformInt(0, 6)) / 6.0f;
    }
    const int got =
        simd::FirstDominator(cols.data(), stride, dims, corner, count);
    const int want = simd::FirstDominatorScalar(cols.data(), stride, dims,
                                                corner, count);
    ASSERT_EQ(got, want) << "iter " << iter;
  }
}

// --- SkylineSet dominance probes -------------------------------------

/// Mirror of a SkylineSet's live membership: (slot, point) pairs
/// recorded from Add()/Remove() calls, used as the brute-force
/// dominance reference.
struct SkyMirror {
  struct Member {
    int slot;
    Point point;
    double sum;
  };
  std::vector<Member> live;

  void Add(int slot, const Point& p) {
    live.push_back(Member{slot, p, p.Sum()});
  }
  void Remove(int slot) {
    for (auto it = live.begin(); it != live.end(); ++it) {
      if (it->slot == slot) {
        live.erase(it);
        return;
      }
    }
    FAIL() << "slot not live";
  }
  bool AnyDominates(const Point& corner) const {
    for (const Member& m : live) {
      if (m.point.Dominates(corner)) return true;
    }
    return false;
  }
  /// First dominator in the scan order (descending sum, ties ascending
  /// slot) — what a probe with a cold pruner cache must return.
  int FirstInScanOrder(const Point& corner, double corner_sum) const {
    std::vector<const Member*> order;
    for (const Member& m : live) order.push_back(&m);
    std::sort(order.begin(), order.end(),
              [](const Member* a, const Member* b) {
                if (a->sum != b->sum) return a->sum > b->sum;
                return a->slot < b->slot;
              });
    for (const Member* m : order) {
      if (m->sum <= corner_sum) break;
      if (m->point.Dominates(corner)) return m->slot;
    }
    return -1;
  }
};

Point RandomGridPoint(Rng* rng, int dims) {
  Point p(dims);
  for (int d = 0; d < dims; ++d) {
    p[d] = static_cast<float>(rng->UniformInt(0, 8)) / 8.0f;
  }
  return p;
}

// Randomized property sweep over 1k seeded point sets: two SkylineSets
// receive the identical Add/Remove/probe sequence, one probed with
// single FindDominator calls and one with the batched entry points.
// Checks per probe:
//  * single and batched results are identical (the batch API is
//    defined as consecutive single probes, pruner cache included);
//  * a returned slot is a live member that strictly dominates the
//    corner (brute force over the mirror);
//  * -1 means no live member dominates the corner;
//  * a fresh (cache-free) SkylineSet with the same membership returns
//    the first dominator in scan order (descending sum, ties on
//    ascending slot).
TEST(SkylineSetPropertyTest, DominatorProbesMatchBruteForce) {
  Rng rng(603);
  for (int iter = 0; iter < 1000; ++iter) {
    const int dims = 2 + static_cast<int>(rng.UniformInt(0, 3));
    SkylineSet single, batched;
    SkyMirror mirror;
    std::vector<std::pair<Point, ObjectId>> members;  // live, add order
    ObjectId next_id = 0;

    const int ops = 3 + static_cast<int>(rng.UniformInt(0, 24));
    for (int op = 0; op < ops; ++op) {
      const int kind =
          members.empty() ? 0 : static_cast<int>(rng.UniformInt(0, 9));
      if (kind < 5) {
        const Point p = RandomGridPoint(&rng, dims);
        const ObjectId id = next_id++;
        const int slot_s = single.Add(p, id);
        const int slot_b = batched.Add(p, id);
        ASSERT_EQ(slot_s, slot_b);
        mirror.Add(slot_s, p);
        members.emplace_back(p, id);
      } else if (kind < 7) {
        const size_t pick = rng.UniformInt(0, members.size() - 1);
        const ObjectId id = members[pick].second;
        const int slot = single.SlotOf(id);
        single.Remove(id);
        batched.Remove(id);
        mirror.Remove(slot);
        members.erase(members.begin() + pick);
      } else {
        // A burst of probes: single calls on one set, one batch (or
        // prefix chain) on the other.
        const int n = 1 + static_cast<int>(rng.UniformInt(0, 6));
        std::vector<Point> corners;
        std::vector<DominatorProbe> probes;
        corners.reserve(n);
        for (int i = 0; i < n; ++i) {
          corners.push_back(RandomGridPoint(&rng, dims));
        }
        for (const Point& c : corners) {
          probes.push_back(DominatorProbe{&c, c.Sum()});
        }
        std::vector<int> got(n);
        if (rng.UniformInt(0, 1) == 0) {
          batched.FindDominatorBatch(probes.data(), n, got.data());
        } else {
          // Prefix chaining must cover all probes the same way.
          int done = 0;
          while (done < n) {
            done += batched.FindDominatorPrefix(&probes[done], n - done,
                                                &got[done]);
            // Re-probe misses the way callers would, minus the Add:
            // a miss ends a prefix, the next call resumes after it.
          }
        }
        for (int i = 0; i < n; ++i) {
          const int want = single.FindDominator(corners[i],
                                                corners[i].Sum());
          ASSERT_EQ(got[i], want) << "iter " << iter << " probe " << i;
          if (want >= 0) {
            ASSERT_TRUE(single.at(want).live);
            ASSERT_TRUE(single.at(want).point.Dominates(corners[i]));
          } else {
            ASSERT_FALSE(mirror.AnyDominates(corners[i]));
          }
        }
      }
    }

    // Cold-cache check: rebuild the same membership in the same Add
    // order on a fresh set; its first probe must return the scan-order
    // first dominator.
    SkylineSet fresh;
    for (const auto& [p, id] : members) fresh.Add(p, id);
    const Point probe = RandomGridPoint(&rng, dims);
    // The fresh mirror has different slots (no removals interleaved),
    // so rebuild it from the fresh set's own slots.
    SkyMirror fresh_mirror;
    fresh.ForEach([&](int slot, const SkylineObject& m) {
      fresh_mirror.Add(slot, m.point);
    });
    ASSERT_EQ(fresh.FindDominator(probe, probe.Sum()),
              fresh_mirror.FirstInScanOrder(probe, probe.Sum()))
        << "iter " << iter;
  }
}

TEST(SimdKernelTest, KnapsackBoundsMatchesScalarBitExactly) {
  Rng rng(603);
  for (int iter = 0; iter < 400; ++iter) {
    const int dims = 1 + static_cast<int>(rng.UniformInt(0, kMaxDims - 1));
    const int rows = 1 + static_cast<int>(rng.UniformInt(0, 20));
    const size_t stride = dims + rng.UniformInt(0, 3);
    std::vector<float> pts(rows * stride, 0.0f);
    for (float& v : pts) v = static_cast<float>(rng.Uniform(0.0, 1.0));
    std::vector<int> orders(rows * stride, 0);
    for (int m = 0; m < rows; ++m) {
      int* order = orders.data() + m * stride;
      for (int d = 0; d < dims; ++d) order[d] = d;
      for (int d = dims - 1; d > 0; --d) {
        std::swap(order[d], order[rng.UniformInt(0, d)]);
      }
    }
    // Frontier values include negatives and exact zeros so every branch
    // of the beta clamp (min/max/skip masking) is exercised.
    std::vector<double> frontier(kMaxDims, 0.0);
    for (int d = 0; d < dims; ++d) {
      frontier[d] = rng.UniformInt(0, 4) == 0
                        ? 0.0
                        : rng.Uniform(-0.2, 0.8);
    }
    const int count = 1 + static_cast<int>(rng.UniformInt(0, 11));
    std::vector<int> members(count);
    for (int& m : members) m = static_cast<int>(rng.UniformInt(0, rows - 1));
    const int skip_dim = static_cast<int>(rng.UniformInt(0, dims - 1));
    const double coef = rng.Uniform(0.0, 1.0);
    const double budget0 = rng.Uniform(0.0, 2.0);
    std::vector<double> got(count, -1.0), want(count, -2.0);
    simd::KnapsackBounds(pts.data(), orders.data(), stride, dims, skip_dim,
                         coef, budget0, frontier.data(), members.data(),
                         count, got.data());
    simd::KnapsackBoundsScalar(pts.data(), orders.data(), stride, dims,
                               skip_dim, coef, budget0, frontier.data(),
                               members.data(), count, want.data());
    for (int l = 0; l < count; ++l) {
      ASSERT_EQ(got[l], want[l]) << "iter " << iter << " lane " << l;
    }
  }
}

// The batched kernel must reproduce the historical SB-alt per-member
// fetch-worthiness loop (assign/sb_alt.cc before the SoA rewrite),
// transcribed verbatim here, on its real domain (non-negative
// frontiers): the `k == d || budget <= 0.0` continue and the kernel's
// clamped beta are bitwise-identical paths there.
TEST(SimdKernelTest, KnapsackBoundsMatchesLegacySbAltLoop) {
  Rng rng(604);
  for (int iter = 0; iter < 400; ++iter) {
    const int dims = 1 + static_cast<int>(rng.UniformInt(0, kMaxDims - 1));
    const size_t stride = dims;
    const int count = 1 + static_cast<int>(rng.UniformInt(0, 15));
    std::vector<float> pts(count * stride, 0.0f);
    for (float& v : pts) v = static_cast<float>(rng.Uniform(0.0, 1.0));
    std::vector<int> orders(count * stride, 0);
    std::vector<int> members(count);
    for (int m = 0; m < count; ++m) {
      members[m] = m;
      int* order = orders.data() + m * stride;
      for (int d = 0; d < dims; ++d) order[d] = d;
      for (int d = dims - 1; d > 0; --d) {
        std::swap(order[d], order[rng.UniformInt(0, d)]);
      }
    }
    std::vector<double> frontier(kMaxDims, 0.0);
    for (int d = 0; d < dims; ++d) frontier[d] = rng.Uniform(0.0, 1.0);
    const int d = static_cast<int>(rng.UniformInt(0, dims - 1));
    const double max_gamma = 1.0 + rng.UniformInt(0, 3);
    const double coef = rng.Uniform(0.0, 1.0);
    std::vector<double> got(count, -1.0);
    simd::KnapsackBounds(pts.data(), orders.data(), stride, dims, d, coef,
                         max_gamma - coef, frontier.data(), members.data(),
                         count, got.data());
    for (int m = 0; m < count; ++m) {
      const float* pt = pts.data() + m * stride;
      const int* order = orders.data() + m * stride;
      double budget = max_gamma - coef;
      double bound = coef * pt[d];
      for (int j = 0; j < dims; ++j) {
        const int k = order[j];
        if (k == d || budget <= 0.0) continue;
        double beta = std::min(budget, frontier[k]);
        bound += beta * pt[k];
        budget -= beta;
      }
      ASSERT_EQ(got[m], bound) << "iter " << iter << " member " << m;
    }
  }
}

TEST(SimdKernelTest, UnpackIdsMatchesScalarAndRoundTrips) {
  Rng rng(605);
  for (int iter = 0; iter < 400; ++iter) {
    const int id_bytes = 1 << rng.UniformInt(0, 2);  // 1, 2 or 4
    const int count = static_cast<int>(rng.UniformInt(0, 70));
    const int32_t base = static_cast<int32_t>(rng.UniformInt(0, 1 << 20));
    // base + delta must stay a valid (int32) function id, as it does in
    // any real packed block.
    const uint32_t max_delta = std::min<uint32_t>(
        id_bytes == 4 ? 0x7fffffffu : (1u << (8 * id_bytes)) - 1,
        static_cast<uint32_t>(0x7fffffff - base));
    std::vector<int32_t> ids(count);
    std::vector<unsigned char> packed(
        static_cast<size_t>(count) * id_bytes + 8, 0xee);
    for (int i = 0; i < count; ++i) {
      const uint32_t delta = static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(max_delta)));
      ids[i] = base + static_cast<int32_t>(delta);
      for (int b = 0; b < id_bytes; ++b) {
        packed[static_cast<size_t>(i) * id_bytes + b] =
            static_cast<unsigned char>((delta >> (8 * b)) & 0xff);
      }
    }
    std::vector<int32_t> got(count, -1), want(count, -2);
    simd::UnpackIds(packed.data(), id_bytes, base, count, got.data());
    simd::UnpackIdsScalar(packed.data(), id_bytes, base, count, want.data());
    for (int i = 0; i < count; ++i) {
      ASSERT_EQ(got[i], want[i]) << "iter " << iter << " i " << i;
      ASSERT_EQ(got[i], ids[i]) << "iter " << iter << " i " << i;
    }
  }
}

}  // namespace
}  // namespace fairmatch

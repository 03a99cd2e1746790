#include "fairmatch/assign/sb_alt.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>
#include <vector>

#include "fairmatch/assign/skyline_loop.h"
#include "fairmatch/common/float_util.h"
#include "fairmatch/common/simd.h"

namespace fairmatch {

namespace {

/// Knapsack-tight threshold (Section 5.1) given per-list frontier
/// values. `o` and `dim_order` are one member's rows of the flat SoA
/// blocks (length `dims` each).
double TightThreshold(const float* o, const int* dim_order, int dims,
                      const std::vector<double>& frontier, double budget) {
  double threshold = 0.0;
  for (int j = 0; j < dims; ++j) {
    if (budget <= 0.0) break;
    const int d = dim_order[j];
    double beta = std::min(budget, frontier[d]);
    threshold += beta * o[d];
    budget -= beta;
  }
  return threshold;
}

/// The batch scan's member state in flat SoA blocks, hoisted so loop
/// iterations reuse capacity: coordinates and
/// per-member dim orders are `dims`-strided rows, best scores/functions
/// are parallel arrays. `active` compacts the not-yet-done members so
/// the per-page loops cost O(active) instead of O(members); `by_dim[d]`
/// orders members by descending o[d] (the probe's dominant term is
/// coef * o[d]), the order in which the fetch-worthiness probe walks
/// them when its witness fails. Retired members stay in the order and
/// are skipped, and the walk bounds up to 8 members per kernel call, so
/// even an early pass costs a scan and a full batch; `witness[d]`, the
/// member that last passed the probe for list d (-1: none yet this
/// loop), is tried first to skip that. `act_cols` mirrors the active
/// set as dim-major float columns (column j = member active[j]) so the
/// per-fetch scoring loop runs through the vectorized block kernel
/// (common/simd.h); `act_scores` receives one block of scores per
/// fetched function.
struct BatchMemberBlocks {
  std::vector<const SkylineObject*> member;
  std::vector<float> pts;    // members x dims
  std::vector<int> order;    // members x dims, o desc per member
  std::vector<FunctionId> best_f;
  std::vector<double> best_s;
  std::vector<uint8_t> done;
  std::vector<int> active;
  std::vector<float> act_cols;  // dims x m_count, column j = active[j]
  std::vector<double> act_scores;
  std::vector<std::vector<int>> by_dim;
  std::vector<int> witness;  // per list
  int m_count = 0;

  /// (Re)fills every block from the current skyline members; best
  /// functions are recomputed from scratch each loop. Kept out of line,
  /// like WorthFetching: inlined into BatchSearch::Candidates, their
  /// only caller, they slow SB-alt's scan loop (assign_diskf read 7-10%
  /// slower on a 4-vCPU x86 VM).
  [[gnu::noinline]] void Gather(const SkylineSet& sky, int dims) {
    m_count = static_cast<int>(sky.size());
    member.clear();
    pts.clear();
    order.resize(static_cast<size_t>(m_count) * dims);
    sky.ForEach([&](int, const SkylineObject& m) {
      const int idx = static_cast<int>(member.size());
      member.push_back(&m);
      for (int d = 0; d < dims; ++d) pts.push_back(m.point[d]);
      int* ord = &order[static_cast<size_t>(idx) * dims];
      std::iota(ord, ord + dims, 0);
      const float* pt = &pts[static_cast<size_t>(idx) * dims];
      std::sort(ord, ord + dims, [pt](int a, int b) {
        if (pt[a] != pt[b]) return pt[a] > pt[b];
        return a < b;
      });
    });
    best_f.assign(m_count, kInvalidFunction);
    best_s.assign(m_count, 0.0);
    done.assign(m_count, 0);
    active.resize(m_count);
    std::iota(active.begin(), active.end(), 0);
    act_cols.resize(static_cast<size_t>(dims) * m_count);
    for (int d = 0; d < dims; ++d) {
      float* col = &act_cols[static_cast<size_t>(d) * m_count];
      for (int j = 0; j < m_count; ++j) {
        col[j] = pts[static_cast<size_t>(j) * dims + d];
      }
    }
    act_scores.resize(m_count);
    // Member indices change every loop, so witnesses do not carry over.
    witness.assign(dims, -1);
    by_dim.resize(dims);
    for (int d = 0; d < dims; ++d) {
      std::vector<int>& ord = by_dim[d];
      ord.resize(m_count);
      std::iota(ord.begin(), ord.end(), 0);
      std::sort(ord.begin(), ord.end(), [&](int a, int b) {
        const float oa = pts[static_cast<size_t>(a) * dims + d];
        const float ob = pts[static_cast<size_t>(b) * dims + d];
        if (oa != ob) return oa > ob;
        return a < b;
      });
    }
  }

  /// One vectorized scoring pass of function `fid` (coefficients `eff`,
  /// `dims` doubles) over the active member columns (per member:
  /// eff[k] * o[k] accumulated in ascending k, the exact scalar
  /// sequence), then the best-function updates with the smallest-id tie
  /// rule.
  void ScoreAgainst(FunctionId fid, const double* eff, int dims) {
    const int act_n = static_cast<int>(active.size());
    simd::ScoreColumns(act_cols.data(), m_count, dims, eff, act_n,
                       act_scores.data());
    for (int j = 0; j < act_n; ++j) {
      const int m = active[j];
      const double s = act_scores[j];
      if (best_f[m] == kInvalidFunction || s > best_s[m] ||
          (s == best_s[m] && fid < best_f[m])) {
        best_f[m] = fid;
        best_s[m] = s;
      }
    }
  }

  /// Threshold test (strict: ties keep scanning so the smallest-id tie
  /// winner is found). A member whose best provably beats every unseen
  /// function's knapsack bound leaves the active set for the rest of
  /// this loop iteration; returns how many retired.
  int RetireProvablyDone(int dims, const std::vector<double>& frontier,
                         double max_gamma) {
    int retired = 0;
    for (size_t i = 0; i < active.size();) {
      const int m = active[i];
      if (best_f[m] != kInvalidFunction) {
        const double t = TightThreshold(
            &pts[static_cast<size_t>(m) * dims],
            &order[static_cast<size_t>(m) * dims], dims, frontier, max_gamma);
        if (best_s[m] > t + kBoundSlack) {
          done[m] = 1;
          retired++;
          active[i] = active.back();
          active.pop_back();
          // Mirror the swap-remove into the column block.
          const size_t last = active.size();
          for (int d2 = 0; d2 < dims; ++d2) {
            float* col = &act_cols[static_cast<size_t>(d2) * m_count];
            col[i] = col[last];
          }
          continue;
        }
      }
      ++i;
    }
    return retired;
  }

  /// Search-structure bytes for the shared MemoryTracker.
  size_t memory_bytes(int dims) const {
    return static_cast<size_t>(m_count) *
           (sizeof(const SkylineObject*) + sizeof(FunctionId) +
            sizeof(double) + 1 + (dims + 1) * (sizeof(float) + sizeof(int)));
  }
};

/// Fetch-worthiness probe: before paying the random accesses for a
/// newly encountered function (list `d`, effective coefficient `coef`),
/// bound its score against every undone member — the function was
/// unseen until now, so in every other list its entry is at or below
/// the scan frontier (alpha'_k <= frontier[k]) and its coefficients sum
/// to at most max gamma. Returns true as soon as one member has no
/// candidate yet or its bound reaches its current best.
///
/// The list's witness (the member that last made the probe pass) is
/// tried first, then the other members in by_dim[d] order. Most probes
/// pass, and mostly on the witness: on `assign_diskf` (seed 1) 91% of
/// probes passed and the witness decided 99% of those. The outcome is
/// an "exists an undone member" test, so the order in which members are
/// tried cannot change it: the fetched functions, their order and every
/// counted page read stay the same. Bounds go through the vectorized
/// lane kernel, one lane for the witness and batches of up to 8 members
/// in the walk; every lane runs the scalar reference's operation
/// sequence bit-for-bit (zero-beta lanes add an exact +0.0), so a
/// member's bound does not depend on its lane. Kept out of line (see
/// Gather).
[[gnu::noinline]] bool WorthFetching(BatchMemberBlocks* mb, int dims, int d,
                                     double coef, double max_gamma,
                                     const std::vector<double>& frontier) {
  const double budget0 = max_gamma - coef;
  const auto bounds_of = [&](const int* members, int count, double* out) {
    simd::KnapsackBounds(mb->pts.data(), mb->order.data(),
                         static_cast<size_t>(dims), dims, d, coef, budget0,
                         frontier.data(), members, count, out);
  };
  int& witness = mb->witness[d];
  const int tried = witness;
  if (tried >= 0 && !mb->done[tried]) {
    if (mb->best_f[tried] == kInvalidFunction) return true;
    double bound = 0.0;
    bounds_of(&tried, 1, &bound);
    if (bound >= mb->best_s[tried] - kBoundSlack) return true;
  }
  int lanes[8];
  double bounds[8];
  int n_lanes = 0;
  // Sets the witness to the first lane whose bound reaches its best.
  const auto any_reaches_best = [&](int count) {
    for (int i = 0; i < count; ++i) {
      if (bounds[i] >= mb->best_s[lanes[i]] - kBoundSlack) {
        witness = lanes[i];
        return true;
      }
    }
    return false;
  };
  for (int m : mb->by_dim[d]) {
    if (mb->done[m] || m == tried) continue;
    if (mb->best_f[m] == kInvalidFunction) {
      witness = m;
      return true;
    }
    lanes[n_lanes++] = m;
    if (n_lanes == 8) {
      bounds_of(lanes, n_lanes, bounds);
      if (any_reaches_best(n_lanes)) return true;
      n_lanes = 0;
    }
  }
  if (n_lanes > 0) {
    bounds_of(lanes, n_lanes, bounds);
    if (any_reaches_best(n_lanes)) return true;
  }
  return false;
}

// --- the page cursor ---------------------------------------------------
// Walks a DiskFunctionStore's D sorted coefficient lists one page per
// list in round-robin order (lists 0..D-1, then again; exhausted lists
// are skipped) for BatchSearch. Rewind() restarts every list and sets
// the initial per-list frontiers; Next() reads the next page and
// returns its list (-1 once every list is exhausted); fid()/coef() read
// entry r of that page; Eff() gives a function's full
// effective-coefficient row, at D-1 counted random accesses; Advance()
// lowers the list's frontier — the upper bound on the coefficient of
// any function not yet seen in it — past the page.
class RoundRobinPages {
 public:
  explicit RoundRobinPages(DiskFunctionStore* store)
      : store_(store),
        dims_(store->dims()),
        pages_(store->pages_per_list()),
        next_page_(dims_, 0) {}

  double max_gamma() const { return store_->max_gamma(); }

  void Rewind(std::vector<double>* frontier) {
    std::fill(next_page_.begin(), next_page_.end(), 0);
    next_dim_ = 0;
    std::fill(frontier->begin(), frontier->end(), store_->max_gamma());
  }

  int Next() {
    for (int i = 0; i < dims_; ++i) {
      const int d = next_dim_;
      if (++next_dim_ == dims_) next_dim_ = 0;
      if (next_page_[d] >= pages_) continue;
      count_ = store_->ReadListPage(d, next_page_[d]++, &page_);
      return d;
    }
    return -1;
  }

  int count() const { return count_; }
  FunctionId fid(int r) const { return page_[r].fid; }
  double coef(int r, int /*d*/) const { return page_[r].coef; }

  const double* Eff(FunctionId fid, int d, double coef) {
    store_->FetchEff(fid, d, coef, eff_.data());
    return eff_.data();
  }

  void Advance(int d, std::vector<double>* frontier) const {
    if (count_ > 0) (*frontier)[d] = page_[count_ - 1].coef;
  }

  /// The page copy is storage-layer buffering, not a search structure.
  size_t memory_bytes() const { return 0; }

 private:
  DiskFunctionStore* store_;
  int dims_;
  int64_t pages_;
  std::vector<int64_t> next_page_;
  int next_dim_ = 0;
  std::vector<ListRecord> page_;
  int count_ = 0;
  std::array<double, kMaxDims> eff_{};
};

/// SB-alt's candidate source: each loop scans the lists page by page
/// through a RoundRobinPages cursor once, scoring every newly seen,
/// unassigned, worth-fetching function against all still-active
/// members, until every member is provably done or the lists run out. No per-member state
/// survives the loop. A member leaves the active set only once it has a
/// candidate, and each fetched function is scored against every active
/// member, so after the scan either every member has a candidate or
/// none has (no unassigned function was reached).
class BatchSearch final : public CandidateSource {
 public:
  BatchSearch(RoundRobinPages cursor, const AssignmentProblem& problem)
      : cursor_(std::move(cursor)),
        dims_(problem.dims),
        max_gamma_(cursor_.max_gamma()),
        seen_gen_(problem.functions.size(), 0),
        frontier_(problem.dims, 0.0) {}

  bool Candidates(const SkylineSet& sky, const std::vector<uint8_t>& assigned,
                  int64_t /*remaining*/,
                  std::vector<MemberCandidate>* out) override {
    mb_.Gather(sky, dims_);
    cursor_.Rewind(&frontier_);
    ++gen_;
    int undone = mb_.m_count;
    int d;
    while (undone > 0 && (d = cursor_.Next()) >= 0) {
      for (int r = 0; r < cursor_.count(); ++r) {
        const FunctionId fid = cursor_.fid(r);
        if (seen_gen_[fid] == gen_) continue;
        seen_gen_[fid] = gen_;
        if (assigned[fid]) continue;
        // Skipping an unworthy fetch is what keeps the batch search's
        // I/O low once the early list prefixes are consumed.
        const double coef = cursor_.coef(r, d);
        if (!WorthFetching(&mb_, dims_, d, coef, max_gamma_, frontier_)) {
          continue;
        }
        mb_.ScoreAgainst(fid, cursor_.Eff(fid, d, coef), dims_);
      }
      cursor_.Advance(d, &frontier_);
      undone -= mb_.RetireProvablyDone(dims_, frontier_, max_gamma_);
    }
    for (int m = 0; m < mb_.m_count; ++m) {
      if (mb_.best_f[m] == kInvalidFunction) return false;
      const SkylineObject& member = *mb_.member[m];
      out->push_back(MemberCandidate{member.id, &member.point, mb_.best_f[m],
                                     mb_.best_s[m]});
    }
    return true;
  }

  size_t memory_bytes() const override {
    return seen_gen_.size() * sizeof(uint32_t) + mb_.memory_bytes(dims_) +
           cursor_.memory_bytes();
  }

 private:
  RoundRobinPages cursor_;
  const int dims_;
  const double max_gamma_;
  BatchMemberBlocks mb_;
  // Generation-stamped seen set: cleared by bumping `gen_`, not O(|F|).
  std::vector<uint32_t> seen_gen_;
  uint32_t gen_ = 0;
  std::vector<double> frontier_;
};

}  // namespace

AssignResult SBAltAssignment(const AssignmentProblem& problem,
                             const RTree& tree, DiskFunctionStore* store,
                             ExecContext* ctx) {
  BatchSearch source(RoundRobinPages(store), problem);
  SkylineLoopOptions loop;
  loop.algorithm = "SB-alt";
  return RunSkylineLoop(problem, tree, loop, &source, ctx);
}

}  // namespace fairmatch

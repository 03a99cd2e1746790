#include "fairmatch/assign/two_skyline.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fairmatch/assign/skyline_loop.h"
#include "fairmatch/common/check.h"

namespace fairmatch {

namespace {

/// Deletion-only skyline over the functions' effective-coefficient
/// vectors, in full double precision (exact dominance), with
/// pruned-point parking in the style of UpdateSkyline.
class FunctionSkyline {
 public:
  explicit FunctionSkyline(const FunctionSet& fns) : fns_(&fns) {
    const int dims = fns[0].dims;
    sums_.resize(fns.size());
    removed_.assign(fns.size(), 0);
    plist_.resize(fns.size());
    std::vector<FunctionId> order(fns.size());
    std::iota(order.begin(), order.end(), 0);
    for (const PrefFunction& f : fns) {
      double s = 0.0;
      for (int d = 0; d < dims; ++d) s += f.eff(d);
      sums_[f.id] = s;
    }
    std::sort(order.begin(), order.end(), [&](FunctionId a, FunctionId b) {
      if (sums_[a] != sums_[b]) return sums_[a] > sums_[b];
      return a < b;
    });
    for (FunctionId fid : order) Park(fid);
  }

  /// Removes a function; promotes parked functions it dominated.
  void Remove(FunctionId fid) {
    FAIRMATCH_CHECK(!removed_[fid]);
    removed_[fid] = 1;
    auto it = member_order_.find(std::make_pair(-sums_[fid], fid));
    if (it == member_order_.end()) return;  // dominated: lazily skipped
    member_order_.erase(it);
    members_.erase(fid);
    std::vector<FunctionId> pending = std::move(plist_[fid]);
    plist_[fid].clear();
    std::sort(pending.begin(), pending.end(),
              [&](FunctionId a, FunctionId b) {
                if (sums_[a] != sums_[b]) return sums_[a] > sums_[b];
                return a < b;
              });
    for (FunctionId p : pending) {
      if (removed_[p]) continue;
      Park(p);
    }
  }

  /// Live skyline member ids (descending effective-sum order).
  template <typename Fn>
  void ForEachMember(Fn&& fn) const {
    for (const auto& [key, fid] : member_order_) fn(fid);
  }

  size_t size() const { return members_.size(); }

  size_t memory_bytes() const {
    size_t bytes = sums_.size() * 8 + removed_.size() +
                   member_order_.size() * 48;
    for (const auto& list : plist_) bytes += list.capacity() * 4;
    return bytes;
  }

 private:
  /// True iff a strictly dominates b in effective-coefficient space.
  bool Dominates(FunctionId a, FunctionId b) const {
    const PrefFunction& fa = (*fns_)[a];
    const PrefFunction& fb = (*fns_)[b];
    bool strict = false;
    for (int d = 0; d < fa.dims; ++d) {
      double ea = fa.eff(d);
      double eb = fb.eff(d);
      if (ea < eb) return false;
      if (ea > eb) strict = true;
    }
    return strict;
  }

  void Park(FunctionId fid) {
    // Scan members in descending sum order; a dominator has a strictly
    // larger effective sum.
    for (const auto& [key, member] : member_order_) {
      if (-key.first <= sums_[fid]) break;
      if (Dominates(member, fid)) {
        plist_[member].push_back(fid);
        return;
      }
    }
    member_order_.emplace(std::make_pair(-sums_[fid], fid), fid);
    members_.insert(fid);
  }

  const FunctionSet* fns_;
  std::vector<double> sums_;
  std::vector<uint8_t> removed_;
  std::vector<std::vector<FunctionId>> plist_;
  std::map<std::pair<double, FunctionId>, FunctionId> member_order_;
  std::unordered_set<FunctionId> members_;
};

/// The two-skyline candidate source: a member's best function is found
/// by an exhaustive scan of the function skyline (Section 6.2), then
/// cached. A cached candidate stays the best function: F only shrinks,
/// and a function promoted into F_sky was dominated by a (just removed)
/// member, whose score on this object is itself bounded by the cached
/// candidate's.
class FunctionSkylineCandidates final : public CandidateSource {
 public:
  explicit FunctionSkylineCandidates(const FunctionSet& fns)
      : fns_(&fns), fsky_(fns) {}

  bool Candidates(const SkylineSet& sky, const std::vector<uint8_t>& assigned,
                  int64_t /*remaining*/,
                  std::vector<MemberCandidate>* out) override {
    bool exhausted = false;
    sky.ForEach([&](int, const SkylineObject& m) {
      if (exhausted) return;
      Cand& cand = cands_[m.id];
      if (cand.fid == kInvalidFunction || assigned[cand.fid]) {
        cand.fid = kInvalidFunction;
        fsky_.ForEachMember([&](FunctionId fid) {
          double s = (*fns_)[fid].Score(m.point);
          if (cand.fid == kInvalidFunction || s > cand.score ||
              (s == cand.score && fid < cand.fid)) {
            cand.fid = fid;
            cand.score = s;
          }
        });
        if (cand.fid == kInvalidFunction) {
          exhausted = true;
          return;
        }
      }
      out->push_back(MemberCandidate{m.id, &m.point, cand.fid, cand.score});
    });
    return !exhausted;
  }

  void OnFunctionAssigned(FunctionId fid) override { fsky_.Remove(fid); }

  void OnObjectRemoved(ObjectId oid) override { cands_.erase(oid); }

  size_t memory_bytes() const override {
    return fsky_.memory_bytes() + cands_.size() * 32;
  }

 private:
  struct Cand {
    FunctionId fid = kInvalidFunction;
    double score = 0.0;
  };

  const FunctionSet* fns_;
  FunctionSkyline fsky_;
  std::unordered_map<ObjectId, Cand> cands_;
};

}  // namespace

AssignResult TwoSkylineAssignment(const AssignmentProblem& problem,
                                  const RTree& tree, ExecContext* ctx) {
  FunctionSkylineCandidates source(problem.functions);
  SkylineLoopOptions loop;
  loop.algorithm = "SB-TwoSkylines";
  return RunSkylineLoop(problem, tree, loop, &source, ctx);
}

}  // namespace fairmatch

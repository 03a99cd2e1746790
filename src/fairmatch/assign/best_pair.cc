#include "fairmatch/assign/best_pair.h"

#include <algorithm>
#include <limits>

#include "fairmatch/common/check.h"
#include "fairmatch/common/simd.h"

namespace fairmatch {

BestPairEngine::BestPairEngine(const FunctionSet* fns)
    : fns_(fns), obest_(fns->size()) {}

std::vector<MatchPair> BestPairEngine::FindMutualPairs(
    const std::vector<MemberCandidate>& members,
    const std::vector<ObjectId>& added) {
  const uint32_t prev = call_++;

  // This call's newcomers, as member indexes.
  newcomers_.clear();
  if (!added.empty()) {
    Mark(added, 1);
    for (size_t j = 0; j < members.size(); ++j) {
      const size_t oid = static_cast<size_t>(members[j].oid);
      if (oid < marked_.size() && marked_[oid]) {
        newcomers_.push_back(static_cast<int>(j));
      }
    }
    Mark(added, 0);
  }

  // Walk F_best once: a valid cached f.obest meets only the newcomers;
  // every other function is queued for a rescan.
  fbest_.clear();
  rescans_.clear();
  for (const MemberCandidate& m : members) {
    const FunctionId fid = m.fbest;
    FAIRMATCH_DCHECK(fid >= 0 && static_cast<size_t>(fid) < fns_->size());
    Entry& best = obest_[fid];
    if (best.fresh == call_) continue;  // already seen this call
    const bool cached = best.fresh == prev;
    best.fresh = call_;
    fbest_.push_back(fid);
    if (!cached) {
      rescans_.push_back(fid);
      continue;
    }
    const PrefFunction& f = (*fns_)[fid];
    for (int j : newcomers_) {
      const MemberCandidate& n = members[j];
      const double s = f.Score(*n.point);
      if (PairBefore(s, fid, n.oid, best.score, fid, best.oid)) {
        best.oid = n.oid;
        best.score = s;
      }
    }
  }
  if (!rescans_.empty()) {
    GatherColumns(members);
    for (FunctionId fid : rescans_) Rescan(fid, members);
  }

  // Report members whose candidate function points back at them.
  std::vector<MatchPair> pairs;
  for (const MemberCandidate& m : members) {
    if (obest_[m.fbest].oid == m.oid) {
      pairs.push_back(MatchPair{m.fbest, m.oid, m.fbest_score});
    }
  }
  return pairs;
}

void BestPairEngine::GatherColumns(
    const std::vector<MemberCandidate>& members) {
  const int dims = members.front().point->dims();
  stride_ = simd::ScoreBlockStride(members.size());
  // Lanes past the last member keep whatever they held: the kernel
  // reads them but masks them out.
  cols_.resize(static_cast<size_t>(dims) * stride_);
  for (size_t j = 0; j < members.size(); ++j) {
    const Point& p = *members[j].point;
    for (int d = 0; d < dims; ++d) {
      cols_[static_cast<size_t>(d) * stride_ + j] = p[d];
    }
  }
}

void BestPairEngine::Rescan(FunctionId fid,
                            const std::vector<MemberCandidate>& members) {
  const PrefFunction& f = (*fns_)[fid];
  // PrefFunction::Score's per-term factor, alpha * gamma, applied by the
  // kernel in the same order from 0.0: the scores are bit-identical.
  double weights[kMaxDims] = {};
  for (int d = 0; d < f.dims; ++d) weights[d] = f.alpha[d] * f.gamma;
  ObjectId best = kInvalidObject;
  double best_score = -std::numeric_limits<double>::infinity();
  double bars[simd::kScoreBlock];
  double scores[simd::kScoreBlock];
  std::fill(bars, bars + simd::kScoreBlock, best_score);
  const int n = static_cast<int>(members.size());
  for (int j0 = 0; j0 < n; j0 += simd::kScoreBlock) {
    uint32_t hits = simd::ScoreBlockAtLeast(&cols_[j0], stride_, f.dims,
                                            weights, bars, n - j0, scores);
    if (hits == 0) continue;
    for (; hits != 0; hits &= hits - 1) {
      const int lane = __builtin_ctz(hits);
      const MemberCandidate& m = members[j0 + lane];
      if (PairBefore(scores[lane], fid, m.oid, best_score, fid, best)) {
        best = m.oid;
        best_score = scores[lane];
      }
    }
    std::fill(bars, bars + simd::kScoreBlock, best_score);
  }
  obest_[fid].oid = best;
  obest_[fid].score = best_score;
}

void BestPairEngine::OnObjectsRemoved(const std::vector<ObjectId>& removed) {
  if (removed.empty()) return;
  Mark(removed, 1);
  // Only the last call's F_best can hold valid entries.
  for (FunctionId fid : fbest_) {
    Entry& best = obest_[fid];
    const size_t oid = static_cast<size_t>(best.oid);
    if (best.fresh == call_ && oid < marked_.size() && marked_[oid]) {
      best.fresh = 0;
    }
  }
  Mark(removed, 0);
}

void BestPairEngine::Mark(const std::vector<ObjectId>& oids, uint8_t value) {
  for (ObjectId oid : oids) {
    FAIRMATCH_DCHECK(oid >= 0);
    if (static_cast<size_t>(oid) >= marked_.size()) {
      marked_.resize(static_cast<size_t>(oid) + 1, 0);
    }
    marked_[oid] = value;
  }
}

void BestPairEngine::OnFunctionAssigned(FunctionId fid) {
  obest_[fid].fresh = 0;
}

ObjectId BestPairEngine::CachedBest(FunctionId fid) const {
  return obest_[fid].fresh == call_ ? obest_[fid].oid : kInvalidObject;
}

size_t BestPairEngine::memory_bytes() const {
  return sizeof(*this) + obest_.capacity() * sizeof(Entry) +
         fbest_.capacity() * sizeof(FunctionId) + marked_.capacity() +
         newcomers_.capacity() * sizeof(int) +
         rescans_.capacity() * sizeof(FunctionId) +
         cols_.capacity() * sizeof(float);
}

}  // namespace fairmatch

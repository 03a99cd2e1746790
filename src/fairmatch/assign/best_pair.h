// Mutual-best pairing between the skyline members and their candidate
// functions (paper Section 5.3, Algorithm 3 lines 8-17).
//
// Each loop, every skyline member o carries its best unassigned function
// o.fbest. For every function f appearing as some member's fbest
// (F_best), the engine computes f.obest — f's best object *among the
// skyline members*, under the PairBefore order — and reports the pairs
// with (f.obest).fbest == f, which Property 2 proves stable.
//
// A call costs what the loop changed, not what the skyline holds:
//  * f.obest is cached. An entry made by the previous call is still
//    valid unless its object was removed (assigned) or f was assigned;
//    it is compared only against this call's newcomers, O(|added|)
//    scores per function.
//  * Every other f in F_best — absent from the previous call's F_best,
//    or whose cached object was removed — is rescanned (an entry older
//    than the previous call missed that call's newcomers). The call
//    copies the members' points once into dim-major float columns
//    padded to whole simd::kScoreBlock blocks, and each rescan walks
//    them with simd::ScoreBlockAtLeast, the bar being the best score so
//    far; only lanes that reach it are resolved, in member order, by
//    PairBefore.
//  * The bookkeeping is dense arrays — per function (the cache entry
//    with its stamp) and per object id (a scratch mark for newcomers
//    and removals) — so no member costs a hash lookup.
// Per call that is O(|members| + |added|) to find the newcomers and
// report the pairs, O(|F_best| x |added| x D) for the cached entries,
// and, only when some f needs a rescan, O(|members| x D) to copy the
// columns plus O(rescans x |members| x D) vector work.
//
// In SB's loop a cached f stays in F_best until its cached object is
// assigned: a member keeps its candidate until that function is
// assigned, and leaves the skyline only by pairing with it. So the
// rescans there are exactly the first sightings and the invalidations.
#ifndef FAIRMATCH_ASSIGN_BEST_PAIR_H_
#define FAIRMATCH_ASSIGN_BEST_PAIR_H_

#include <cstdint>
#include <vector>

#include "fairmatch/assign/problem.h"

namespace fairmatch {

/// One skyline member with its current candidate function.
struct MemberCandidate {
  ObjectId oid = kInvalidObject;
  const Point* point = nullptr;
  FunctionId fbest = kInvalidFunction;
  double fbest_score = 0.0;
};

/// Stateful mutual-best pair finder.
class BestPairEngine {
 public:
  explicit BestPairEngine(const FunctionSet* fns);

  /// Returns the stable pairs among `members` under Property 2.
  /// `added` lists the member oids that joined the skyline since the
  /// previous call (pass all members on the first call). Object ids
  /// need not be dense; per-id marks grow to the largest id seen.
  std::vector<MatchPair> FindMutualPairs(
      const std::vector<MemberCandidate>& members,
      const std::vector<ObjectId>& added);

  /// Invalidate cached entries pointing at removed (assigned) objects.
  void OnObjectsRemoved(const std::vector<ObjectId>& removed);

  /// Drop the cache entry of an exhausted function.
  void OnFunctionAssigned(FunctionId fid);

  /// `fid`'s best member as of the last call, or kInvalidObject when
  /// `fid` was not in that call's F_best or its entry was invalidated
  /// since.
  ObjectId CachedBest(FunctionId fid) const;

  size_t memory_bytes() const;

 private:
  /// f.obest. `fresh` == call_ marks an entry the last call made or
  /// refreshed and nothing has invalidated since; 0 marks none.
  struct Entry {
    ObjectId oid = kInvalidObject;
    uint32_t fresh = 0;
    double score = 0.0;
  };

  /// Sets marked_[oid] = value for every oid in `oids`.
  void Mark(const std::vector<ObjectId>& oids, uint8_t value);

  /// Copies the members' points into cols_ (dim-major, padded).
  void GatherColumns(const std::vector<MemberCandidate>& members);

  /// Recomputes obest_[fid] over every member from the columns.
  void Rescan(FunctionId fid, const std::vector<MemberCandidate>& members);

  const FunctionSet* fns_;
  uint32_t call_ = 1;              // number of the last call
  std::vector<Entry> obest_;       // per function
  std::vector<FunctionId> fbest_;  // the last call's F_best
  // Per object id, 0 between calls: FindMutualPairs marks its added
  // ids, OnObjectsRemoved its removed ones, and both clear them again.
  std::vector<uint8_t> marked_;
  std::vector<int> newcomers_;  // member indexes of the call's added
  std::vector<FunctionId> rescans_;
  std::vector<float> cols_;  // dims rows x stride_ columns
  size_t stride_ = 0;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_ASSIGN_BEST_PAIR_H_

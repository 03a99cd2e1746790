// Per-dimension sorted coefficient lists over the function set F
// (Section 5.1). List L_i holds (f.alpha'_i, f) pairs for all f in F,
// sorted descending by the effective coefficient alpha'_i = alpha_i *
// gamma. The lists are static; assigned functions are skipped lazily.
//
// FunctionIndexBase abstracts where the lists live: FunctionLists keeps
// them in memory (the paper's default setting, F fits in memory), while
// DiskFunctionStore (disk_function_lists.h) materializes them on the
// simulated disk with counted I/O (Section 7.6 / Figure 17).
#ifndef FAIRMATCH_TOPK_FUNCTION_LISTS_H_
#define FAIRMATCH_TOPK_FUNCTION_LISTS_H_

#include <utility>
#include <vector>

#include "fairmatch/common/preference.h"

namespace fairmatch {

class PackedFunctionStore;

/// Access interface for the TA-style reverse top-1 search. Methods are
/// non-const because disk-backed implementations count I/O.
class FunctionIndexBase {
 public:
  virtual ~FunctionIndexBase() = default;

  virtual int dims() const = 0;
  /// Number of functions (= length of every list).
  virtual int size() const = 0;
  /// Knapsack budget B = max gamma over F (Section 6.2).
  virtual double max_gamma() const = 0;

  /// Entry `pos` (0-based, descending coefficient order) of list `dim`.
  virtual std::pair<double, FunctionId> Entry(int dim, int pos) = 0;

  /// Aggregate score of function `fid` on object `o` — the TA "random
  /// accesses" that collect the function's remaining coefficients.
  virtual double ScoreOf(FunctionId fid, const Point& o) = 0;

  /// Fast path: direct pointer to list `dim`'s entries when the index is
  /// memory-resident (saves a virtual call per TA probe), or nullptr for
  /// disk-backed indexes whose accesses must be counted.
  virtual const std::pair<double, FunctionId>* RawList(int dim) const {
    (void)dim;
    return nullptr;
  }

  /// Fast path: the function-major effective-coefficient table
  /// (`table[fid * dims() + d]` = alpha_d * gamma) of a memory-resident
  /// index, or nullptr for disk-backed indexes. A score summed from a
  /// row in dimension order is bit-identical to PrefFunction::Score.
  virtual const double* EffTable() const { return nullptr; }

  /// Downcast hook: the packed block store returns itself, every other
  /// backend nullptr. Lets ReverseTop1 opt into the impact-ordered
  /// block traversal without RTTI.
  virtual PackedFunctionStore* packed() { return nullptr; }
};

/// Immutable in-memory sorted-list index over F's effective coefficients.
class FunctionLists : public FunctionIndexBase {
 public:
  /// Builds the D sorted lists. `fns` must outlive this index.
  explicit FunctionLists(const FunctionSet* fns);

  int dims() const override { return dims_; }
  int size() const override { return static_cast<int>(fns_->size()); }
  double max_gamma() const override { return max_gamma_; }

  std::pair<double, FunctionId> Entry(int dim, int pos) override {
    return lists_[dim][pos];
  }

  double ScoreOf(FunctionId fid, const Point& o) override {
    return (*fns_)[fid].Score(o);
  }

  const std::pair<double, FunctionId>* RawList(int dim) const override {
    return lists_[dim].data();
  }

  const double* EffTable() const override { return eff_.data(); }

  const FunctionSet& functions() const { return *fns_; }

  /// Bytes held by the index: the lists plus the coefficient table.
  size_t memory_bytes() const;

 private:
  const FunctionSet* fns_;
  int dims_;
  double max_gamma_;
  std::vector<std::vector<std::pair<double, FunctionId>>> lists_;
  std::vector<double> eff_;  // function-major effective coefficients
};

}  // namespace fairmatch

#endif  // FAIRMATCH_TOPK_FUNCTION_LISTS_H_

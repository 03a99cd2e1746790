// D-dimensional points with runtime dimensionality (D <= kMaxDims).
//
// Convention throughout fairmatch: *larger coordinate values are better*
// (the paper's "best point" is the top corner of the space). Dominance,
// skyline and score computations all follow this orientation.
#ifndef FAIRMATCH_GEOM_POINT_H_
#define FAIRMATCH_GEOM_POINT_H_

#include <array>
#include <string>

#include "fairmatch/common/check.h"
#include "fairmatch/common/types.h"

namespace fairmatch {

/// Fixed-capacity point. Coordinates are stored as float (matching the
/// on-page R-tree layout); scores are computed in double.
class Point {
 public:
  Point() : dims_(0) { v_.fill(0.0f); }

  explicit Point(int dims, float value = 0.0f) : dims_(dims) {
    FAIRMATCH_CHECK(dims >= 1 && dims <= kMaxDims);
    v_.fill(0.0f);
    for (int i = 0; i < dims_; ++i) v_[i] = value;
  }

  int dims() const { return dims_; }

  float operator[](int i) const {
    FAIRMATCH_DCHECK(i >= 0 && i < dims_);
    return v_[i];
  }
  float& operator[](int i) {
    FAIRMATCH_DCHECK(i >= 0 && i < dims_);
    return v_[i];
  }

  /// True iff this point dominates `other`: >= in every dimension and
  /// the points do not coincide (paper Section 2.2).
  bool Dominates(const Point& other) const;

  /// True iff every coordinate is >= the corresponding one of `other`
  /// (coincident points allowed). This is the pruning relation used for
  /// R-tree entries: an entry whose best corner is covered this way
  /// cannot contain any skyline member that is not a duplicate.
  bool DominatesOrEqual(const Point& other) const;

  bool operator==(const Point& other) const;
  bool operator!=(const Point& other) const { return !(*this == other); }

  /// Sum of coordinates. Ordering by descending Sum() is the "ascending
  /// distance from the sky point" order used by BBS under L1 distance.
  double Sum() const;

  /// Linear score sum_i weights[i] * coord[i]. `weights` must have
  /// exactly dims() entries.
  double Score(const double* weights) const;

  std::string ToString() const;

 private:
  std::array<float, kMaxDims> v_;
  int dims_;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_GEOM_POINT_H_

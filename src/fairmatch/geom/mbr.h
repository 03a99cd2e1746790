// Minimum bounding rectangles for R-tree entries.
#ifndef FAIRMATCH_GEOM_MBR_H_
#define FAIRMATCH_GEOM_MBR_H_

#include <string>

#include "fairmatch/geom/point.h"

namespace fairmatch {

/// Axis-aligned box [lo, hi] in D dimensions.
class MBR {
 public:
  MBR() = default;

  /// Degenerate MBR around a single point.
  explicit MBR(const Point& p) : lo_(p), hi_(p) {}

  MBR(const Point& lo, const Point& hi) : lo_(lo), hi_(hi) {
    FAIRMATCH_DCHECK(lo.dims() == hi.dims());
  }

  /// An "empty" MBR that any Expand() call overwrites.
  static MBR Empty(int dims);

  int dims() const { return lo_.dims(); }
  const Point& lo() const { return lo_; }
  const Point& hi() const { return hi_; }

  /// Best corner under the larger-is-better convention.
  const Point& best_corner() const { return hi_; }

  bool is_empty() const { return empty_; }

  /// Grows to cover `p`.
  void Expand(const Point& p);
  /// Grows to cover `other`.
  void Expand(const MBR& other);

  bool Contains(const Point& p) const;
  bool Intersects(const MBR& other) const;

  double Area() const;
  double Margin() const;

  /// Area increase if this MBR were expanded to cover `p`.
  double Enlargement(const Point& p) const;

  /// Area increase if this MBR were expanded to cover `other`.
  double Enlargement(const MBR& other) const;

  /// Upper bound of sum-of-coordinates over the box: Sum(hi). Monotone
  /// key for BBS ordering ("ascending L1 distance from the sky point").
  double BestSum() const { return hi_.Sum(); }

  /// Upper bound of the linear score over the box:
  /// sum_i w[i] * hi[i], assuming non-negative weights (BRS maxscore).
  double MaxScore(const double* weights) const { return hi_.Score(weights); }

  /// True iff the box intersects the dominance region of `p`, i.e. it
  /// contains at least one point q with q <= p in every dimension.
  bool IntersectsDominanceRegionOf(const Point& p) const;

  bool operator==(const MBR& other) const {
    return lo_ == other.lo_ && hi_ == other.hi_ && empty_ == other.empty_;
  }

  std::string ToString() const;

 private:
  Point lo_;
  Point hi_;
  bool empty_ = false;

  friend class NodeView;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_GEOM_MBR_H_

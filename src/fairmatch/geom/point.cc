#include "fairmatch/geom/point.h"

#include <cstdio>

namespace fairmatch {

bool Point::Dominates(const Point& other) const {
  FAIRMATCH_DCHECK(dims_ == other.dims_);
  bool strict = false;
  for (int i = 0; i < dims_; ++i) {
    if (v_[i] < other.v_[i]) return false;
    if (v_[i] > other.v_[i]) strict = true;
  }
  return strict;
}

bool Point::DominatesOrEqual(const Point& other) const {
  FAIRMATCH_DCHECK(dims_ == other.dims_);
  for (int i = 0; i < dims_; ++i) {
    if (v_[i] < other.v_[i]) return false;
  }
  return true;
}

bool Point::operator==(const Point& other) const {
  if (dims_ != other.dims_) return false;
  for (int i = 0; i < dims_; ++i) {
    if (v_[i] != other.v_[i]) return false;
  }
  return true;
}

double Point::Sum() const {
  double s = 0.0;
  for (int i = 0; i < dims_; ++i) s += v_[i];
  return s;
}

double Point::Score(const double* weights) const {
  double s = 0.0;
  for (int i = 0; i < dims_; ++i) s += weights[i] * v_[i];
  return s;
}

std::string Point::ToString() const {
  std::string out = "(";
  char buf[32];
  for (int i = 0; i < dims_; ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.4f", i > 0 ? ", " : "", v_[i]);
    out += buf;
  }
  out += ")";
  return out;
}

}  // namespace fairmatch

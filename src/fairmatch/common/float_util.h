// Floating-point helpers.
#ifndef FAIRMATCH_COMMON_FLOAT_UTIL_H_
#define FAIRMATCH_COMMON_FLOAT_UTIL_H_

#include <cmath>
#include <limits>

namespace fairmatch {

/// Slack on the knapsack threshold tests of the top-1 searches (the
/// reverse top-1 probe loops and SB-alt's batch scan). The threshold
/// accumulates products in a different order than PrefFunction::Score,
/// so the two can disagree by a few ulps; the bound must stay an upper
/// bound of every unseen score, so a search stops only once its best
/// exceeds the bound by this slack (far above accumulated rounding, far
/// below any genuine score gap). Ties keep scanning, which is also what
/// makes the smallest-id winner reachable.
inline constexpr double kBoundSlack = 1e-9;

/// Smallest float >= x. Used when double-precision values (effective
/// function coefficients) are stored in float R-tree coordinates that
/// must remain valid *upper* bounds for branch-and-bound pruning.
inline float FloatUp(double x) {
  float f = static_cast<float>(x);
  if (static_cast<double>(f) < x) {
    f = std::nextafterf(f, std::numeric_limits<float>::infinity());
  }
  return f;
}

}  // namespace fairmatch

#endif  // FAIRMATCH_COMMON_FLOAT_UTIL_H_

// Synthetic workload generators following the skyline-literature
// methodology the paper uses (Börzsönyi et al.): independent, correlated
// and anti-correlated object sets, plus preference-function generators
// (independent simplex weights and the clustered Gaussian mixture of the
// Figure 12 experiment).
//
// Concurrency: every generator is a pure function of its arguments and
// the explicit Rng — no global or static state — so concurrent threads
// may generate in parallel as long as each passes its own Rng (see the
// per-request isolation contract in serve/server.h).
#ifndef FAIRMATCH_DATA_SYNTHETIC_H_
#define FAIRMATCH_DATA_SYNTHETIC_H_

#include <vector>

#include "fairmatch/assign/problem.h"
#include "fairmatch/common/rng.h"

namespace fairmatch {

/// Object attribute distribution (paper Section 7).
enum class Distribution {
  kIndependent,
  kCorrelated,
  kAntiCorrelated,
};

/// Parses "independent" / "correlated" / "anti" (prefix match).
Distribution ParseDistribution(const std::string& name);
const char* DistributionName(Distribution d);

/// Generates `n` points in [0,1]^dims.
std::vector<Point> GeneratePoints(Distribution distribution, int n, int dims,
                                  Rng* rng);

/// Generates `n` preference functions with independent weights uniform
/// on the simplex (coefficients sum to 1), capacity 1, gamma 1.
FunctionSet GenerateFunctions(int n, int dims, Rng* rng);

/// Clustered weights (Figure 12): `clusters` random centers; each
/// function picks a center and perturbs it with N(0, stddev) per
/// dimension, then re-normalizes.
FunctionSet GenerateClusteredFunctions(int n, int dims, int clusters,
                                       double stddev, Rng* rng);

/// Assigns uniform-random integer priorities in [1, max_gamma]
/// (Section 6.2).
void AssignPriorities(FunctionSet* fns, int max_gamma, Rng* rng);

/// Sets every function capacity to `k` (Section 6.1).
void SetFunctionCapacities(FunctionSet* fns, int k);

/// Builds a problem instance from points and functions.
AssignmentProblem MakeProblem(std::vector<Point> points, FunctionSet fns,
                              int object_capacity = 1);

}  // namespace fairmatch

#endif  // FAIRMATCH_DATA_SYNTHETIC_H_

// Selection of the smoothness weight lambda (paper Eq 5: "selected via
// cross validation", citing Craven & Wahba 1978).
//
// Two selectors are provided:
//  * k-fold cross-validation on the full constrained estimator — the
//    default, honest about the constraints;
//  * generalized cross-validation (GCV) on the unconstrained ridge path —
//    the classical Craven-Wahba criterion, cheap enough for dense lambda
//    grids.
#pragma once

#include <cstdint>
#include <string>

#include "core/deconvolver.h"

namespace cellsync {

/// Outcome of a lambda sweep.
struct Lambda_selection {
    double best_lambda = 0.0;
    Vector lambdas;    ///< grid searched
    Vector scores;     ///< CV or GCV score per grid point (lower is better)
    std::string method;///< "kfold" or "gcv"
};

/// Logarithmically spaced lambda grid; the defaults (15 points on
/// 1e-7 .. 1e1) are the grid every `run` searches. Throws
/// std::invalid_argument for count < 2 or non-positive bounds.
Vector default_lambda_grid(std::size_t count = 15, double lo = 1e-7, double hi = 1e1);

/// k-fold CV: folds are contiguous-free random partitions of the
/// measurement indices (seeded). Each fold is predicted from a model
/// fitted on the remaining rows with the full constrained estimator; the
/// score is the weighted held-out squared error, +inf for a lambda whose
/// constrained fit fails. `folds` is clamped to the measurement count
/// (leave-one-out at the limit). Throws std::invalid_argument for folds < 2,
/// an empty grid, a negative grid lambda, fewer than 3 measurements, or a
/// series that does not match the kernel time grid.
Lambda_selection select_lambda_kfold(const Deconvolver& deconvolver,
                                     const Measurement_series& series,
                                     const Deconvolution_options& base_options,
                                     const Vector& lambda_grid, std::size_t folds = 5,
                                     std::uint64_t seed = 77);

/// GCV: V(lambda) = m * ||(I - A) z||^2 / tr(I - A)^2 in whitened space,
/// with A the unconstrained hat matrix. The normal-equation blocks are
/// assembled once and swept across the grid through a cached
/// Kkt_factorization.
/// Throws std::invalid_argument for an empty grid.
Lambda_selection select_lambda_gcv(const Deconvolver& deconvolver,
                                   const Measurement_series& series,
                                   const Vector& lambda_grid);

/// The fold assignment used by select_lambda_kfold: a seeded shuffle of
/// the measurement indices (fold of perm[p] is p % folds).
std::vector<std::size_t> kfold_permutation(std::size_t count, std::uint64_t seed);

}  // namespace cellsync

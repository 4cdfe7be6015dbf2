// Selection of the smoothness weight lambda (paper Eq 5: "selected via
// cross validation", citing Craven & Wahba 1978).
//
// Two selectors are provided:
//  * k-fold cross-validation on the full constrained estimator — the
//    default, honest about the constraints (select_lambda_kfold scores
//    the whole grid; best_lambda_kfold finds the same pick with fewer
//    fits);
//  * generalized cross-validation (GCV) on the unconstrained ridge path —
//    the classical Craven-Wahba criterion, cheap enough for dense lambda
//    grids.
#pragma once

#include <cstdint>
#include <functional>
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
/// (leave-one-out at the limit). Throws std::invalid_argument, before any
/// fit, for folds < 2, an empty grid, a negative grid lambda, fewer than 3
/// measurements, a series off the kernel time grid, or constraints other
/// than the design's. e2ebench/replay.cpp compiles against it.
Lambda_selection select_lambda_kfold(const Deconvolver& deconvolver,
                                     const Measurement_series& series,
                                     const Deconvolution_options& base_options,
                                     const Vector& lambda_grid, std::size_t folds = 5,
                                     std::uint64_t seed = 77);

/// The lambda select_lambda_kfold(...).best_lambda returns, with the same
/// validation and errors, without scoring every grid point in full: a
/// point stops at the first fold after which it can no longer win
/// (best_kfold_index). This is the search `deconvolve_one` runs;
/// select_lambda_kfold stays the full-curve reference.
double best_lambda_kfold(const Deconvolver& deconvolver, const Measurement_series& series,
                         const Deconvolution_options& base_options, const Vector& lambda_grid,
                         std::size_t folds = 5, std::uint64_t seed = 77);

/// Returns `running` plus grid point `point`'s held-out error on fold
/// `fold`, a non-negative amount; throws std::runtime_error when that
/// fold's fit fails.
using Kfold_fold_scorer =
    std::function<double(std::size_t point, std::size_t fold, double running)>;

/// best_lambda_kfold's selection rule. A point's full score is its running
/// sum over folds 0..folds-1 divided by `measurements` (+inf when a fold
/// throws std::runtime_error), and the result is the index std::min_element
/// picks among the full scores: the lowest score wins, ties go to the
/// lower index, and NaN never wins except at index 0, which is returned at
/// once. Point 0 is scored first and in full, then the others outward from
/// index points / 2, below before above. Each point's folds run in order,
/// and a point is dropped after the first fold at which running /
/// measurements exceeds the best full score so far: the remaining folds
/// could only raise it. Throws std::invalid_argument for points == 0.
std::size_t best_kfold_index(std::size_t points, std::size_t folds, std::size_t measurements,
                             const Kfold_fold_scorer& add_fold);

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

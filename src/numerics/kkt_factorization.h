// Cached factorization of the parametric normal-equation matrix
//
//     M(lambda, ridge) = H0 + lambda*H1 + ridge*I
//
// that underlies the unconstrained deconvolution estimator: H0 is the
// (weighted) data Gram matrix and H1 the roughness penalty. The blocks
// are fixed per design while lambda sweeps (CV grids, GCV paths), so
// re-deriving them per solve is pure waste. This object keeps them,
// factors on demand, and keeps the factorization until (lambda, ridge)
// actually changes — a refactorization touches only the cached assembly
// buffer, never the callers' matrices.
#pragma once

#include <optional>

#include "numerics/linear_solve.h"
#include "numerics/matrix.h"
#include "numerics/vector_ops.h"

namespace cellsync {

class Kkt_factorization {
  public:
    /// `h_base` (n x n) is required; `h_lambda` may be empty (treated as
    /// zero) and otherwise must match `h_base`. Throws
    /// std::invalid_argument on shape mismatch.
    Kkt_factorization(Matrix h_base, Matrix h_lambda);

    std::size_t unknowns() const { return h_base_.rows(); }

    /// Ensure the factorization matches (lambda, ridge). A no-op when both
    /// are unchanged from the current factorization (the cache hit);
    /// otherwise re-assembles from the cached blocks and refactors.
    /// Uses Cholesky when the Hessian is positive definite, LDLT on the
    /// semi-definite corner. Throws std::invalid_argument for lambda < 0
    /// and std::runtime_error on a singular system.
    void factorize(double lambda, double ridge = 0.0);

    bool is_factorized() const { return chol_.has_value() || ldlt_.has_value(); }
    double lambda() const { return lambda_; }
    double ridge() const { return ridge_; }

    /// Number of actual (non-cached) factorizations performed — lets tests
    /// and diagnostics verify that lambda-sweep reuse really happens.
    std::size_t factorization_count() const { return factorization_count_; }

    /// Minimize 0.5 x' H(lambda) x + g' x at the current factorization;
    /// returns x (length n). Throws std::logic_error if factorize() has
    /// not been called.
    Vector solve(const Vector& gradient) const;

  private:
    Matrix h_base_;
    Matrix h_lambda_;
    Matrix assembled_;  // reused assembly buffer, n x n

    double lambda_ = -1.0;
    double ridge_ = 0.0;
    std::size_t factorization_count_ = 0;
    std::optional<Cholesky_factorization> chol_;  // H positive definite
    std::optional<Ldlt_factorization> ldlt_;      // the semi-definite corner
};

}  // namespace cellsync

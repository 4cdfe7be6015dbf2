// Dense linear solvers: LU with partial pivoting, Cholesky (LLT), LDLT for
// symmetric indefinite KKT systems, Householder QR least squares.
//
// All factorizations are written for the small dense systems that arise in
// the deconvolution pipeline (KKT systems of a few dozen unknowns). Each
// solver validates its input and throws `std::invalid_argument` for shape
// errors and `std::runtime_error` for numerically singular systems.
#pragma once

#include "numerics/matrix.h"
#include "numerics/vector_ops.h"

namespace cellsync {

/// Solve A x = b by LU factorization with partial pivoting.
/// A must be square with A.rows() == b.size(). Throws std::runtime_error if
/// A is singular to working precision.
Vector lu_solve(const Matrix& a, const Vector& b);

/// Solve A X = B column-by-column (B as matrix). Same contracts as lu_solve.
Matrix lu_solve(const Matrix& a, const Matrix& b);

/// Cholesky factorization A = L L^T of a symmetric positive-definite matrix.
/// Returns lower-triangular L. Throws std::runtime_error if A is not
/// positive definite (non-positive pivot encountered).
Matrix cholesky(const Matrix& a);

/// Reusable Cholesky factorization A = L L^T: factor once, solve many
/// right-hand sides. Throws std::runtime_error if A is not positive
/// definite.
class Cholesky_factorization {
  public:
    explicit Cholesky_factorization(const Matrix& a);

    std::size_t size() const { return lower_.rows(); }
    const Matrix& lower() const { return lower_; }

    /// Solve A x = b.
    Vector solve(const Vector& b) const;

    /// Solve L y = b (forward substitution half).
    Vector forward(const Vector& b) const;

    /// Solve L^T x = y (back substitution half).
    Vector backward(const Vector& y) const;

  private:
    Matrix lower_;
};

/// Reusable factorization for symmetric (possibly indefinite) systems —
/// equilibrated LU with partial pivoting under the hood (see ldlt_solve for
/// why equilibration matters on mixed-scale KKT blocks). Factor once, solve
/// many right-hand sides. Throws std::runtime_error on singular input.
class Ldlt_factorization {
  public:
    explicit Ldlt_factorization(const Matrix& a);

    std::size_t size() const { return lu_.rows(); }

    /// Solve A x = b.
    Vector solve(const Vector& b) const;

  private:
    Matrix lu_;                      // packed L (unit lower) and U
    std::vector<std::size_t> piv_;   // row permutation
    Vector scale_;                   // symmetric equilibration diag
};

/// Solve A x = b for symmetric positive-definite A using Cholesky.
Vector cholesky_solve(const Matrix& a, const Vector& b);

/// Solve A x = b for symmetric (possibly indefinite) A using Bunch-Kaufman
/// style LDLT with symmetric diagonal pivoting. Intended for KKT systems.
/// Throws std::runtime_error on singular input.
Vector ldlt_solve(const Matrix& a, const Vector& b);

/// Minimum-norm least-squares solution of min ||A x - b||_2 via Householder
/// QR with column pivoting. Works for any rows >= 1; rank-deficient columns
/// get zero coefficients. Throws on dimension mismatch.
Vector qr_least_squares(const Matrix& a, const Vector& b);

}  // namespace cellsync

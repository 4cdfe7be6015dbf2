// Dense convex quadratic programming for the deconvolution estimator.
//
// The estimator (paper Eq 5 plus the positivity, RNA-conservation, and
// transcription-rate-continuity constraints) is the quadratic program
//
//     minimize    0.5 x' H x + g' x
//     subject to  A_eq x  = b_eq
//                 C_in x >= d_in
//
// with H symmetric positive (semi-)definite. Problem sizes are tiny
// (tens of unknowns, tens of constraints). Production solves go through
// one path: the Goldfarb-Idnani dual iteration on the reduced problem
// (solve_qp_dual_reduced), reached through a shared constraint
// preparation (solve_qp_dual_prepared) or, for a stream that maintains
// its reduced blocks incrementally, called directly. The primal
// active-set solve_qp is the independent reference the tests compare
// that path against. Solver tolerances are fixed constants.
#pragma once

#include "numerics/matrix.h"
#include "numerics/vector_ops.h"

namespace cellsync {

/// Specification of a convex QP. Empty equality/inequality blocks are
/// allowed (pass 0-row matrices and empty vectors).
struct Qp_problem {
    Matrix hessian;       ///< H, n x n, symmetric PSD
    Vector gradient;      ///< g, length n
    Matrix eq_matrix;     ///< A_eq, m_e x n (may be 0 x n)
    Vector eq_rhs;        ///< b_eq, length m_e
    Matrix ineq_matrix;   ///< C_in, m_i x n (may be 0 x n)
    Vector ineq_rhs;      ///< d_in, length m_i
};

/// Result of a QP solve.
struct Qp_result {
    Vector x;                       ///< optimizer
    double objective = 0.0;         ///< 0.5 x'Hx + g'x at the optimizer
    std::size_t iterations = 0;     ///< active-set iterations used
    std::vector<std::size_t> active_set;  ///< indices of binding inequalities
    bool converged = false;
};

/// Solve the QP by the primal active-set method: the reference
/// implementation the dual path is tested against. The iteration starts
/// from the zero vector or, failing that, the least-squares solution of
/// the equality system. Throws std::invalid_argument for malformed shapes
/// and std::runtime_error if neither start is feasible or the iteration
/// limit is exceeded (it can cycle on dense, near-degenerate positivity
/// grids, which is why production solves use the dual method).
Qp_result solve_qp(const Qp_problem& problem);

/// Objective blocks of the reduced problem over y, where x = x0 + Z y.
struct Reduced_objective {
    Matrix hessian;   ///< Z'HZ, nz x nz
    Vector gradient;  ///< Z'(H x0 + g), length nz
};

/// Precomputed constraint geometry of a QP family.
///
/// Deconvolution solves thousands of QPs that share one constraint set
/// (A_eq, b_eq, C_in, d_in) while the Hessian and gradient vary — across
/// genes, CV folds, bootstrap replicates, and lambda grid points. The
/// equality null-space reduction (particular solution + orthonormal basis
/// Z of null(A_eq)) and the reduction C Z of every inequality row depend
/// only on the constraints, so this object computes them exactly once and
/// is shared immutably across all those solves (and across threads).
class Qp_constraint_prep {
  public:
    /// `n` is the unknown count (blocks may have zero rows). Throws
    /// std::invalid_argument on shape mismatch and std::runtime_error if
    /// the equality system is inconsistent.
    Qp_constraint_prep(std::size_t n, const Matrix& eq_matrix, const Vector& eq_rhs,
                       const Matrix& ineq_matrix, const Vector& ineq_rhs);

    std::size_t unknowns() const { return n_; }
    std::size_t reduced_dim() const { return z_basis_.cols(); }
    /// True when the equalities pin x completely (empty null space).
    bool fully_determined() const { return z_basis_.cols() == 0; }

    const Matrix& z_basis() const { return z_basis_; }              ///< n x nz
    const Vector& x_particular() const { return x_particular_; }    ///< length n
    const Matrix& reduced_inequality() const { return reduced_ineq_; }  ///< C Z
    const Vector& reduced_ineq_rhs() const { return reduced_rhs_; }     ///< d - C x0

    /// Project a full-space objective (H n x n, g length n) onto the
    /// equality null space. Throws std::invalid_argument on shape mismatch.
    Reduced_objective reduce_objective(const Matrix& hessian, const Vector& gradient) const;

  private:
    std::size_t n_ = 0;
    Matrix z_basis_;
    Vector x_particular_;
    Matrix reduced_ineq_;
    Vector reduced_rhs_;
};

/// Goldfarb-Idnani dual iteration on a reduced, inequality-only QP:
/// min 0.5 y'H y + g'y  s.t.  C y >= d, with H made strictly convex by a
/// scaled internal ridge. This is the core shared by solve_qp_dual, the
/// prepared solve path and a stream's mid-stream solves. Throws
/// std::invalid_argument on shape mismatch and std::runtime_error on
/// infeasibility, a non-PD Hessian, a non-finite Hessian or gradient, or
/// a non-finite optimum.
Qp_result solve_qp_dual_reduced(const Matrix& hessian, const Vector& gradient,
                                const Matrix& ineq_matrix, const Vector& ineq_rhs);

/// Goldfarb-Idnani solve of the full QP reusing a shared constraint
/// preparation; numerically identical to solve_qp_dual on the same
/// problem, minus the per-solve constraint reduction work.
Qp_result solve_qp_dual_prepared(const Matrix& hessian, const Vector& gradient,
                                 const Qp_constraint_prep& prep);

/// Solve the QP by the Goldfarb-Idnani dual active-set method.
///
/// Requires a strictly convex Hessian (positive definite after the
/// solver's internal ridge). Equality constraints are eliminated through a
/// null-space reduction, then inequalities are added one violated
/// constraint at a time starting from the unconstrained optimum. This
/// method needs no feasible starting point, terminates finitely, and is
/// far more robust than the primal iteration on degenerate constraint
/// sets (e.g. dense positivity grids) — it is what the deconvolution
/// estimator uses. Throws std::invalid_argument on malformed shapes and
/// std::runtime_error on infeasible constraints or a singular Hessian.
Qp_result solve_qp_dual(const Qp_problem& problem);

/// Verify the KKT conditions at x for the given problem; returns the
/// maximum violation (stationarity, primal and dual feasibility,
/// complementary slackness). Used by tests and diagnostics.
double kkt_violation(const Qp_problem& problem, const Qp_result& result);

}  // namespace cellsync

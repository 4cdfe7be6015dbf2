#include "numerics/qp_solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "numerics/rng.h"

namespace cellsync {
namespace {

Qp_problem unconstrained_bowl() {
    // min (x0-1)^2 + (x1-2)^2.
    Qp_problem p;
    p.hessian = Matrix{{2.0, 0.0}, {0.0, 2.0}};
    p.gradient = {-2.0, -4.0};
    p.eq_matrix = Matrix(0, 2);
    p.ineq_matrix = Matrix(0, 2);
    return p;
}

TEST(QpSolver, UnconstrainedMinimum) {
    const Qp_result r = solve_qp(unconstrained_bowl());
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x[0], 1.0, 1e-9);
    EXPECT_NEAR(r.x[1], 2.0, 1e-9);
    EXPECT_NEAR(r.objective, -5.0, 1e-9);  // 0.5 x'Hx + g'x at (1,2)
}

TEST(QpSolver, ActiveInequalityBindsAtOptimum) {
    // Same bowl, but require x1 <= 1, i.e. -x1 >= -1.
    Qp_problem p = unconstrained_bowl();
    p.ineq_matrix = Matrix{{0.0, -1.0}};
    p.ineq_rhs = {-1.0};
    const Qp_result r = solve_qp(p);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x[0], 1.0, 1e-9);
    EXPECT_NEAR(r.x[1], 1.0, 1e-9);
    ASSERT_EQ(r.active_set.size(), 1u);
    EXPECT_EQ(r.active_set[0], 0u);
    EXPECT_LT(kkt_violation(p, r), 1e-7);
}

TEST(QpSolver, InactiveInequalityIgnored) {
    Qp_problem p = unconstrained_bowl();
    p.ineq_matrix = Matrix{{0.0, -1.0}};
    p.ineq_rhs = {-100.0};  // x1 <= 100: never binds
    const Qp_result r = solve_qp(p);
    EXPECT_NEAR(r.x[1], 2.0, 1e-9);
    EXPECT_TRUE(r.active_set.empty());
}

TEST(QpSolver, EqualityConstraintRespected) {
    // min (x0-1)^2 + (x1-2)^2 s.t. x0 + x1 = 1 -> x = (0, 1).
    Qp_problem p = unconstrained_bowl();
    p.eq_matrix = Matrix{{1.0, 1.0}};
    p.eq_rhs = {1.0};
    const Qp_result r = solve_qp(p);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x[0], 0.0, 1e-9);
    EXPECT_NEAR(r.x[1], 1.0, 1e-9);
    EXPECT_LT(kkt_violation(p, r), 1e-8);
}

TEST(QpSolver, EqualityPlusInequality) {
    // min (x0-1)^2 + (x1-2)^2 s.t. x0 + x1 = 1, x0 >= 0.3 -> x = (0.3, 0.7).
    // 0 is infeasible, so the iteration starts from the least-squares
    // solution of the equality system.
    Qp_problem p = unconstrained_bowl();
    p.eq_matrix = Matrix{{1.0, 1.0}};
    p.eq_rhs = {1.0};
    p.ineq_matrix = Matrix{{1.0, 0.0}};
    p.ineq_rhs = {0.3};
    const Qp_result r = solve_qp(p);
    EXPECT_NEAR(r.x[0], 0.3, 1e-9);
    EXPECT_NEAR(r.x[1], 0.7, 1e-9);
    EXPECT_LT(kkt_violation(p, r), 1e-8);
}

TEST(QpSolver, NonNegativityBox) {
    // min (x0+1)^2 + (x1-1)^2 s.t. x >= 0 -> x = (0, 1).
    Qp_problem p;
    p.hessian = Matrix{{2.0, 0.0}, {0.0, 2.0}};
    p.gradient = {2.0, -2.0};
    p.eq_matrix = Matrix(0, 2);
    p.ineq_matrix = Matrix::identity(2);
    p.ineq_rhs = {0.0, 0.0};
    const Qp_result r = solve_qp(p);
    EXPECT_NEAR(r.x[0], 0.0, 1e-9);
    EXPECT_NEAR(r.x[1], 1.0, 1e-9);
}

TEST(QpSolver, NoFeasibleStartThrows) {
    // x0 + x1 = 1, x0 >= 0.7, x1 >= 0.2: feasible (x0 in [0.7, 0.8]), but
    // neither 0 nor the least-squares equality solution is.
    Qp_problem p = unconstrained_bowl();
    p.eq_matrix = Matrix{{1.0, 1.0}};
    p.eq_rhs = {1.0};
    p.ineq_matrix = Matrix::identity(2);
    p.ineq_rhs = {0.7, 0.2};
    EXPECT_THROW(solve_qp(p), std::runtime_error);
}

TEST(QpSolver, ShapeValidation) {
    Qp_problem p = unconstrained_bowl();
    p.gradient = {1.0};
    EXPECT_THROW(solve_qp(p), std::invalid_argument);
    p = unconstrained_bowl();
    p.eq_matrix = Matrix{{1.0, 1.0}};
    p.eq_rhs = {};
    EXPECT_THROW(solve_qp(p), std::invalid_argument);
    p = unconstrained_bowl();
    p.hessian = Matrix(2, 3);
    EXPECT_THROW(solve_qp(p), std::invalid_argument);
}

TEST(QpSolver, DegeneratePositivityGridHandled) {
    // Many redundant copies of the same constraint x0 >= 0 must not break
    // the working-set logic.
    Qp_problem p;
    p.hessian = Matrix{{2.0, 0.0}, {0.0, 2.0}};
    p.gradient = {2.0, -2.0};
    p.eq_matrix = Matrix(0, 2);
    p.ineq_matrix = Matrix(6, 2);
    for (std::size_t r = 0; r < 6; ++r) p.ineq_matrix(r, 0) = 1.0;
    p.ineq_rhs.assign(6, 0.0);
    const Qp_result result = solve_qp(p);
    EXPECT_NEAR(result.x[0], 0.0, 1e-9);
    EXPECT_NEAR(result.x[1], 1.0, 1e-9);
}

TEST(QpDualSolver, MatchesPrimalOnBasicProblems) {
    // Same optimum from both methods on a mix of constraint structures.
    {
        const Qp_result r = solve_qp_dual(unconstrained_bowl());
        EXPECT_NEAR(r.x[0], 1.0, 1e-8);
        EXPECT_NEAR(r.x[1], 2.0, 1e-8);
    }
    {
        Qp_problem p = unconstrained_bowl();
        p.ineq_matrix = Matrix{{0.0, -1.0}};
        p.ineq_rhs = {-1.0};
        const Qp_result r = solve_qp_dual(p);
        EXPECT_NEAR(r.x[1], 1.0, 1e-8);
        EXPECT_LT(kkt_violation(p, r), 1e-6);
    }
    {
        Qp_problem p;
        p.hessian = Matrix{{2.0, 0.0}, {0.0, 2.0}};
        p.gradient = {2.0, -2.0};
        p.eq_matrix = Matrix(0, 2);
        p.ineq_matrix = Matrix::identity(2);
        p.ineq_rhs = {0.0, 0.0};
        const Qp_result r = solve_qp_dual(p);
        EXPECT_NEAR(r.x[0], 0.0, 1e-8);
        EXPECT_NEAR(r.x[1], 1.0, 1e-8);
    }
}

TEST(QpDualSolver, EqualityConstraintsViaNullSpace) {
    // min (x0-1)^2 + (x1-2)^2 s.t. x0 + x1 = 1 -> (0, 1).
    Qp_problem p = unconstrained_bowl();
    p.eq_matrix = Matrix{{1.0, 1.0}};
    p.eq_rhs = {1.0};
    const Qp_result r = solve_qp_dual(p);
    EXPECT_NEAR(r.x[0], 0.0, 1e-8);
    EXPECT_NEAR(r.x[1], 1.0, 1e-8);
    // With an inequality on top: x0 >= 0.7 -> (0.7, 0.3).
    p.hessian = Matrix{{2.0, 0.0}, {0.0, 2.0}};
    p.gradient = {0.0, 0.0};
    p.ineq_matrix = Matrix{{1.0, 0.0}};
    p.ineq_rhs = {0.7};
    const Qp_result rc = solve_qp_dual(p);
    EXPECT_NEAR(rc.x[0], 0.7, 1e-8);
    EXPECT_NEAR(rc.x[1], 0.3, 1e-8);
}

TEST(QpDualSolver, FullyDeterminedByEqualities) {
    Qp_problem p = unconstrained_bowl();
    p.eq_matrix = Matrix{{1.0, 0.0}, {0.0, 1.0}};
    p.eq_rhs = {5.0, 6.0};
    const Qp_result r = solve_qp_dual(p);
    EXPECT_NEAR(r.x[0], 5.0, 1e-8);
    EXPECT_NEAR(r.x[1], 6.0, 1e-8);
}

TEST(QpDualSolver, InconsistentEqualitiesThrow) {
    Qp_problem p = unconstrained_bowl();
    p.eq_matrix = Matrix{{1.0, 1.0}, {1.0, 1.0}};
    p.eq_rhs = {1.0, 2.0};
    EXPECT_THROW(solve_qp_dual(p), std::runtime_error);
}

TEST(QpDualSolver, InfeasibleInequalitiesThrow) {
    Qp_problem p = unconstrained_bowl();
    p.ineq_matrix = Matrix{{1.0, 0.0}, {-1.0, 0.0}};
    p.ineq_rhs = {1.0, 0.0};  // x0 >= 1 and x0 <= 0
    EXPECT_THROW(solve_qp_dual(p), std::runtime_error);
}

TEST(QpDualSolver, RedundantConstraintGridHandled) {
    // Many duplicated/near-parallel rows — the degenerate case that
    // motivates using the dual method in the deconvolver.
    Qp_problem p;
    p.hessian = Matrix{{2.0, 0.0}, {0.0, 2.0}};
    p.gradient = {2.0, -2.0};
    p.eq_matrix = Matrix(0, 2);
    p.ineq_matrix = Matrix(40, 2);
    for (std::size_t r = 0; r < 40; ++r) {
        p.ineq_matrix(r, 0) = 1.0;
        p.ineq_matrix(r, 1) = 1e-6 * static_cast<double>(r);  // nearly parallel
    }
    p.ineq_rhs.assign(40, 0.0);
    const Qp_result r = solve_qp_dual(p);
    EXPECT_NEAR(r.x[0], 0.0, 1e-6);
    EXPECT_NEAR(r.x[1], 1.0, 1e-6);
}

TEST(QpDualSolver, ReducedSolveThroughPrepMatchesPrepared) {
    // Full-space problem with an equality, solved on prep's reduced
    // objective (the streaming estimator's mid-stream path): mapped back,
    // it must equal the prepared path bit for bit.
    const Matrix hessian{{2.0, 0.0}, {0.0, 2.0}};
    const Vector gradient{0.0, 0.0};
    const Matrix eq{{1.0, 1.0}};
    const Vector eq_rhs{1.0};
    const Matrix ineq{{1.0, 0.0}};
    const Vector ineq_rhs{0.7};  // x0 >= 0.7 binds: optimum (0.7, 0.3)
    const Qp_constraint_prep prep(2, eq, eq_rhs, ineq, ineq_rhs);
    const Qp_result prepared = solve_qp_dual_prepared(hessian, gradient, prep);
    ASSERT_EQ(prepared.active_set.size(), 1u);

    const Reduced_objective reduced = prep.reduce_objective(hessian, gradient);
    const Qp_result direct = solve_qp_dual_reduced(reduced.hessian, reduced.gradient,
                                                   prep.reduced_inequality(),
                                                   prep.reduced_ineq_rhs());
    const Vector x = prep.z_basis() * direct.x + prep.x_particular();
    ASSERT_EQ(x.size(), prepared.x.size());
    EXPECT_EQ(x[0], prepared.x[0]);
    EXPECT_EQ(x[1], prepared.x[1]);
    EXPECT_NEAR(x[0], 0.7, 1e-6);
    EXPECT_EQ(direct.active_set, prepared.active_set);
    EXPECT_THROW(prep.reduce_objective(Matrix(3, 3), Vector(3, 0.0)), std::invalid_argument);
}

TEST(QpDualSolver, NonFiniteGradientRejected) {
    // NaN fails every comparison the iterations make, so unchecked it
    // would come back as a "converged" NaN optimum.
    const Matrix hessian{{2.0, 0.0}, {0.0, 2.0}};
    const Matrix ineq = Matrix::identity(2);
    const Vector rhs{0.0, 0.0};
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
        const Vector gradient{bad, -4.0};
        EXPECT_THROW(solve_qp_dual_reduced(hessian, gradient, ineq, rhs), std::runtime_error)
            << bad;
        Qp_problem p = unconstrained_bowl();
        p.gradient = gradient;
        EXPECT_THROW(solve_qp_dual(p), std::runtime_error) << bad;
    }
}

TEST(QpDualSolver, OverflowingOptimumNeverReturned) {
    // Finite inputs whose optimum overflows inside the solve (H ~ ridge,
    // g ~ 1e300): the solve throws instead of returning it.
    const Matrix hessian{{1e-300, 0.0}, {0.0, 1e-300}};
    const Vector gradient{-1e300, -1e300};
    const Matrix ineq = Matrix::identity(2);
    const Vector rhs{0.0, 0.0};
    EXPECT_THROW(solve_qp_dual_reduced(hessian, gradient, ineq, rhs), std::runtime_error);
    // A finite optimum x = (1e160, 1e160) whose objective overflows
    // (0.5 x'x + g'x = inf - inf): not returned as "converged" either.
    EXPECT_THROW(solve_qp_dual_reduced(Matrix::identity(2), Vector{-1e160, -1e160}, ineq, rhs),
                 std::runtime_error);
}

TEST(QpDualSolver, PreparedSolveMatchesColdDualSolve) {
    // The shared-constraint preparation must not change results at all.
    const std::size_t n = 10;
    Rng problem_rng(17);
    Matrix a(n + 3, n);
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < n; ++j) a(i, j) = problem_rng.normal();
    Qp_problem p;
    p.hessian = gram(a);
    for (std::size_t i = 0; i < n; ++i) p.hessian(i, i) += 0.5;
    p.eq_matrix = Matrix(2, n);
    for (std::size_t j = 0; j < n; ++j) {
        p.eq_matrix(0, j) = 1.0;
        p.eq_matrix(1, j) = static_cast<double>(j) / static_cast<double>(n);
    }
    p.eq_rhs = {1.0, 0.3};
    p.ineq_matrix = Matrix::identity(n);
    p.ineq_rhs.assign(n, 0.0);

    const Qp_constraint_prep prep(n, p.eq_matrix, p.eq_rhs, p.ineq_matrix, p.ineq_rhs);
    Rng rng(21);
    for (int trial = 0; trial < 4; ++trial) {
        p.gradient = rng.normal_vector(n);
        const Qp_result cold = solve_qp_dual(p);
        const Qp_result warm = solve_qp_dual_prepared(p.hessian, p.gradient, prep);
        ASSERT_EQ(cold.x.size(), warm.x.size());
        for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(cold.x[i], warm.x[i]);
        EXPECT_EQ(cold.active_set, warm.active_set);
    }
}

// Property suite: random strictly convex problems with random box
// constraints, or with dense random rows, must satisfy the KKT conditions
// at the reported optimum.
class QpRandomProblems : public ::testing::TestWithParam<std::uint64_t> {};

/// Dense random inequality rows, more rows than unknowns, with the
/// right-hand side taken from the strictly feasible point x = 0 (each row
/// has slack 0.1..1.1 there, and the primal reference starts from it). The
/// unconstrained optimum violates many rows, so drops and nearly dependent
/// rows, rare on x >= 0 boxes, come up.
Qp_problem dense_rows_problem(std::uint64_t seed) {
    Rng rng(seed);
    const std::size_t n = 3 + rng.index(6);
    const std::size_t m = 2 * n + rng.index(2 * n);
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    Qp_problem p;
    p.hessian = gram(a);
    for (std::size_t i = 0; i < n; ++i) p.hessian(i, i) += static_cast<double>(n);
    p.gradient = scaled(rng.normal_vector(n), 3.0 * static_cast<double>(n));
    p.eq_matrix = Matrix(0, n);
    p.ineq_matrix = Matrix(m, n);
    p.ineq_rhs.assign(m, 0.0);
    for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t j = 0; j < n; ++j) p.ineq_matrix(r, j) = rng.normal();
        p.ineq_rhs[r] = -(0.1 + rng.uniform());
    }
    return p;
}

TEST_P(QpRandomProblems, KktHoldsAtReportedOptimum) {
    Rng rng(GetParam());
    const std::size_t n = 3 + rng.index(6);

    // SPD Hessian H = A'A + n I.
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    Matrix h = gram(a);
    for (std::size_t i = 0; i < n; ++i) h(i, i) += static_cast<double>(n);

    Qp_problem p;
    p.hessian = h;
    p.gradient = rng.normal_vector(n);
    p.eq_matrix = Matrix(0, n);
    p.ineq_matrix = Matrix::identity(n);  // x >= 0
    p.ineq_rhs.assign(n, 0.0);

    const Qp_result r = solve_qp(p);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(kkt_violation(p, r), 1e-6);
    for (double xi : r.x) EXPECT_GE(xi, -1e-9);

    // The dual method must land on the same optimum.
    const Qp_result rd = solve_qp_dual(p);
    EXPECT_LT(kkt_violation(p, rd), 1e-6);
    EXPECT_NEAR(rd.objective, r.objective, 1e-6 * std::max(1.0, std::abs(r.objective)));
}

TEST_P(QpRandomProblems, DenseRowsKktHoldsAtReportedOptimum) {
    const Qp_problem p = dense_rows_problem(GetParam());
    const Qp_result r = solve_qp(p);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(kkt_violation(p, r), 1e-6);

    const Qp_result rd = solve_qp_dual(p);
    EXPECT_LT(kkt_violation(p, rd), 1e-6);
    EXPECT_NEAR(rd.objective, r.objective, 1e-6 * std::max(1.0, std::abs(r.objective)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QpRandomProblems,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

TEST(QpDualSolver, DenseRowsDropActiveRows) {
    // Each dual iteration adds or drops one row, so iterations = adds +
    // drops and active rows = adds - drops: a solve with more iterations
    // than active rows + 1 dropped a row and re-triangularized its factor
    // (one with no iteration reports 1 and no active row). Some of the
    // QpRandomProblems dense-row solves must.
    std::size_t dropping = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const Qp_result r = solve_qp_dual(dense_rows_problem(seed));
        if (r.iterations > r.active_set.size() + 1) ++dropping;
    }
    EXPECT_GT(dropping, 0u);
}

}  // namespace
}  // namespace cellsync

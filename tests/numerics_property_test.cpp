// Cross-solver consistency sweeps: the three linear solvers, the two QP
// methods, and the quadrature rules must agree with each other across
// random problem sizes — catching bugs that single-solver unit tests with
// hand-picked numbers cannot.
#include <gtest/gtest.h>

#include <cmath>

#include "numerics/linear_solve.h"
#include "numerics/qp_solver.h"
#include "numerics/quadrature.h"
#include "numerics/rng.h"

namespace cellsync {
namespace {

class SolverConsistency : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SolverConsistency, LuQrCholeskyAgreeOnSpdSystems) {
    const std::size_t n = GetParam();
    Rng rng(1000 + n);
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    Matrix spd = gram(a);
    for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
    const Vector b = rng.normal_vector(n);

    const Vector x_lu = lu_solve(spd, b);
    const Vector x_chol = cholesky_solve(spd, b);
    const Vector x_qr = qr_least_squares(spd, b);
    const Vector x_ldlt = ldlt_solve(spd, b);
    EXPECT_LT(norm_inf(x_lu - x_chol), 1e-8);
    EXPECT_LT(norm_inf(x_lu - x_qr), 1e-7);
    EXPECT_LT(norm_inf(x_lu - x_ldlt), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolverConsistency,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 34));

class QpMethodAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QpMethodAgreement, PrimalAndDualReachTheSameOptimum) {
    Rng rng(GetParam());
    const std::size_t n = 4 + rng.index(6);
    Matrix a(n + 2, n);
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    Qp_problem p;
    p.hessian = gram(a);
    for (std::size_t i = 0; i < n; ++i) p.hessian(i, i) += 2.0;
    p.gradient = rng.normal_vector(n);
    // One homogeneous equality row plus non-negativity.
    p.eq_matrix = Matrix(1, n, 1.0);
    p.eq_rhs = {0.0};
    p.ineq_matrix = Matrix::identity(n);
    p.ineq_rhs.assign(n, 0.0);

    const Qp_result primal = solve_qp(p);
    const Qp_result dual = solve_qp_dual(p);
    EXPECT_NEAR(primal.objective, dual.objective,
                1e-6 * std::max(1.0, std::abs(primal.objective)));
    EXPECT_LT(kkt_violation(p, primal), 1e-6);
    EXPECT_LT(kkt_violation(p, dual), 1e-6);
    EXPECT_LT(norm_inf(primal.x - dual.x), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QpMethodAgreement,
                         ::testing::Values(31, 32, 33, 34, 35, 36, 37, 38, 39, 40));

class QuadratureAgreement : public ::testing::TestWithParam<int> {};

TEST_P(QuadratureAgreement, GaussAndSimpsonAgreeOnSmoothIntegrands) {
    const int k = GetParam();
    const auto f = [k](double x) { return std::exp(-k * x) * std::cos(k * x); };
    const double gauss = integrate_gauss(f, 0.0, 1.0, 48);
    const double simpson_value = integrate_simpson(f, 0.0, 1.0, 512);
    EXPECT_NEAR(gauss, simpson_value, 1e-10 * std::max(1.0, std::abs(gauss)));
}

INSTANTIATE_TEST_SUITE_P(Frequencies, QuadratureAgreement, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace cellsync

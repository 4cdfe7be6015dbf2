#include "numerics/linear_solve.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "numerics/rng.h"

namespace cellsync {
namespace {

Matrix random_matrix(std::size_t n, Rng& rng) {
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    return a;
}

Matrix random_spd(std::size_t n, Rng& rng) {
    const Matrix a = random_matrix(n, rng);
    Matrix spd = gram(a);
    for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
    return spd;
}

TEST(LuSolve, SolvesKnownSystem) {
    const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
    const Vector x = lu_solve(a, Vector{3.0, 5.0});
    EXPECT_NEAR(x[0], 0.8, 1e-12);
    EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(LuSolve, ResidualSmallOnRandomSystems) {
    Rng rng(1);
    for (std::size_t n : {2u, 5u, 10u, 30u}) {
        const Matrix a = random_matrix(n, rng);
        const Vector b = rng.normal_vector(n);
        const Vector x = lu_solve(a, b);
        EXPECT_LT(norm_inf(a * x - b), 1e-9) << "n=" << n;
    }
}

TEST(LuSolve, PivotingHandlesZeroDiagonal) {
    const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
    const Vector x = lu_solve(a, Vector{2.0, 3.0});
    EXPECT_DOUBLE_EQ(x[0], 3.0);
    EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(LuSolve, SingularMatrixThrows) {
    const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
    EXPECT_THROW(lu_solve(a, Vector{1.0, 2.0}), std::runtime_error);
}

TEST(LuSolve, ShapeErrorsThrow) {
    EXPECT_THROW(lu_solve(Matrix(2, 3), Vector{1.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(lu_solve(Matrix::identity(2), Vector{1.0}), std::invalid_argument);
}

TEST(LuSolve, MatrixRhsSolvesColumnwise) {
    const Matrix a{{2.0, 0.0}, {0.0, 4.0}};
    const Matrix x = lu_solve(a, Matrix::identity(2));
    EXPECT_NEAR(x(0, 0), 0.5, 1e-14);
    EXPECT_NEAR(x(1, 1), 0.25, 1e-14);
}

TEST(Cholesky, FactorReconstructsMatrix) {
    Rng rng(3);
    const Matrix a = random_spd(6, rng);
    const Matrix l = cholesky(a);
    const Matrix rec = l * l.transposed();
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 6; ++j) EXPECT_NEAR(rec(i, j), a(i, j), 1e-9);
}

TEST(Cholesky, RejectsIndefinite) {
    EXPECT_THROW(cholesky(Matrix{{1.0, 2.0}, {2.0, 1.0}}), std::runtime_error);
    EXPECT_THROW(cholesky(Matrix{{-1.0}}), std::runtime_error);
}

TEST(CholeskySolve, MatchesLu) {
    Rng rng(4);
    const Matrix a = random_spd(8, rng);
    const Vector b = rng.normal_vector(8);
    const Vector x1 = cholesky_solve(a, b);
    const Vector x2 = lu_solve(a, b);
    EXPECT_LT(norm_inf(x1 - x2), 1e-9);
}

TEST(LdltSolve, HandlesIndefiniteKktSystem) {
    // [I A'; A 0] with A = [1 1] — a classic saddle-point system.
    const Matrix kkt{{1.0, 0.0, 1.0}, {0.0, 1.0, 1.0}, {1.0, 1.0, 0.0}};
    const Vector sol = ldlt_solve(kkt, {1.0, 2.0, 1.0});
    EXPECT_LT(norm_inf(kkt * sol - Vector{1.0, 2.0, 1.0}), 1e-12);
}

TEST(QrLeastSquares, ExactSolveWhenSquare) {
    const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
    const Vector x = qr_least_squares(a, {3.0, 5.0});
    EXPECT_NEAR(x[0], 0.8, 1e-12);
    EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(QrLeastSquares, OverdeterminedMatchesNormalEquations) {
    Rng rng(5);
    const std::size_t m = 20, n = 5;
    Matrix a(m, n);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    const Vector b = rng.normal_vector(m);
    const Vector x = qr_least_squares(a, b);
    // Normal-equation solution for comparison.
    const Vector xn = cholesky_solve(gram(a), transposed_times(a, b));
    EXPECT_LT(norm_inf(x - xn), 1e-8);
}

TEST(QrLeastSquares, RankDeficientGivesZeroForDeadColumns) {
    // Second column is identically zero: coefficient must be 0.
    Matrix a(4, 2);
    a.set_col(0, {1.0, 2.0, 3.0, 4.0});
    const Vector x = qr_least_squares(a, {2.0, 4.0, 6.0, 8.0});
    EXPECT_NEAR(x[0], 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(x[1], 0.0);
}

TEST(QrLeastSquares, ResidualOrthogonalToColumns) {
    Rng rng(6);
    Matrix a(10, 3);
    for (std::size_t i = 0; i < 10; ++i)
        for (std::size_t j = 0; j < 3; ++j) a(i, j) = rng.normal();
    const Vector b = rng.normal_vector(10);
    const Vector r = b - a * qr_least_squares(a, b);
    EXPECT_LT(norm_inf(transposed_times(a, r)), 1e-10);
}

}  // namespace
}  // namespace cellsync

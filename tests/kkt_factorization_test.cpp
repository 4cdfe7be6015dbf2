#include "numerics/kkt_factorization.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "numerics/linear_solve.h"
#include "numerics/rng.h"

namespace cellsync {
namespace {

Matrix random_spd(std::size_t n, std::uint64_t seed, double diag = 1.0) {
    Rng rng(seed);
    Matrix a(n + 2, n);
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    Matrix h = gram(a);
    for (std::size_t i = 0; i < n; ++i) h(i, i) += diag;
    return h;
}

// Assemble the matrix the slow way and solve cold — the reference every
// cached/refactorized solve must reproduce.
Vector cold_solve(const Matrix& h0, const Matrix& h1, double lambda, double ridge,
                  const Vector& gradient) {
    const std::size_t n = h0.rows();
    Matrix h(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            h(i, j) = h0(i, j) + (h1.empty() ? 0.0 : lambda * h1(i, j));
        }
        h(i, i) += ridge;
    }
    return cholesky_solve(h, scaled(gradient, -1.0));
}

TEST(KktFactorization, UnconstrainedSolveMatchesCholesky) {
    const std::size_t n = 8;
    const Matrix h = random_spd(n, 5);
    Kkt_factorization kkt(h, Matrix());
    kkt.factorize(0.0);
    Rng rng(9);
    const Vector g = rng.normal_vector(n);
    const Vector x = kkt.solve(g);
    // H x = -g.
    const Vector reference = cholesky_solve(h, scaled(g, -1.0));
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], reference[i], 1e-9);
}

TEST(KktFactorization, RefactorizedSolveEqualsColdSolve) {
    const std::size_t n = 7;
    const Matrix h0 = random_spd(n, 11);
    const Matrix h1 = random_spd(n, 13, 0.1);

    Kkt_factorization kkt(h0, h1);
    Rng rng(17);
    const Vector g = rng.normal_vector(n);

    // Sweep lambda up and down: every refactorized solve must match a cold
    // assemble-and-factor from scratch.
    for (double lambda : {1e-4, 1e-2, 1.0, 1e-2, 1e-4}) {
        kkt.factorize(lambda, 1e-9);
        const Vector warm = kkt.solve(g);
        const Vector cold = cold_solve(h0, h1, lambda, 1e-9, g);
        ASSERT_EQ(warm.size(), cold.size());
        for (std::size_t i = 0; i < warm.size(); ++i) {
            EXPECT_DOUBLE_EQ(warm[i], cold[i]) << "lambda " << lambda;
        }
    }
}

TEST(KktFactorization, SameLambdaReusesFactorization) {
    const std::size_t n = 6;
    Kkt_factorization kkt(random_spd(n, 3), random_spd(n, 4, 0.1));
    kkt.factorize(1e-3);
    EXPECT_EQ(kkt.factorization_count(), 1u);
    kkt.factorize(1e-3);  // cache hit
    kkt.factorize(1e-3);
    EXPECT_EQ(kkt.factorization_count(), 1u);
    kkt.factorize(1e-2);  // lambda changed: refactor
    EXPECT_EQ(kkt.factorization_count(), 2u);
    kkt.factorize(1e-2, 1e-6);  // ridge changed: refactor
    EXPECT_EQ(kkt.factorization_count(), 3u);
}

TEST(KktFactorization, CholeskyFailureFallsBackToLdlt) {
    // Not positive definite (eigenvalues 3 and -1), so Cholesky rejects it
    // and the pivoted solver must take over.
    Matrix h(2, 2);
    h(0, 0) = 1.0;
    h(0, 1) = 2.0;
    h(1, 0) = 2.0;
    h(1, 1) = 1.0;
    Kkt_factorization kkt(h, Matrix());
    kkt.factorize(0.0);
    const Vector g{1.0, -3.0};
    const Vector x = kkt.solve(g);
    const Vector reference = ldlt_solve(h, scaled(g, -1.0));
    for (std::size_t i = 0; i < 2; ++i) EXPECT_EQ(x[i], reference[i]);
}

TEST(KktFactorization, Validation) {
    EXPECT_THROW(Kkt_factorization(Matrix(3, 2), Matrix()), std::invalid_argument);
    EXPECT_THROW(Kkt_factorization(random_spd(3, 1), random_spd(4, 1)),
                 std::invalid_argument);

    Kkt_factorization kkt(random_spd(3, 2), Matrix());
    EXPECT_THROW(kkt.factorize(-1.0), std::invalid_argument);
    EXPECT_FALSE(kkt.is_factorized());
    EXPECT_THROW(kkt.solve(Vector(3, 0.0)), std::logic_error);
    kkt.factorize(0.0);
    EXPECT_TRUE(kkt.is_factorized());
    EXPECT_THROW(kkt.solve(Vector(2, 0.0)), std::invalid_argument);
}

}  // namespace
}  // namespace cellsync

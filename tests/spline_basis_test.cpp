#include "spline/spline_basis.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/deconvolver.h"
#include "numerics/quadrature.h"
#include "numerics/rng.h"

namespace cellsync {
namespace {

TEST(NaturalSplineBasis, CardinalPropertyAtKnots) {
    const Natural_spline_basis basis(8);
    for (std::size_t i = 0; i < basis.size(); ++i) {
        for (std::size_t j = 0; j < basis.size(); ++j) {
            EXPECT_NEAR(basis.value(i, basis.knots()[j]), i == j ? 1.0 : 0.0, 1e-12);
        }
    }
}

TEST(NaturalSplineBasis, PartitionOfUnityEverywhere) {
    // Cardinal interpolation of the constant function 1 reproduces 1.
    const Natural_spline_basis basis(10);
    for (double x = 0.0; x <= 1.0; x += 0.01) {
        double s = 0.0;
        for (std::size_t i = 0; i < basis.size(); ++i) s += basis.value(i, x);
        EXPECT_NEAR(s, 1.0, 1e-10) << "x=" << x;
    }
}

TEST(NaturalSplineBasis, ReproducesLinearFunctions) {
    // alpha_i = knot_i makes the expansion the identity function.
    const Natural_spline_basis basis(9);
    const Vector alpha = basis.knots();
    for (double x = 0.0; x <= 1.0; x += 0.05) {
        EXPECT_NEAR(basis.expand(alpha, x), x, 1e-10);
        EXPECT_NEAR(basis.expand_derivative(alpha, x), 1.0, 1e-8);
    }
}

TEST(NaturalSplineBasis, MinimumKnotCountEnforced) {
    EXPECT_THROW(Natural_spline_basis(3), std::invalid_argument);
    EXPECT_NO_THROW(Natural_spline_basis(4));
}

TEST(NaturalSplineBasis, MaximumKnotCountEnforced) {
    // Both constructors reject a count above the cap before building.
    const std::size_t too_many = Natural_spline_basis::max_knots + 1;
    try {
        Natural_spline_basis basis(too_many);
        FAIL() << "expected the knot cap to reject " << too_many << " knots";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("at most 512 knots, got 513"), std::string::npos)
            << e.what();
    }
    EXPECT_THROW(Natural_spline_basis(linspace(0.0, 1.0, too_many)), std::invalid_argument);
    EXPECT_NO_THROW(Natural_spline_basis(linspace(0.0, 1.0, Natural_spline_basis::max_knots)));
}

TEST(NaturalSplineBasis, CustomKnotsValidated) {
    EXPECT_NO_THROW(Natural_spline_basis(Vector{0.0, 0.2, 0.3, 0.9, 1.0}));
    EXPECT_THROW(Natural_spline_basis(Vector{0.1, 0.5, 0.8, 1.0}), std::invalid_argument);
    EXPECT_THROW(Natural_spline_basis(Vector{0.0, 0.5, 0.4, 1.0}), std::invalid_argument);
    EXPECT_THROW(Natural_spline_basis(Vector{0.0, 0.5, 0.9, 0.95}), std::invalid_argument);
}

TEST(NaturalSplineBasis, IndexOutOfRangeThrows) {
    const Natural_spline_basis basis(5);
    EXPECT_THROW(basis.value(5, 0.5), std::out_of_range);
    EXPECT_THROW(basis.derivative(5, 0.5), std::out_of_range);
    EXPECT_THROW(basis.second_derivative(9, 0.5), std::out_of_range);
}

TEST(NaturalSplineBasis, PenaltyMatrixMatchesQuadrature) {
    const Natural_spline_basis basis(6);
    const Matrix exact = basis.penalty_matrix();
    // Compare the closed-form penalty with brute-force quadrature.
    for (std::size_t i = 0; i < basis.size(); ++i) {
        for (std::size_t j = i; j < basis.size(); ++j) {
            // Integrate knot interval by knot interval: the integrand is a
            // pure quadratic on each, so Simpson is exact there and the
            // comparison is tight.
            double numeric = 0.0;
            for (std::size_t k = 0; k + 1 < basis.knots().size(); ++k) {
                numeric += integrate_simpson(
                    [&](double x) {
                        return basis.second_derivative(i, x) * basis.second_derivative(j, x);
                    },
                    basis.knots()[k], basis.knots()[k + 1], 4);
            }
            const double tol = 1e-9 * std::max(1.0, std::abs(exact(i, j)));
            EXPECT_NEAR(exact(i, j), numeric, tol) << "i=" << i << " j=" << j;
        }
    }
}

TEST(NaturalSplineBasis, PenaltyIsSymmetricPsd) {
    const Natural_spline_basis basis(12);
    const Matrix omega = basis.penalty_matrix();
    for (std::size_t i = 0; i < omega.rows(); ++i) {
        for (std::size_t j = 0; j < omega.cols(); ++j) {
            EXPECT_NEAR(omega(i, j), omega(j, i), 1e-12);
        }
    }
    // PSD check: x' Omega x >= 0 for a few vectors; zero for linear alpha
    // (natural splines penalize only curvature).
    const Vector linear = basis.knots();
    EXPECT_NEAR(dot(linear, omega * linear), 0.0, 1e-10);
    Vector bump(basis.size(), 0.0);
    bump[basis.size() / 2] = 1.0;
    EXPECT_GT(dot(bump, omega * bump), 0.0);
}

TEST(NaturalSplineBasis, DesignMatrixShapesAndValues) {
    const Natural_spline_basis basis(5);
    const Vector pts = linspace(0.0, 1.0, 11);
    const Matrix b = basis.design_matrix(pts);
    EXPECT_EQ(b.rows(), 11u);
    EXPECT_EQ(b.cols(), 5u);
    EXPECT_NEAR(b(0, 0), 1.0, 1e-12);  // first knot, first cardinal
}

TEST(NaturalSplineBasis, DesignMatrixSamplingMatchesEstimateBitForBit) {
    // run, stream and the experiment runner sample every profile as
    // design_matrix(grid) * alpha; the output bytes rely on that matching
    // Single_cell_estimate::sample (expand) exactly, not just closely.
    Rng rng(2011);
    for (const std::size_t nc : {4u, 7u, 18u, 33u}) {
        const auto basis = std::make_shared<const Natural_spline_basis>(nc);
        for (const std::size_t points : {2u, 5u, 200u, 201u}) {
            const Vector grid = linspace(0.0, 1.0, points);
            const Single_cell_estimate estimate(basis, rng.normal_vector(nc));
            const Vector via_design = basis->design_matrix(grid) * estimate.coefficients();
            const Vector via_sample = estimate.sample(grid);
            ASSERT_EQ(via_design.size(), points);
            ASSERT_EQ(via_sample.size(), points);
            for (std::size_t p = 0; p < points; ++p) {
                EXPECT_EQ(std::memcmp(&via_design[p], &via_sample[p], sizeof(double)), 0)
                    << "Nc=" << nc << " points=" << points << " p=" << p << ": "
                    << via_design[p] << " vs " << via_sample[p];
            }
        }
    }
}

TEST(NaturalSplineBasis, ExpandValidatesCoefficientCount) {
    const Natural_spline_basis basis(5);
    EXPECT_THROW(basis.expand({1.0, 2.0}, 0.5), std::invalid_argument);
    EXPECT_THROW(basis.expand_derivative({1.0}, 0.5), std::invalid_argument);
}

// Property sweep: interpolation error of smooth functions decays fast with
// knot count.
class BasisResolution : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BasisResolution, SineInterpolationError) {
    const std::size_t nc = GetParam();
    const Natural_spline_basis basis(nc);
    Vector alpha(nc);
    for (std::size_t i = 0; i < nc; ++i) alpha[i] = std::sin(2.0 * 3.14159265 * basis.knots()[i]);
    double worst = 0.0;
    for (double x = 0.0; x <= 1.0; x += 0.005) {
        worst = std::max(worst, std::abs(basis.expand(alpha, x) -
                                         std::sin(2.0 * 3.14159265 * x)));
    }
    // Interior error shrinks like h^4; boundary (natural BC) like h^2.
    const double h = 1.0 / static_cast<double>(nc - 1);
    EXPECT_LT(worst, 10.0 * h * h);
}

INSTANTIATE_TEST_SUITE_P(KnotSweep, BasisResolution, ::testing::Values(6, 10, 16, 24, 32));

}  // namespace
}  // namespace cellsync

#include "core/constraints.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>

#include "biology/volume_model.h"
#include "numerics/quadrature.h"
#include "numerics/special.h"
#include "spline/spline_basis.h"

namespace cellsync {
namespace {

TEST(Beta0, MatchesPointEvaluationForNarrowDistribution) {
    // With a very tight transition distribution, beta0 -> beta(mu_sst).
    Cell_cycle_config config;
    config.cv_sst = 0.001;
    EXPECT_NEAR(beta0(config), growth_rate_beta(config.mu_sst), 1e-6);
}

TEST(Beta0, DefaultConfigValueIsReasonable) {
    // beta(0.15) = 0.4/0.85 ~ 0.4706; averaging over the Gaussian inflates
    // it only slightly (convexity of 1/(1-phi)).
    const double b0 = beta0(Cell_cycle_config{});
    EXPECT_GT(b0, 0.470);
    EXPECT_LT(b0, 0.475);
}

TEST(ConservationRow, ConstantProfileSatisfiesConstraint) {
    // f == c: f(1) - 0.4 f(0) - 0.6 <f(phi_sst)> = c (1 - 0.4 - 0.6) = 0.
    const Natural_spline_basis basis(10);
    const Vector row = conservation_row(basis, Cell_cycle_config{});
    const Vector ones(basis.size(), 1.0);
    EXPECT_NEAR(dot(row, ones), 0.0, 1e-9);
}

TEST(ConservationRow, ViolatingProfileDetected) {
    // f(phi) = phi: f(1)=1, f(0)=0, <f(phi_sst)> ~ 0.15
    // -> 1 - 0 - 0.6*0.15 = 0.91 != 0.
    const Natural_spline_basis basis(10);
    const Vector row = conservation_row(basis, Cell_cycle_config{});
    const Vector alpha = basis.knots();  // expansion == identity
    EXPECT_NEAR(dot(row, alpha), 1.0 - 0.6 * 0.15, 1e-3);
}

TEST(RateContinuityRow, LinearProfileResidualMatchesAnalyticForm) {
    // For f = phi: LHS integral(w1 f) = beta0*1 - 0 - <beta(phi) phi>;
    // RHS integral(w2 f') = 0.4 + 0.6 - 1 = 0. Check against direct
    // numerical evaluation through the row.
    Cell_cycle_config config;
    config.cv_sst = 0.001;  // tight: averages collapse to point values
    const Natural_spline_basis basis(12);
    const Vector row = rate_continuity_row(basis, config);
    const Vector alpha = basis.knots();
    const double expected =
        growth_rate_beta(config.mu_sst) * (1.0 - 0.0 - config.mu_sst) - 0.0;
    EXPECT_NEAR(dot(row, alpha), expected, 1e-3);
}

TEST(RateContinuityRow, ConstantProfileViolatesUnlessBalanced) {
    // f == c: LHS = beta0 c - beta0 c - c beta0 = -c beta0; RHS = 0.
    // So the row applied to a constant is -beta0 * c.
    const Natural_spline_basis basis(10);
    const Cell_cycle_config config;
    const Vector row = rate_continuity_row(basis, config);
    const Vector ones(basis.size(), 1.0);
    EXPECT_NEAR(dot(row, ones), -beta0(config), 1e-6);
}

TEST(BuildConstraints, AllBlocksPresentByDefault) {
    const Natural_spline_basis basis(8);
    const Constraint_set set = build_constraints(basis, Cell_cycle_config{});
    EXPECT_EQ(set.equality.rows(), 2u);  // conservation + rate continuity
    EXPECT_EQ(set.equality.cols(), 8u);
    EXPECT_EQ(set.inequality.rows(), 101u);  // default positivity grid
    EXPECT_EQ(set.equality_rhs.size(), 2u);
    EXPECT_EQ(set.inequality_rhs.size(), 101u);
    for (double v : set.equality_rhs) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(BuildConstraints, OptionsDisableBlocks) {
    const Natural_spline_basis basis(8);
    Constraint_options options;
    options.positivity = false;
    options.rate_continuity = false;
    const Constraint_set set = build_constraints(basis, Cell_cycle_config{}, options);
    EXPECT_EQ(set.equality.rows(), 1u);
    EXPECT_EQ(set.inequality.rows(), 0u);

    options = {};
    options.conservation = false;
    options.rate_continuity = false;
    options.positivity = false;
    const Constraint_set none = build_constraints(basis, Cell_cycle_config{}, options);
    EXPECT_EQ(none.equality.rows(), 0u);
    EXPECT_EQ(none.inequality.rows(), 0u);
}

TEST(BuildConstraints, PositivityGridConfigurable) {
    const Natural_spline_basis basis(8);
    Constraint_options options;
    options.positivity_points = 21;
    const Constraint_set set = build_constraints(basis, Cell_cycle_config{}, options);
    EXPECT_EQ(set.inequality.rows(), 21u);
    options.positivity_points = 1;
    EXPECT_THROW(build_constraints(basis, Cell_cycle_config{}, options),
                 std::invalid_argument);
}

TEST(BuildConstraints, PositivityRowsAreBasisValues) {
    const Natural_spline_basis basis(6);
    Constraint_options options;
    options.positivity_points = 11;
    const Constraint_set set = build_constraints(basis, Cell_cycle_config{}, options);
    const Vector grid = linspace(0.0, 1.0, 11);
    for (std::size_t p = 0; p < 11; ++p) {
        for (std::size_t i = 0; i < basis.size(); ++i) {
            EXPECT_NEAR(set.inequality(p, i), basis.value(i, grid[p]), 1e-12);
        }
    }
}

TEST(BuildConstraints, InvalidConfigRejected) {
    const Natural_spline_basis basis(6);
    Cell_cycle_config bad;
    bad.mu_sst = -1.0;
    EXPECT_THROW(build_constraints(basis, bad), std::invalid_argument);
}

// The rows as integrate_gauss computes them, one 64-point rule per
// integral over the clipped window mu +/- 8 sigma, and at the mean when
// sigma = 0. The rows share one rule per call; they must not move a bit.
double reference_against_p(const std::function<double(double)>& g,
                           const Cell_cycle_config& config) {
    const double mu = config.mu_sst;
    const double sigma = config.sigma_sst();
    if (sigma == 0.0) return g(mu);
    return integrate_gauss([&](double phi) { return g(phi) * gaussian_pdf(phi, mu, sigma); },
                           std::max(0.0, mu - 8.0 * sigma), std::min(1.0, mu + 8.0 * sigma),
                           64);
}

double reference_beta0(const Cell_cycle_config& config) {
    return reference_against_p([](double phi) { return growth_rate_beta(phi); }, config);
}

Vector reference_conservation_row(const Natural_spline_basis& basis,
                                  const Cell_cycle_config& config) {
    Vector row(basis.size());
    for (std::size_t i = 0; i < basis.size(); ++i) {
        const double avg =
            reference_against_p([&](double phi) { return basis.value(i, phi); }, config);
        row[i] = basis.value(i, 1.0) - swarmer_volume_fraction * basis.value(i, 0.0) -
                 stalked_volume_fraction * avg;
    }
    return row;
}

Vector reference_rate_continuity_row(const Natural_spline_basis& basis,
                                     const Cell_cycle_config& config) {
    const double b0 = reference_beta0(config);
    Vector row(basis.size());
    for (std::size_t i = 0; i < basis.size(); ++i) {
        const double beta_avg = reference_against_p(
            [&](double phi) { return growth_rate_beta(phi) * basis.value(i, phi); }, config);
        const double deriv_avg =
            reference_against_p([&](double phi) { return basis.derivative(i, phi); }, config);
        row[i] = b0 * basis.value(i, 1.0) - b0 * basis.value(i, 0.0) - beta_avg -
                 (swarmer_volume_fraction * basis.derivative(i, 0.0) +
                  stalked_volume_fraction * deriv_avg - basis.derivative(i, 1.0));
    }
    return row;
}

void expect_bitwise_equal(const Vector& actual, const Vector& expected, const char* what) {
    ASSERT_EQ(actual.size(), expected.size()) << what;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i]) << what << " entry " << i;
    }
}

struct Window_case {
    const char* name;
    double mu_sst;
    double cv_sst;
};

class SharedRuleRows : public ::testing::TestWithParam<Window_case> {};

TEST_P(SharedRuleRows, MatchOneRulePerIntegralBitForBit) {
    Cell_cycle_config config;
    config.mu_sst = GetParam().mu_sst;
    config.cv_sst = GetParam().cv_sst;
    const Natural_spline_basis basis(18);
    EXPECT_EQ(beta0(config), reference_beta0(config));
    const Vector conservation = reference_conservation_row(basis, config);
    const Vector rate = reference_rate_continuity_row(basis, config);
    expect_bitwise_equal(conservation_row(basis, config), conservation, "conservation_row");
    expect_bitwise_equal(rate_continuity_row(basis, config), rate, "rate_continuity_row");
    const Constraint_set set = build_constraints(basis, config);
    ASSERT_EQ(set.equality.rows(), 2u);
    expect_bitwise_equal(set.equality.row(0), conservation, "build_constraints row 0");
    expect_bitwise_equal(set.equality.row(1), rate, "build_constraints row 1");
}

INSTANTIATE_TEST_SUITE_P(
    Windows, SharedRuleRows,
    ::testing::Values(Window_case{"default", 0.15, 0.13},
                      Window_case{"clipped_at_zero", 0.02, 0.5},
                      Window_case{"point_mass", 0.15, 0.0}),
    [](const ::testing::TestParamInfo<Window_case>& window) { return window.param.name; });

// A transition window too narrow for 64 distinct Gauss-Legendre nodes
// (cv_sst of about 1e-16 or less) is the point mass at mu_sst: beta0 and
// both rows equal their sigma = 0 values, instead of a collapsed rule's
// 0.52294 (1e-16) or a `need lo < hi` throw that names no config field
// (1e-17). 1e-12 still has distinct nodes and keeps its rule, which
// integrates to beta(mu) up to the rounding of nodes a few hundred ulps
// apart (5e-7 here).
class VanishingWindow : public ::testing::TestWithParam<Window_case> {};

TEST_P(VanishingWindow, IsThePointMassAtTheMean) {
    Cell_cycle_config point_mass;
    point_mass.cv_sst = 0.0;
    Cell_cycle_config config;
    config.cv_sst = GetParam().cv_sst;
    const Natural_spline_basis basis(18);
    const double b0 = beta0(config);
    EXPECT_NEAR(b0, growth_rate_beta(config.mu_sst), 1e-5);
    EXPECT_EQ(beta0(point_mass), growth_rate_beta(config.mu_sst));
    const Constraint_set set = build_constraints(basis, config);
    ASSERT_EQ(set.equality.rows(), 2u);
    for (std::size_t i = 0; i < basis.size(); ++i) {
        EXPECT_TRUE(std::isfinite(set.equality(0, i)));
        EXPECT_TRUE(std::isfinite(set.equality(1, i)));
    }
    if (GetParam().cv_sst <= 1e-16) {
        EXPECT_EQ(b0, beta0(point_mass));
        expect_bitwise_equal(conservation_row(basis, config),
                             conservation_row(basis, point_mass), "conservation_row");
        expect_bitwise_equal(rate_continuity_row(basis, config),
                             rate_continuity_row(basis, point_mass), "rate_continuity_row");
    }
}

INSTANTIATE_TEST_SUITE_P(
    Windows, VanishingWindow,
    ::testing::Values(Window_case{"cv_1e_12", 0.15, 1e-12}, Window_case{"cv_1e_16", 0.15, 1e-16},
                      Window_case{"cv_1e_17", 0.15, 1e-17}, Window_case{"cv_0", 0.15, 0.0}),
    [](const ::testing::TestParamInfo<Window_case>& window) { return window.param.name; });

// Property sweep: both equality rows annihilate profiles that genuinely
// satisfy the division balance — constructed here as f with
// f(1) = 0.4 f(0) + 0.6 f(mu_sst) for a tight transition distribution.
class ConservationProperty : public ::testing::TestWithParam<double> {};

TEST_P(ConservationProperty, BalancedProfilesAreFeasible) {
    Cell_cycle_config config;
    config.mu_sst = GetParam();
    config.cv_sst = 0.0005;
    const Natural_spline_basis basis(16);
    // Build alpha for f = A + B*cos(2 pi phi): f(0)=f(1)=A+B, so the
    // balance needs A+B = 0.4(A+B) + 0.6 f(mu). Choose B from A = 1.
    // f(mu) = A + B cos(2 pi mu) -> A+B = 0.4A + 0.4B + 0.6A + 0.6B cmu
    // -> B (0.6 - 0.6 cmu) = 0 ... degenerate; instead use numeric check:
    // verify the row value equals the analytic residual for a generic f.
    const Vector row = conservation_row(basis, config);
    Vector alpha(basis.size());
    for (std::size_t i = 0; i < basis.size(); ++i) {
        const double k = basis.knots()[i];
        alpha[i] = 2.0 + std::sin(5.0 * k);
    }
    const auto f = [&](double phi) { return basis.expand(alpha, phi); };
    const double analytic = f(1.0) - 0.4 * f(0.0) - 0.6 * f(config.mu_sst);
    EXPECT_NEAR(dot(row, alpha), analytic, 5e-3);
}

INSTANTIATE_TEST_SUITE_P(MuSweep, ConservationProperty,
                         ::testing::Values(0.10, 0.15, 0.25, 0.35));

}  // namespace
}  // namespace cellsync

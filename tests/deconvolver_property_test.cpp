// Property suites over the deconvolution estimator: invariants that must
// hold across the lambda range and every constraint combination.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>

#include "biology/gene_profiles.h"
#include "core/deconvolver.h"
#include "core/forward_model.h"
#include "spline/spline_basis.h"

namespace cellsync {
namespace {

// Shared kernel/deconvolver for the whole file.
struct Shared {
    static const Kernel_grid& kernel() {
        static const Kernel_grid k = [] {
            Kernel_build_options options;
            options.n_bins = 120;
            return build_kernel(Cell_cycle_config{}, Smooth_volume_model{},
                                linspace(0.0, 180.0, 13), options);
        }();
        return k;
    }
    static const Deconvolver& deconvolver() {
        static const Deconvolver d(std::make_shared<Natural_spline_basis>(14), kernel(),
                                   Cell_cycle_config{});
        return d;
    }
    /// A deconvolver on the shared kernel whose design is built for the
    /// geometry of `options`: a design fixes the constraints it solves
    /// under.
    static Deconvolver for_options(const Deconvolution_options& options) {
        return Deconvolver(make_design_artifacts(std::make_shared<Natural_spline_basis>(14),
                                                 kernel(), Cell_cycle_config{},
                                                 options.constraints));
    }
    static const Measurement_series& data() {
        static const Measurement_series m = [] {
            Rng rng(44);
            return forward_measurements_noisy(kernel(), ftsz_like_profile().f,
                                              {Noise_type::relative_gaussian, 0.08}, rng);
        }();
        return m;
    }
};

// --- Lambda-path monotonicity (unconstrained ridge path) ----------------

class LambdaPath : public ::testing::TestWithParam<int> {};

TEST_P(LambdaPath, ChiSquaredRisesAndRoughnessFallsWithLambda) {
    const double lambda_lo = std::pow(10.0, -GetParam());
    const double lambda_hi = 10.0 * lambda_lo;
    const Single_cell_estimate lo =
        Shared::deconvolver().estimate_unconstrained(Shared::data(), lambda_lo);
    const Single_cell_estimate hi =
        Shared::deconvolver().estimate_unconstrained(Shared::data(), lambda_hi);
    EXPECT_LE(lo.chi_squared, hi.chi_squared + 1e-9)
        << "misfit must be monotone in lambda";
    EXPECT_GE(lo.roughness, hi.roughness - 1e-9)
        << "roughness must be antitone in lambda";
}

INSTANTIATE_TEST_SUITE_P(Decades, LambdaPath, ::testing::Values(1, 2, 3, 4, 5, 6));

// --- Constraint-combination invariants -----------------------------------

using Combo = std::tuple<bool, bool, bool>;  // positivity, conservation, rate

class ConstraintCombos : public ::testing::TestWithParam<Combo> {};

TEST_P(ConstraintCombos, EstimateHonorsEveryEnabledConstraint) {
    const auto& [positivity, conservation, rate] = GetParam();
    Deconvolution_options options;
    options.lambda = 1e-4;
    options.constraints.positivity = positivity;
    options.constraints.conservation = conservation;
    options.constraints.rate_continuity = rate;

    const Single_cell_estimate est =
        Shared::for_options(options).estimate(Shared::data(), options);
    EXPECT_TRUE(all_finite(est.coefficients()));

    if (positivity) {
        for (double phi = 0.0; phi <= 1.0; phi += 0.01) {
            EXPECT_GE(est(phi), -1e-6) << "phi=" << phi;
        }
    }
    if (conservation) {
        const Vector row = conservation_row(Shared::deconvolver().basis(),
                                            Shared::deconvolver().config());
        EXPECT_NEAR(dot(row, est.coefficients()), 0.0, 1e-6);
    }
    if (rate) {
        const Vector row = rate_continuity_row(Shared::deconvolver().basis(),
                                               Shared::deconvolver().config());
        EXPECT_NEAR(dot(row, est.coefficients()), 0.0, 1e-6);
    }
    // Objective consistency holds in every configuration.
    EXPECT_NEAR(est.objective, est.chi_squared + est.lambda * est.roughness, 1e-8);
}

TEST_P(ConstraintCombos, AddingConstraintsNeverImprovesTheObjective) {
    const auto& [positivity, conservation, rate] = GetParam();
    Deconvolution_options constrained;
    constrained.lambda = 1e-4;
    constrained.constraints.positivity = positivity;
    constrained.constraints.conservation = conservation;
    constrained.constraints.rate_continuity = rate;
    Deconvolution_options free;
    free.lambda = 1e-4;
    free.constraints.positivity = false;
    free.constraints.conservation = false;
    free.constraints.rate_continuity = false;

    const double obj_constrained =
        Shared::for_options(constrained).estimate(Shared::data(), constrained).objective;
    const double obj_free =
        Shared::for_options(free).estimate(Shared::data(), free).objective;
    EXPECT_GE(obj_constrained, obj_free - 1e-8)
        << "a feasible-set restriction cannot lower the optimum";
}

INSTANTIATE_TEST_SUITE_P(AllCombos, ConstraintCombos,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                                            ::testing::Bool()));

// --- Measurement-scaling equivariance ------------------------------------

TEST(DeconvolverProperties, EstimateScalesLinearlyWithDataAndLambda) {
    // Scaling (G, sigma) by s and lambda by 1/s^2 scales f_hat by s
    // exactly: substituting alpha = s beta in the criterion gives
    // C(s beta; sG, s sigma, lambda/s^2) = C(beta; G, sigma, lambda), and
    // all constraints are homogeneous. The QP path gets a looser tolerance
    // for its absolute feasibility thresholds near the positivity
    // boundary.
    const double s = 2.0;
    Measurement_series scaled_data = Shared::data();
    for (double& v : scaled_data.values) v *= s;
    for (double& sig : scaled_data.sigmas) sig *= s;
    const double lambda = 1e-4;
    const double scaled_lambda = lambda / (s * s);

    const Single_cell_estimate base_free =
        Shared::deconvolver().estimate_unconstrained(Shared::data(), lambda);
    const Single_cell_estimate scaled_free =
        Shared::deconvolver().estimate_unconstrained(scaled_data, scaled_lambda);
    for (double phi = 0.0; phi <= 1.0; phi += 0.1) {
        EXPECT_NEAR(scaled_free(phi), s * base_free(phi),
                    1e-6 * std::max(1.0, std::abs(base_free(phi))));
    }

    Deconvolution_options options;
    options.lambda = lambda;
    Deconvolution_options scaled_options;
    scaled_options.lambda = scaled_lambda;
    const Single_cell_estimate base = Shared::deconvolver().estimate(Shared::data(), options);
    const Single_cell_estimate scaled =
        Shared::deconvolver().estimate(scaled_data, scaled_options);
    for (double phi = 0.0; phi <= 1.0; phi += 0.1) {
        EXPECT_NEAR(scaled(phi), s * base(phi), 2e-2 * std::max(1.0, std::abs(base(phi))));
    }
}

TEST(DeconvolverProperties, FittedValuesReproducedByForwardTransform) {
    Deconvolution_options options;
    options.lambda = 1e-3;
    const Single_cell_estimate est = Shared::deconvolver().estimate(Shared::data(), options);
    const Vector via_kernel =
        Shared::kernel().apply([&](double phi) { return est(phi); });
    for (std::size_t m = 0; m < via_kernel.size(); ++m) {
        EXPECT_NEAR(via_kernel[m], est.fitted[m], 1e-6)
            << "K alpha and integral Q f_alpha must agree, m=" << m;
    }
}

}  // namespace
}  // namespace cellsync

#include "core/deconvolver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "biology/gene_profiles.h"
#include "core/forward_model.h"
#include "numerics/qp_solver.h"
#include "spline/spline_basis.h"
#include "numerics/statistics.h"

namespace cellsync {
namespace {

// Shared kernel fixture: building the kernel once keeps the
// whole suite fast while every test still exercises the real pipeline.
class DeconvolverTest : public ::testing::Test {
  protected:
    static void SetUpTestSuite() {
        config_ = new Cell_cycle_config{};
        Kernel_build_options options;
        options.n_bins = 150;
        kernel_ = new Kernel_grid(build_kernel(*config_, Smooth_volume_model{},
                                               linspace(0.0, 180.0, 13), options));
        basis_ = new std::shared_ptr<Natural_spline_basis>(
            std::make_shared<Natural_spline_basis>(14));
        deconvolver_ = new Deconvolver(*basis_, *kernel_, *config_);
    }

    /// A deconvolver on the shared basis and kernel whose design is built
    /// for `geometry`: a design fixes the constraint geometry it solves
    /// under.
    static Deconvolver geometry_deconvolver(const Constraint_options& geometry) {
        return Deconvolver(make_design_artifacts(*basis_, *kernel_, *config_, geometry));
    }

    static void TearDownTestSuite() {
        delete deconvolver_;
        delete basis_;
        delete kernel_;
        delete config_;
        deconvolver_ = nullptr;
        basis_ = nullptr;
        kernel_ = nullptr;
        config_ = nullptr;
    }

    static Cell_cycle_config* config_;
    static Kernel_grid* kernel_;
    static std::shared_ptr<Natural_spline_basis>* basis_;
    static Deconvolver* deconvolver_;
};

Cell_cycle_config* DeconvolverTest::config_ = nullptr;
Kernel_grid* DeconvolverTest::kernel_ = nullptr;
std::shared_ptr<Natural_spline_basis>* DeconvolverTest::basis_ = nullptr;
Deconvolver* DeconvolverTest::deconvolver_ = nullptr;

TEST_F(DeconvolverTest, KernelMatrixShape) {
    EXPECT_EQ(deconvolver_->kernel_matrix().rows(), 13u);
    EXPECT_EQ(deconvolver_->kernel_matrix().cols(), 14u);
    EXPECT_EQ(deconvolver_->penalty().rows(), 14u);
}

TEST_F(DeconvolverTest, RecoversConstantProfileExactly) {
    // The constant profile is the transform's fixed point and satisfies
    // RNA conservation (c = 0.4c + 0.6c), so with the rate-continuity
    // constraint disabled recovery is essentially exact.
    const Measurement_series data =
        forward_measurements(*kernel_, [](double) { return 4.0; });
    Deconvolution_options options;
    options.lambda = 1e-3;
    options.constraints.rate_continuity = false;
    const Single_cell_estimate est =
        geometry_deconvolver(options.constraints).estimate(data, options);
    for (double phi = 0.0; phi <= 1.0; phi += 0.05) {
        EXPECT_NEAR(est(phi), 4.0, 0.02) << "phi=" << phi;
    }
    EXPECT_LT(est.chi_squared, 1e-4);
}

TEST_F(DeconvolverTest, RateContinuityExcludesNonzeroConstants) {
    // Paper Eq 12 applied to a constant c gives -beta0 * c = 0: only the
    // zero profile is a feasible constant. The estimator therefore trades
    // a little data misfit for feasibility on constant data — a property
    // of the published constraint itself, documented here as a test.
    const Natural_spline_basis& basis = dynamic_cast<const Natural_spline_basis&>(
        deconvolver_->basis());
    const Vector row = rate_continuity_row(basis, deconvolver_->config());
    const Vector ones(basis.size(), 1.0);
    EXPECT_GT(std::abs(dot(row, ones)), 0.1);  // constants are infeasible

    const Measurement_series data =
        forward_measurements(*kernel_, [](double) { return 4.0; });
    Deconvolution_options options;
    options.lambda = 1e-3;
    const Single_cell_estimate est = deconvolver_->estimate(data, options);
    // Still close to constant, but with a structured deviation.
    for (double phi = 0.0; phi <= 1.0; phi += 0.05) {
        EXPECT_NEAR(est(phi), 4.0, 0.5) << "phi=" << phi;
    }
    EXPECT_GT(est.chi_squared, 1e-6);
}

TEST_F(DeconvolverTest, RecoversSinusoidShape) {
    const Gene_profile truth = sinusoid_profile(3.0, 2.0);
    const Measurement_series data = forward_measurements(*kernel_, truth.f);
    Deconvolution_options options;
    options.lambda = 1e-4;
    const Single_cell_estimate est = deconvolver_->estimate(data, options);
    const Vector grid = linspace(0.05, 0.95, 19);  // interior (edges are hardest)
    EXPECT_GT(pearson_correlation(est.sample(grid), truth.sample(grid)), 0.98);
    EXPECT_LT(nrmse(est.sample(grid), truth.sample(grid)), 0.08);
}

TEST_F(DeconvolverTest, PositivityConstraintHolds) {
    // Profile hugging zero: unconstrained ridge would undershoot below 0.
    const Gene_profile truth = pulse_profile(0.0, 5.0, 0.4, 0.12);
    const Measurement_series data = forward_measurements(*kernel_, truth.f);
    Deconvolution_options options;
    options.lambda = 1e-5;
    const Single_cell_estimate constrained = deconvolver_->estimate(data, options);
    for (double phi = 0.0; phi <= 1.0; phi += 0.01) {
        EXPECT_GE(constrained(phi), -1e-7) << "phi=" << phi;
    }
    const Single_cell_estimate unconstrained =
        deconvolver_->estimate_unconstrained(data, options.lambda);
    double most_negative = 0.0;
    for (double phi = 0.0; phi <= 1.0; phi += 0.01) {
        most_negative = std::min(most_negative, unconstrained(phi));
    }
    EXPECT_LT(most_negative, -1e-3);  // confirms the constraint was doing work
}

TEST_F(DeconvolverTest, ConservationConstraintSatisfiedAtOptimum) {
    const Gene_profile truth = sinusoid_profile(3.0, 1.5);
    const Measurement_series data = forward_measurements(*kernel_, truth.f);
    Deconvolution_options options;
    options.lambda = 1e-4;
    const Single_cell_estimate est = deconvolver_->estimate(data, options);
    const Vector row = conservation_row(deconvolver_->basis(), deconvolver_->config());
    EXPECT_NEAR(dot(row, est.coefficients()), 0.0, 1e-7);
    const Vector rate_row =
        rate_continuity_row(deconvolver_->basis(), deconvolver_->config());
    EXPECT_NEAR(dot(rate_row, est.coefficients()), 0.0, 1e-7);
}

TEST_F(DeconvolverTest, LambdaControlsRoughness) {
    const Gene_profile truth = sinusoid_profile(3.0, 2.0);
    Rng rng(5);
    const Noise_model noise{Noise_type::relative_gaussian, 0.05};
    const Measurement_series data =
        forward_measurements_noisy(*kernel_, truth.f, noise, rng);
    Deconvolution_options smooth_opts;
    smooth_opts.lambda = 1.0;
    Deconvolution_options rough_opts;
    rough_opts.lambda = 1e-7;
    const Single_cell_estimate smooth = deconvolver_->estimate(data, smooth_opts);
    const Single_cell_estimate rough = deconvolver_->estimate(data, rough_opts);
    EXPECT_LT(smooth.roughness, rough.roughness);
    EXPECT_GE(smooth.chi_squared, rough.chi_squared);
}

TEST_F(DeconvolverTest, FittedValuesAndDiagnosticsConsistent) {
    const Measurement_series data =
        forward_measurements(*kernel_, [](double phi) { return 2.0 + phi * (1.0 - phi); });
    Deconvolution_options options;
    options.lambda = 1e-3;
    const Single_cell_estimate est = deconvolver_->estimate(data, options);
    ASSERT_EQ(est.fitted.size(), data.size());
    double chi2 = 0.0;
    const Vector w = data.weights();
    for (std::size_t m = 0; m < data.size(); ++m) {
        chi2 += w[m] * (data.values[m] - est.fitted[m]) * (data.values[m] - est.fitted[m]);
    }
    EXPECT_NEAR(est.chi_squared, chi2, 1e-9);
    EXPECT_NEAR(est.objective, est.chi_squared + est.lambda * est.roughness, 1e-9);
    EXPECT_GT(est.qp_iterations, 0u);
}

TEST_F(DeconvolverTest, UnconstrainedMatchesConstrainedWhenConstraintsInactive) {
    // Fit a comfortably positive profile with constraints off except
    // equalities disabled too: the QP should agree with the ridge solve.
    const Measurement_series data =
        forward_measurements(*kernel_, [](double phi) { return 5.0 + std::sin(6.28 * phi); });
    Deconvolution_options options;
    options.lambda = 1e-3;
    options.constraints.positivity = false;
    options.constraints.conservation = false;
    options.constraints.rate_continuity = false;
    const Single_cell_estimate qp =
        geometry_deconvolver(options.constraints).estimate(data, options);
    const Single_cell_estimate ridge =
        deconvolver_->estimate_unconstrained(data, options.lambda);
    EXPECT_LT(norm_inf(qp.coefficients() - ridge.coefficients()), 1e-6);
}

TEST_F(DeconvolverTest, SeriesValidationErrors) {
    Measurement_series bad = forward_measurements(*kernel_, [](double) { return 1.0; });
    bad.times[3] += 0.5;  // no longer matches the kernel grid
    EXPECT_THROW(deconvolver_->estimate(bad), std::invalid_argument);

    Measurement_series short_series;
    short_series.times = {0.0, 15.0};
    short_series.values = {1.0, 1.0};
    short_series.sigmas = {1.0, 1.0};
    EXPECT_THROW(deconvolver_->estimate(short_series), std::invalid_argument);

    const Measurement_series good = forward_measurements(*kernel_, [](double) { return 1.0; });
    Deconvolution_options bad_options;
    bad_options.lambda = -1.0;
    EXPECT_THROW(deconvolver_->estimate(good, bad_options), std::invalid_argument);
}

TEST_F(DeconvolverTest, OverflowingMeasurementThrowsInsteadOfNanProfile) {
    // 1.7e308 is finite, so it passes series validation, but the QP
    // objective overflows: the estimate must fail, not return NaN.
    Measurement_series data = forward_measurements(*kernel_, [](double) { return 1.0; });
    data.values[5] = 1.7e308;
    Deconvolution_options options;
    options.lambda = 1e-3;
    EXPECT_THROW(deconvolver_->estimate(data, options), std::runtime_error);
}

TEST_F(DeconvolverTest, ProductionShapeQpPassesKktCertificate) {
    // The QP the program solves: natural-spline Nc = 18 design with the
    // default constraints (101-point positivity grid, conservation, rate
    // continuity). At each lambda the estimator's own solve (solve_blocks)
    // must pass the KKT check of the full problem built from
    // estimator_objective at a tolerance scaled to ||H||, match the primal
    // reference's objective, and be exactly what estimate() returns. (The
    // primal can cycle on this grid for some profiles and lambdas; these
    // inputs are ones it solves.)
    const auto artifacts = make_design_artifacts(std::make_shared<Natural_spline_basis>(18),
                                                 *kernel_, *config_);
    ASSERT_EQ(artifacts->constraints.inequality.rows(), 101u);
    ASSERT_EQ(artifacts->constraints.equality.rows(), 2u);
    const Deconvolver deconvolver(artifacts);
    // A pulse on a zero baseline: at small lambda positivity rows bind.
    const Measurement_series data =
        forward_measurements(*kernel_, pulse_profile(0.0, 6.0, 0.7, 0.15).f);
    const Vector w = data.weights();
    std::vector<std::size_t> all(data.size());
    for (std::size_t m = 0; m < all.size(); ++m) all[m] = m;

    const Matrix ktwk = weighted_gram_rows(artifacts->kernel_matrix, all, w);
    const Vector ktwg =
        weighted_transposed_times_rows(artifacts->kernel_matrix, all, w, data.values);

    for (const double lambda : {1e-5, 1e-3, 1e-1}) {
        Deconvolution_options options;
        options.lambda = lambda;
        const Qp_result dual = deconvolver.solve_blocks(ktwk, ktwg, options);
        const Estimator_objective objective =
            estimator_objective(ktwk, ktwg, artifacts->penalty, lambda);

        Qp_problem problem;
        problem.hessian = objective.hessian;
        problem.gradient = objective.gradient;
        problem.eq_matrix = artifacts->constraints.equality;
        problem.eq_rhs = artifacts->constraints.equality_rhs;
        problem.ineq_matrix = artifacts->constraints.inequality;
        problem.ineq_rhs = artifacts->constraints.inequality_rhs;
        const double scale = std::max(1.0, objective.hessian.norm_inf());
        EXPECT_LT(kkt_violation(problem, dual), 1e-8 * scale) << "lambda " << lambda;

        // solve_blocks reports the reduced problem's objective, which is the
        // full one: the constraints' right-hand sides are zero, so x0 = 0.
        const Qp_result primal = solve_qp(problem);
        EXPECT_NEAR(dual.objective, primal.objective,
                    1e-6 * std::max(1.0, std::abs(primal.objective)))
            << "lambda " << lambda;

        const Single_cell_estimate est = deconvolver.estimate(data, options);
        EXPECT_EQ(est.coefficients(), dual.x) << "lambda " << lambda;
        EXPECT_EQ(est.active_constraints, dual.active_set.size());
        if (lambda == 1e-5) {
            EXPECT_GT(est.active_constraints, 0u);
        }
    }
}

TEST_F(DeconvolverTest, EstimateOnRowsSubsetWorks) {
    const Measurement_series data =
        forward_measurements(*kernel_, [](double phi) { return 3.0 + phi; });
    Deconvolution_options options;
    options.lambda = 1e-3;
    const Single_cell_estimate est =
        deconvolver_->estimate_on_rows(data, {0, 2, 4, 6, 8, 10, 12}, options);
    EXPECT_EQ(est.coefficients().size(), 14u);
    EXPECT_THROW(deconvolver_->estimate_on_rows(data, {}, options), std::invalid_argument);
    EXPECT_THROW(deconvolver_->estimate_on_rows(data, {0, 0}, options), std::invalid_argument);
    EXPECT_THROW(deconvolver_->estimate_on_rows(data, {99}, options), std::invalid_argument);
}

TEST_F(DeconvolverTest, HatMatrixTraceBetweenZeroAndM) {
    const Measurement_series data =
        forward_measurements(*kernel_, [](double phi) { return 2.0 + phi; });
    const Matrix a = deconvolver_->hat_matrix(data, 1e-3);
    EXPECT_EQ(a.rows(), data.size());
    double trace = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) trace += a(i, i);
    EXPECT_GT(trace, 0.0);
    EXPECT_LT(trace, static_cast<double>(data.size()) + 1e-9);
    // More smoothing -> fewer effective dof.
    const Matrix a_smooth = deconvolver_->hat_matrix(data, 10.0);
    double trace_smooth = 0.0;
    for (std::size_t i = 0; i < a_smooth.rows(); ++i) trace_smooth += a_smooth(i, i);
    EXPECT_LT(trace_smooth, trace);
}

TEST_F(DeconvolverTest, SampleTimeMapsPhaseToMinutes) {
    const Measurement_series data =
        forward_measurements(*kernel_, [](double phi) { return 1.0 + phi; });
    Deconvolution_options options;
    options.lambda = 1e-2;
    const Single_cell_estimate est = deconvolver_->estimate(data, options);
    const Vector t{0.0, 75.0, 150.0};
    const Vector by_time = est.sample_time(t, 150.0);
    EXPECT_DOUBLE_EQ(by_time[0], est(0.0));
    EXPECT_DOUBLE_EQ(by_time[1], est(0.5));
    EXPECT_DOUBLE_EQ(by_time[2], est(1.0));
    EXPECT_THROW(est.sample_time(t, 0.0), std::invalid_argument);
}

TEST(DeconvolverConstruction, NullBasisRejected) {
    Kernel_build_options options;
    options.n_bins = 20;
    const Kernel_grid kernel =
        build_kernel(Cell_cycle_config{}, Smooth_volume_model{}, {0.0, 30.0}, options);
    EXPECT_THROW(Deconvolver(nullptr, kernel, Cell_cycle_config{}), std::invalid_argument);
}

}  // namespace
}  // namespace cellsync

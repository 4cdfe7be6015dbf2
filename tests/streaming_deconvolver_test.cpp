#include "stream/streaming_deconvolver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "biology/gene_profiles.h"
#include "core/deconvolver.h"
#include "core/forward_model.h"
#include "spline/spline_basis.h"

namespace cellsync {
namespace {

constexpr double test_lambda = 3e-4;

/// One small kernel + design shared by every test (simulation is the
/// expensive part; the streams themselves are cheap).
struct Stream_fixture {
    std::shared_ptr<const Kernel_grid> kernel;
    std::shared_ptr<const Design_artifacts> artifacts;
};

const Stream_fixture& fixture() {
    static const Stream_fixture fixed = [] {
        Stream_fixture out;
        const Vector times = linspace(0.0, 150.0, 11);
        Cell_cycle_config config;
        Kernel_build_options options;
        options.n_cells = 4000;
        options.n_bins = 60;
        options.seed = 11;
        out.kernel = std::make_shared<const Kernel_grid>(
            build_kernel(config, Smooth_volume_model{}, times, options));
        out.artifacts = make_design_artifacts(
            std::make_shared<Natural_spline_basis>(12), *out.kernel, config);
        return out;
    }();
    return fixed;
}

Measurement_series noisy_series(const Gene_profile& profile, std::uint64_t seed,
                                const std::string& label) {
    Rng rng(seed);
    return forward_measurements_noisy(*fixture().kernel, profile.f,
                                      {Noise_type::relative_gaussian, 0.08}, rng, label);
}

Stream_options stream_options() {
    Stream_options options;
    options.lambda = test_lambda;
    return options;
}

Deconvolution_options batch_options() {
    Deconvolution_options options;
    options.lambda = test_lambda;
    return options;
}

/// The three genes the identity suites run over: constraint-binding
/// profiles (positivity active) and a smooth one (unconstrained optimum).
std::vector<Measurement_series> identity_series() {
    return {noisy_series(ftsz_like_profile(), 5, "ftsZ"),
            noisy_series(pulse_profile(0.0, 6.0, 0.7, 0.15), 6, "pulse"),
            noisy_series(sinusoid_profile(3.0, 2.0), 7, "wave")};
}

void expect_final_bit_identity(const Measurement_series& series) {
    const Deconvolver deconvolver(fixture().artifacts);
    const Single_cell_estimate batch = deconvolver.estimate(series, batch_options());

    Streaming_deconvolver stream(fixture().artifacts, series.label, stream_options());
    for (std::size_t m = 0; m < series.size(); ++m) {
        stream.append(series.times[m], series.values[m], series.sigmas[m]);
    }
    ASSERT_TRUE(stream.complete());

    const Vector& a = batch.coefficients();
    const Vector& b = stream.current().coefficients();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i]) << "coefficient " << i << " (gene " << series.label << ")";
    }
    EXPECT_EQ(batch.chi_squared, stream.current().chi_squared);
    EXPECT_EQ(batch.roughness, stream.current().roughness);
    EXPECT_EQ(batch.objective, stream.current().objective);
}

TEST(StreamingDeconvolver, FinalEstimateBitIdenticalToBatch) {
    for (const Measurement_series& series : identity_series()) {
        expect_final_bit_identity(series);
    }
}

TEST(StreamingDeconvolver, MidStreamEstimatesMatchBatchOnPrefix) {
    // Every mid-stream solve runs the same dual iteration as the batch
    // estimator, on reduced blocks that are rank-one updated rather than
    // re-reduced, so each prefix estimate may differ from
    // estimate_on_rows on that prefix by rounding only.
    const Deconvolver deconvolver(fixture().artifacts);
    for (const Measurement_series& series : identity_series()) {
        Streaming_deconvolver stream(fixture().artifacts, series.label, stream_options());
        std::vector<std::size_t> rows;
        for (std::size_t m = 0; m < series.size(); ++m) {
            stream.append(series.times[m], series.values[m], series.sigmas[m]);
            rows.push_back(m);
            const Single_cell_estimate batch =
                deconvolver.estimate_on_rows(series, rows, batch_options());
            const Vector& want = batch.coefficients();
            const Vector& got = stream.current().coefficients();
            ASSERT_EQ(got.size(), want.size());
            const double gap = norm_inf(got - want) / std::max(1.0, norm_inf(want));
            EXPECT_LE(gap, 1e-8) << "gene " << series.label << " after " << m + 1
                                 << " appends";
        }
    }
}

TEST(StreamingDeconvolver, FailedAppendRollsBackAndStreamRecovers) {
    const Measurement_series series = noisy_series(ftsz_like_profile(), 9, "ftsZ");
    const Deconvolver deconvolver(fixture().artifacts);
    const Single_cell_estimate batch = deconvolver.estimate(series, batch_options());

    Streaming_deconvolver stream(fixture().artifacts, series.label, stream_options());
    for (std::size_t m = 0; m < series.size(); ++m) {
        if (m == 4) {
            // Wrong grid time, bad sigma, non-finite value: each rejected
            // without corrupting the accumulated state. 1e-170 is finite and
            // positive, but its weight 1/sigma^2 overflows: it must be
            // rejected up front, not fail inside the solve.
            EXPECT_THROW(stream.append(series.times[m] + 5.0, 1.0, 1.0),
                         std::invalid_argument);
            EXPECT_THROW(stream.append(series.times[m], 1.0, -1.0), std::invalid_argument);
            EXPECT_THROW(stream.append(series.times[m], 1.0, 1e-170), std::invalid_argument);
            EXPECT_THROW(stream.append(series.times[m], std::nan(""), 1.0),
                         std::invalid_argument);
            EXPECT_EQ(stream.observed(), 4u);
        }
        stream.append(series.times[m], series.values[m], series.sigmas[m]);
    }
    const Vector& a = batch.coefficients();
    const Vector& b = stream.current().coefficients();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i]) << "coefficient " << i;
    }
}

TEST(StreamingDeconvolver, AppendPastCompletionThrows) {
    const Measurement_series series = noisy_series(sinusoid_profile(3.0, 2.0), 8, "wave");
    Streaming_deconvolver stream(fixture().artifacts, series.label, stream_options());
    for (std::size_t m = 0; m < series.size(); ++m) {
        stream.append(series.times[m], series.values[m], series.sigmas[m]);
    }
    EXPECT_THROW(stream.append(series.times.back() + 15.0, 1.0, 1.0), std::logic_error);
}

TEST(StreamingDeconvolver, CurrentBeforeFirstAppendThrows) {
    Streaming_deconvolver stream(fixture().artifacts, "empty", stream_options());
    EXPECT_FALSE(stream.has_estimate());
    EXPECT_THROW(stream.current(), std::logic_error);
}

TEST(StreamingDeconvolver, TracksObservedSeriesAndStats) {
    const Measurement_series series = noisy_series(ftsz_like_profile(), 12, "ftsZ");
    Streaming_deconvolver stream(fixture().artifacts, series.label, stream_options());
    for (std::size_t m = 0; m < 5; ++m) {
        stream.append(series.times[m], series.values[m], series.sigmas[m]);
    }
    EXPECT_EQ(stream.observed(), 5u);
    EXPECT_FALSE(stream.complete());
    const Measurement_series prefix = stream.observed_series();
    ASSERT_EQ(prefix.size(), 5u);
    for (std::size_t m = 0; m < 5; ++m) {
        EXPECT_EQ(prefix.times[m], series.times[m]);
        EXPECT_EQ(prefix.values[m], series.values[m]);
        EXPECT_EQ(prefix.sigmas[m], series.sigmas[m]);
    }
    const Stream_solve_stats& stats = stream.stats();
    EXPECT_EQ(stats.updates, 5u);
    EXPECT_EQ(stats.warm_accepts, 0u);
    EXPECT_EQ(stats.cold_solves, stats.updates);
    // Every mid-stream estimate is usable: finite profile, fit diagnostics.
    EXPECT_TRUE(std::isfinite(stream.current().chi_squared));
    EXPECT_TRUE(all_finite(stream.current().coefficients()));
}

TEST(StreamingDeconvolver, ConvergenceDetectsStabilizedEstimate) {
    // Noiseless measurements: after a few timepoints the estimate stops
    // moving and the tracker must say so (and keep accepting appends).
    const Measurement_series series =
        forward_measurements(*fixture().kernel, sinusoid_profile(3.0, 2.0).f, "clean");
    Stream_options options = stream_options();
    options.convergence.coefficient_tol = 5e-2;
    options.convergence.score_tol = 5e-2;
    options.convergence.min_observed = 3;
    Streaming_deconvolver stream(fixture().artifacts, series.label, options);
    bool converged_before_complete = false;
    for (std::size_t m = 0; m < series.size(); ++m) {
        stream.append(series.times[m], series.values[m], series.sigmas[m]);
        if (stream.converged() && !stream.complete()) converged_before_complete = true;
    }
    EXPECT_TRUE(converged_before_complete);
    EXPECT_TRUE(stream.converged());
    EXPECT_LE(stream.last_coefficient_delta(), 5e-2);
}

TEST(StreamingDeconvolver, ConstructionValidation) {
    EXPECT_THROW(Streaming_deconvolver(nullptr, "x", stream_options()),
                 std::invalid_argument);
    Stream_options bad_lambda = stream_options();
    bad_lambda.lambda = -1.0;
    EXPECT_THROW(Streaming_deconvolver(fixture().artifacts, "x", bad_lambda),
                 std::invalid_argument);
    Stream_options bad_stable = stream_options();
    bad_stable.convergence.stable_updates = 0;
    EXPECT_THROW(Streaming_deconvolver(fixture().artifacts, "x", bad_stable),
                 std::invalid_argument);
    Stream_options bad_score = stream_options();
    bad_score.convergence.score_points = 1;
    EXPECT_THROW(Streaming_deconvolver(fixture().artifacts, "x", bad_score),
                 std::invalid_argument);
    Stream_options bad_coef_tol = stream_options();
    bad_coef_tol.convergence.coefficient_tol = -1.0;
    EXPECT_THROW(Streaming_deconvolver(fixture().artifacts, "x", bad_coef_tol),
                 std::invalid_argument);
    Stream_options bad_score_tol = stream_options();
    bad_score_tol.convergence.score_tol = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(Streaming_deconvolver(fixture().artifacts, "x", bad_score_tol),
                 std::invalid_argument);
}

}  // namespace
}  // namespace cellsync

// Integration tests: the full forward -> deconvolve round trip across a
// family of single-cell profiles and noise conditions (the paper's Sec 4.1
// validation protocol), plus the headline Figure 2/3 and Figure 5 claims.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>

#include "biology/gene_profiles.h"
#include "core/cross_validation.h"
#include "core/forward_model.h"
#include "spline/spline_basis.h"
#include "io/expression_data.h"
#include "models/lotka_volterra.h"
#include "numerics/interpolation.h"
#include "numerics/statistics.h"

namespace cellsync {
namespace {

// One shared kernel for the whole file.
class EndToEnd {
  public:
    static const Kernel_grid& kernel() {
        static const Kernel_grid k = [] {
            Kernel_build_options options;
            options.n_bins = 150;
            return build_kernel(Cell_cycle_config{}, Smooth_volume_model{},
                                linspace(0.0, 180.0, 13), options);
        }();
        return k;
    }

    static const Deconvolver& deconvolver() {
        static const Deconvolver d(std::make_shared<Natural_spline_basis>(16), kernel(),
                                   Cell_cycle_config{});
        return d;
    }
};

Gene_profile profile_by_name(const std::string& name) {
    if (name == "sinusoid") return sinusoid_profile(3.0, 2.0);
    if (name == "pulse") return pulse_profile(0.5, 6.0, 0.45, 0.18);
    if (name == "step") return step_profile(1.0, 6.0, 0.5, 0.25);
    if (name == "ftsz") return ftsz_like_profile();
    if (name == "two-cycle") return sinusoid_profile(4.0, 1.5, 2.0);
    throw std::invalid_argument("unknown profile " + name);
}

// Round-trip recovery across (profile, noise level) pairs. The recovery
// bound loosens with noise; interior grid avoids the ill-posed endpoints.
using RoundTripParam = std::tuple<std::string, double>;

class RoundTrip : public ::testing::TestWithParam<RoundTripParam> {};

TEST_P(RoundTrip, RecoversSingleCellProfile) {
    const auto& [name, noise_level] = GetParam();
    const Gene_profile truth = profile_by_name(name);

    Rng rng(std::hash<std::string>{}(name) % 1000 + 7);
    Measurement_series data;
    if (noise_level == 0.0) {
        data = forward_measurements(EndToEnd::kernel(), truth.f, name);
    } else {
        const Noise_model noise{Noise_type::relative_gaussian, noise_level};
        data = forward_measurements_noisy(EndToEnd::kernel(), truth.f, noise, rng, name);
    }

    const Lambda_selection sel =
        select_lambda_kfold(EndToEnd::deconvolver(), data, Deconvolution_options{},
                            default_lambda_grid(11, 1e-7, 1e0), 5);
    Deconvolution_options options;
    options.lambda = sel.best_lambda;
    const Single_cell_estimate estimate = EndToEnd::deconvolver().estimate(data, options);

    const Vector grid = linspace(0.04, 0.96, 47);
    const Vector recovered = estimate.sample(grid);
    const Vector expected = truth.sample(grid);

    const double corr = pearson_correlation(recovered, expected);
    const double err = nrmse(recovered, expected);
    // The step profile's sharp edge is the hardest shape for a smoothing
    // deconvolution (spectral truncation smears it), so it gets looser
    // bounds; everything else must recover tightly.
    const bool hard = (name == "step");
    const double corr_floor = noise_level == 0.0 ? (hard ? 0.93 : 0.97) : (hard ? 0.75 : 0.90);
    const double err_ceiling = noise_level == 0.0 ? (hard ? 0.17 : 0.10) : (hard ? 0.50 : 0.20);
    EXPECT_GT(corr, corr_floor) << name << " @ noise " << noise_level;
    EXPECT_LT(err, err_ceiling) << name << " @ noise " << noise_level;

    // Physical invariants hold regardless of noise.
    for (double phi = 0.0; phi <= 1.0; phi += 0.02) {
        EXPECT_GE(estimate(phi), -1e-7);
    }
}

std::string round_trip_label(const ::testing::TestParamInfo<RoundTripParam>& info) {
    std::string label = std::get<0>(info.param);
    label += std::get<1>(info.param) == 0.0 ? "_noiseless" : "_noisy10";
    for (char& c : label) {
        if (c == '-') c = '_';
    }
    return label;
}

INSTANTIATE_TEST_SUITE_P(
    ProfileNoiseSweep, RoundTrip,
    ::testing::Combine(::testing::Values("sinusoid", "pulse", "step", "ftsz", "two-cycle"),
                       ::testing::Values(0.0, 0.10)),
    round_trip_label);

TEST(EndToEndLotkaVolterra, Figure2NoiselessRecovery) {
    // The Fig 2 protocol: LV single-cell truth -> population -> deconvolve.
    const Lotka_volterra_params lv = paper_lv_params(150.0);
    const Gene_profile x1 = lotka_volterra_profile(lv, 0, 150.0);
    const Measurement_series g1 = forward_measurements(EndToEnd::kernel(), x1.f, "x1");

    const Lambda_selection sel =
        select_lambda_kfold(EndToEnd::deconvolver(), g1, Deconvolution_options{},
                            default_lambda_grid(11, 1e-7, 1e0), 5);
    Deconvolution_options options;
    options.lambda = sel.best_lambda;
    const Single_cell_estimate estimate = EndToEnd::deconvolver().estimate(g1, options);

    const Vector grid = linspace(0.05, 0.95, 31);
    EXPECT_GT(pearson_correlation(estimate.sample(grid), x1.sample(grid)), 0.95);

    // The deconvolved profile must beat the raw population series as an
    // approximation of the single-cell truth (the figure's whole point).
    Vector population_as_profile(grid.size());
    const Linear_interpolant pop_interp(g1.times, g1.values);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        population_as_profile[i] = pop_interp(grid[i] * 150.0);
    }
    const double err_deconv = rmse(estimate.sample(grid), x1.sample(grid));
    const double err_population = rmse(population_as_profile, x1.sample(grid));
    EXPECT_LT(err_deconv, err_population);
}

TEST(EndToEndFtsz, Figure5DelayResolvedAndPostPeakDrop) {
    // Deconvolve the embedded ftsZ dataset and check the two published
    // findings: (1) the transcription delay before the SW->ST transition is
    // visible in f(phi) though invisible in G(t); (2) expression drops
    // after its peak with no subsequent rise, while raw G(t) rises at the
    // experiment's tail.
    const Measurement_series data = ftsz_population_dataset();
    Kernel_build_options kernel_options;
    kernel_options.n_bins = 150;
    const Kernel_grid kernel = build_kernel(Cell_cycle_config{}, Smooth_volume_model{},
                                            data.times, kernel_options);
    const Deconvolver deconvolver(std::make_shared<Natural_spline_basis>(16), kernel,
                                  Cell_cycle_config{});
    const Lambda_selection sel =
        select_lambda_kfold(deconvolver, data, Deconvolution_options{},
                            default_lambda_grid(11, 1e-6, 1e0), 5);
    Deconvolution_options options;
    options.lambda = sel.best_lambda;
    const Single_cell_estimate f = deconvolver.estimate(data, options);

    // (1) Delay: before the SW->ST transition the profile sits on its low
    // plateau (the microarray background), far below the peak. The
    // criteria are expressed relative to the recovered range because the
    // synthetic dataset carries a documented +2.0 background term.
    double peak = 0.0, peak_phi = 0.0;
    double floor = 1e18;
    for (double phi = 0.0; phi <= 1.0; phi += 0.005) {
        const double v = f(phi);
        if (v > peak) {
            peak = v;
            peak_phi = phi;
        }
        floor = std::min(floor, v);
    }
    const double range = peak - floor;
    ASSERT_GT(range, 1.0);
    EXPECT_LT(f(0.05) - floor, 0.25 * range);
    EXPECT_LT(f(0.10) - floor, 0.30 * range);

    // Peak lands near phi ~ 0.4 (generation truth; tolerance for noise).
    EXPECT_NEAR(peak_phi, 0.40, 0.12);

    // (2) Post-peak drop: late expression well below peak...
    EXPECT_LT(f(0.85) - floor, 0.6 * range);
    // ...even though the raw population data rises toward the tail
    // (135 -> 150 min in the embedded series).
    EXPECT_GT(data.values.back(), data.values[9]);
}

TEST(EndToEndBaselines, ConstrainedEstimatorBeatsUnconstrainedUnderNoise) {
    // The physical constraints are a prior: on any single noise draw either
    // estimator can win, so compare average recovery error over several
    // independent realizations.
    const Gene_profile truth = ftsz_like_profile();
    const Noise_model noise{Noise_type::relative_gaussian, 0.10};
    const Vector grid = linspace(0.0, 1.0, 101);
    const Vector expected = truth.sample(grid);

    Deconvolution_options options;
    options.lambda = 1e-4;
    double err_constrained = 0.0;
    double err_unconstrained = 0.0;
    const int realizations = 6;
    for (int seed = 0; seed < realizations; ++seed) {
        Rng rng(71 + static_cast<std::uint64_t>(seed));
        const Measurement_series data =
            forward_measurements_noisy(EndToEnd::kernel(), truth.f, noise, rng);
        err_constrained +=
            rmse(EndToEnd::deconvolver().estimate(data, options).sample(grid), expected);
        err_unconstrained += rmse(
            EndToEnd::deconvolver().estimate_unconstrained(data, options.lambda).sample(grid),
            expected);
    }
    EXPECT_LE(err_constrained, err_unconstrained * 1.02);
}

TEST(EndToEndSmallData, FewMeasurementsStillWellPosed) {
    // Nm = 5 with 16 basis functions: heavily underdetermined, held up by
    // the regularizer and constraints.
    Kernel_build_options options;
    options.n_bins = 100;
    const Kernel_grid kernel = build_kernel(Cell_cycle_config{}, Smooth_volume_model{},
                                            linspace(0.0, 160.0, 5), options);
    const Deconvolver deconvolver(std::make_shared<Natural_spline_basis>(16), kernel,
                                  Cell_cycle_config{});
    const Gene_profile truth = sinusoid_profile(3.0, 1.5);
    const Measurement_series data = forward_measurements(kernel, truth.f);
    Deconvolution_options dopt;
    dopt.lambda = 1e-3;
    const Single_cell_estimate estimate = deconvolver.estimate(data, dopt);
    // Not expected to be sharp, but it must be finite, positive, and
    // capture the gross shape.
    const Vector grid = linspace(0.1, 0.9, 17);
    EXPECT_TRUE(all_finite(estimate.sample(grid)));
    EXPECT_GT(pearson_correlation(estimate.sample(grid), truth.sample(grid)), 0.6);
}

}  // namespace
}  // namespace cellsync

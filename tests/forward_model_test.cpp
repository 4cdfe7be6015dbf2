#include "core/forward_model.h"

#include <gtest/gtest.h>

#include "biology/gene_profiles.h"
#include "numerics/statistics.h"

namespace cellsync {
namespace {

class ForwardModelTest : public ::testing::Test {
  protected:
    static void SetUpTestSuite() {
        Kernel_build_options options;
        options.n_bins = 100;
        kernel_ = new Kernel_grid(build_kernel(Cell_cycle_config{}, Smooth_volume_model{},
                                               linspace(0.0, 180.0, 13), options));
    }
    static void TearDownTestSuite() {
        delete kernel_;
        kernel_ = nullptr;
    }
    static Kernel_grid* kernel_;
};

Kernel_grid* ForwardModelTest::kernel_ = nullptr;

TEST_F(ForwardModelTest, NoiselessSeriesHasUnitSigmas) {
    const Measurement_series s =
        forward_measurements(*kernel_, [](double phi) { return 1.0 + phi; }, "lin");
    EXPECT_EQ(s.label, "lin");
    EXPECT_EQ(s.size(), 13u);
    for (double sigma : s.sigmas) EXPECT_DOUBLE_EQ(sigma, 1.0);
    EXPECT_NO_THROW(s.validate());
}

TEST_F(ForwardModelTest, PopulationAveragesSmoothTheProfile) {
    // The population signal of a pulse has smaller dynamic range than the
    // single-cell pulse itself — the core asynchrony artifact the paper
    // deconvolves away.
    const Gene_profile pulse = pulse_profile(0.5, 8.0, 0.5, 0.1);
    const Measurement_series s = forward_measurements(*kernel_, pulse.f);
    const auto [mn, mx] = std::minmax_element(s.values.begin(), s.values.end());
    EXPECT_LT(*mx - *mn, 8.0 * 0.9);
    EXPECT_GT(*mn, 0.0);
}

TEST_F(ForwardModelTest, EarlyMeasurementTracksSwarmerExpression) {
    // At t=0 everything is a swarmer (phi < ~0.2): population value ~ the
    // profile's value in the SW stage.
    const Gene_profile step = step_profile(1.0, 9.0, 0.5, 0.1);  // low early, high late
    const Measurement_series s = forward_measurements(*kernel_, step.f);
    EXPECT_NEAR(s.values.front(), 1.0, 0.15);
}

TEST_F(ForwardModelTest, NoisyVariantPerturbsValues) {
    Rng rng(9);
    const Noise_model noise{Noise_type::relative_gaussian, 0.10};
    const Gene_profile truth = sinusoid_profile(3.0, 1.0);
    const Measurement_series clean = forward_measurements(*kernel_, truth.f);
    const Measurement_series noisy =
        forward_measurements_noisy(*kernel_, truth.f, noise, rng);
    EXPECT_GT(max_abs_error(clean.values, noisy.values), 0.0);
    for (std::size_t m = 0; m < noisy.size(); ++m) {
        EXPECT_NEAR(noisy.sigmas[m], 0.10 * std::abs(clean.values[m]), 1e-12);
    }
}

}  // namespace
}  // namespace cellsync

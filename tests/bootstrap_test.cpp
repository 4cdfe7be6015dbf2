#include "core/bootstrap.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "biology/gene_profiles.h"
#include "core/forward_model.h"
#include "spline/spline_basis.h"

namespace cellsync {
namespace {

class BootstrapTest : public ::testing::Test {
  protected:
    static void SetUpTestSuite() {
        Kernel_build_options options;
        options.n_bins = 120;
        kernel_ = new Kernel_grid(build_kernel(Cell_cycle_config{}, Smooth_volume_model{},
                                               linspace(0.0, 180.0, 13), options));
        deconvolver_ = new Deconvolver(std::make_shared<Natural_spline_basis>(12), *kernel_,
                                       Cell_cycle_config{});
    }
    static void TearDownTestSuite() {
        delete deconvolver_;
        delete kernel_;
        deconvolver_ = nullptr;
        kernel_ = nullptr;
    }
    static Kernel_grid* kernel_;
    static Deconvolver* deconvolver_;
};

Kernel_grid* BootstrapTest::kernel_ = nullptr;
Deconvolver* BootstrapTest::deconvolver_ = nullptr;

Measurement_series noisy_data(const Kernel_grid& kernel, std::uint64_t seed) {
    const Gene_profile truth = sinusoid_profile(3.0, 2.0);
    Rng rng(seed);
    return forward_measurements_noisy(kernel, truth.f,
                                      {Noise_type::relative_gaussian, 0.08}, rng);
}

TEST(BootstrapOptions, Validation) {
    Bootstrap_options options;
    EXPECT_NO_THROW(options.validate());
    options.replicates = 5;
    EXPECT_THROW(options.validate(), std::invalid_argument);
    options = {};
    options.coverage = 1.0;
    EXPECT_THROW(options.validate(), std::invalid_argument);
    options = {};
    options.max_failure_fraction = 1.0;
    EXPECT_THROW(options.validate(), std::invalid_argument);
}

TEST_F(BootstrapTest, BandOrderingAndShapes) {
    const Measurement_series data = noisy_data(*kernel_, 1);
    Deconvolution_options options;
    options.lambda = 1e-3;
    Bootstrap_options boot;
    boot.replicates = 60;
    const Vector grid = linspace(0.0, 1.0, 21);
    const Confidence_band band =
        bootstrap_confidence_band(*deconvolver_, data, options, grid, boot);
    ASSERT_EQ(band.phi.size(), grid.size());
    ASSERT_EQ(band.lower.size(), grid.size());
    ASSERT_EQ(band.upper.size(), grid.size());
    EXPECT_EQ(band.replicates_used, 60u);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_LE(band.lower[i], band.median[i]) << "i=" << i;
        EXPECT_LE(band.median[i], band.upper[i]) << "i=" << i;
    }
    EXPECT_GT(band.mean_width(), 0.0);
}

TEST_F(BootstrapTest, BandCoversTruthAtMostPoints) {
    const Gene_profile truth = sinusoid_profile(3.0, 2.0);
    const Measurement_series data = noisy_data(*kernel_, 2);
    Deconvolution_options options;
    options.lambda = 1e-3;
    Bootstrap_options boot;
    boot.replicates = 120;
    boot.coverage = 0.95;
    // Interior grid: the endpoints carry systematic (bias) error that a
    // noise-only bootstrap cannot see.
    const Vector grid = linspace(0.10, 0.90, 17);
    const Confidence_band band =
        bootstrap_confidence_band(*deconvolver_, data, options, grid, boot);
    EXPECT_GE(band.coverage_fraction(truth.f), 0.6);
}

TEST_F(BootstrapTest, WiderCoverageGivesWiderBand) {
    const Measurement_series data = noisy_data(*kernel_, 3);
    Deconvolution_options options;
    options.lambda = 1e-3;
    const Vector grid = linspace(0.0, 1.0, 11);
    Bootstrap_options narrow;
    narrow.replicates = 80;
    narrow.coverage = 0.50;
    Bootstrap_options wide = narrow;
    wide.coverage = 0.95;
    const Confidence_band band_narrow =
        bootstrap_confidence_band(*deconvolver_, data, options, grid, narrow);
    const Confidence_band band_wide =
        bootstrap_confidence_band(*deconvolver_, data, options, grid, wide);
    EXPECT_GT(band_wide.mean_width(), band_narrow.mean_width());
}

TEST_F(BootstrapTest, MoreNoiseGivesWiderBand) {
    const Gene_profile truth = sinusoid_profile(3.0, 2.0);
    Deconvolution_options options;
    options.lambda = 1e-3;
    Bootstrap_options boot;
    boot.replicates = 60;
    const Vector grid = linspace(0.0, 1.0, 11);

    Rng rng_low(4), rng_high(4);
    const Measurement_series quiet = forward_measurements_noisy(
        *kernel_, truth.f, {Noise_type::relative_gaussian, 0.03}, rng_low);
    const Measurement_series loud = forward_measurements_noisy(
        *kernel_, truth.f, {Noise_type::relative_gaussian, 0.15}, rng_high);
    const Confidence_band band_quiet =
        bootstrap_confidence_band(*deconvolver_, quiet, options, grid, boot);
    const Confidence_band band_loud =
        bootstrap_confidence_band(*deconvolver_, loud, options, grid, boot);
    EXPECT_GT(band_loud.mean_width(), band_quiet.mean_width());
}

TEST_F(BootstrapTest, DeterministicGivenSeed) {
    const Measurement_series data = noisy_data(*kernel_, 5);
    Deconvolution_options options;
    options.lambda = 1e-3;
    Bootstrap_options boot;
    boot.replicates = 40;
    const Vector grid = linspace(0.0, 1.0, 5);
    const Confidence_band a =
        bootstrap_confidence_band(*deconvolver_, data, options, grid, boot);
    const Confidence_band b =
        bootstrap_confidence_band(*deconvolver_, data, options, grid, boot);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.lower[i], b.lower[i]);
        EXPECT_DOUBLE_EQ(a.upper[i], b.upper[i]);
    }
}

TEST_F(BootstrapTest, PoolOverloadIsThreadCountInvariant) {
    // Replicate r draws from its own seeded Rng and writes its own slot,
    // so the pooled band equals the serial one for any pool size.
    const Measurement_series data = noisy_data(*kernel_, 9);
    Deconvolution_options options;
    options.lambda = 1e-3;
    Bootstrap_options boot;
    boot.replicates = 24;
    const Vector grid = linspace(0.1, 0.9, 9);

    Worker_pool one(1);
    Worker_pool four(4);
    EXPECT_EQ(four.thread_count(), 4u);
    const Confidence_band a =
        bootstrap_confidence_band(*deconvolver_, data, options, grid, boot, one);
    const Confidence_band b =
        bootstrap_confidence_band(*deconvolver_, data, options, grid, boot, four);
    const Confidence_band serial =
        bootstrap_confidence_band(*deconvolver_, data, options, grid, boot);

    for (const Confidence_band* band : {&b, &serial}) {
        EXPECT_EQ(a.replicates_used, band->replicates_used);
        EXPECT_EQ(a.lower, band->lower);
        EXPECT_EQ(a.median, band->median);
        EXPECT_EQ(a.upper, band->upper);
        EXPECT_EQ(a.point, band->point);
    }
}

TEST_F(BootstrapTest, EmptyGridRejected) {
    const Measurement_series data = noisy_data(*kernel_, 6);
    EXPECT_THROW(
        bootstrap_confidence_band(*deconvolver_, data, Deconvolution_options{}, {}),
        std::invalid_argument);
}

TEST(ConfidenceBand, ContainmentHelpers) {
    Confidence_band band;
    band.phi = {0.0, 0.5, 1.0};
    band.lower = {0.0, 1.0, 0.0};
    band.median = {0.5, 1.5, 0.5};
    band.upper = {1.0, 2.0, 1.0};
    band.point = band.median;
    const auto inside = [](double) { return 0.5; };
    EXPECT_NEAR(band.coverage_fraction(inside), 2.0 / 3.0, 1e-12);
    EXPECT_FALSE(band.contains(inside));
    const auto centered = [&](double phi) { return phi == 0.5 ? 1.5 : 0.5; };
    EXPECT_TRUE(band.contains(centered));
    EXPECT_NEAR(band.mean_width(), 1.0, 1e-12);
}

}  // namespace
}  // namespace cellsync

#include "core/cross_validation.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "biology/gene_profiles.h"
#include "core/forward_model.h"
#include "spline/spline_basis.h"
#include "numerics/statistics.h"

namespace cellsync {
namespace {

class CrossValidationTest : public ::testing::Test {
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

Kernel_grid* CrossValidationTest::kernel_ = nullptr;
Deconvolver* CrossValidationTest::deconvolver_ = nullptr;

TEST(LambdaGrid, DefaultGridIsLogSpaced) {
    const Vector grid = default_lambda_grid();
    EXPECT_EQ(grid.size(), 15u);
    EXPECT_NEAR(grid.front(), 1e-7, 1e-14);
    EXPECT_NEAR(grid.back(), 1e1, 1e-11);
    for (std::size_t i = 0; i + 1 < grid.size(); ++i) {
        EXPECT_NEAR(grid[i + 1] / grid[i], grid[1] / grid[0], 1e-9);
    }
}

TEST(LambdaGrid, Validation) {
    EXPECT_THROW(default_lambda_grid(1), std::invalid_argument);
    EXPECT_THROW(default_lambda_grid(10, 0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(default_lambda_grid(10, 1.0, 0.5), std::invalid_argument);
}

TEST_F(CrossValidationTest, KfoldPicksModerateLambdaOnNoisyData) {
    const Gene_profile truth = sinusoid_profile(3.0, 2.0);
    Rng rng(21);
    const Noise_model noise{Noise_type::relative_gaussian, 0.10};
    const Measurement_series data =
        forward_measurements_noisy(*kernel_, truth.f, noise, rng);
    const Lambda_selection sel = select_lambda_kfold(
        *deconvolver_, data, Deconvolution_options{}, default_lambda_grid(13, 1e-7, 1e1), 5);
    EXPECT_EQ(sel.method, "kfold");
    EXPECT_EQ(sel.scores.size(), 13u);
    // The selected lambda should beat both extremes of the grid on CV score.
    const double best_score = *std::min_element(sel.scores.begin(), sel.scores.end());
    EXPECT_LE(best_score, sel.scores.front());
    EXPECT_LE(best_score, sel.scores.back());
    EXPECT_GT(sel.best_lambda, 0.0);
}

TEST_F(CrossValidationTest, KfoldSelectionImprovesRecovery) {
    const Gene_profile truth = sinusoid_profile(3.0, 2.0);
    Rng rng(22);
    const Noise_model noise{Noise_type::relative_gaussian, 0.10};
    const Measurement_series data =
        forward_measurements_noisy(*kernel_, truth.f, noise, rng);
    const Lambda_selection sel = select_lambda_kfold(
        *deconvolver_, data, Deconvolution_options{}, default_lambda_grid(13, 1e-7, 1e1), 5);

    Deconvolution_options best_opts;
    best_opts.lambda = sel.best_lambda;
    Deconvolution_options tiny_opts;
    tiny_opts.lambda = 1e-9;

    const Vector grid = linspace(0.0, 1.0, 101);
    const Vector truth_samples = truth.sample(grid);
    const double err_best =
        rmse(deconvolver_->estimate(data, best_opts).sample(grid), truth_samples);
    const double err_tiny =
        rmse(deconvolver_->estimate(data, tiny_opts).sample(grid), truth_samples);
    EXPECT_LE(err_best, err_tiny * 1.05);  // CV choice no worse than overfit
}

TEST_F(CrossValidationTest, GcvScoresFiniteAndMinimumInterior) {
    const Gene_profile truth = sinusoid_profile(3.0, 2.0);
    Rng rng(23);
    const Noise_model noise{Noise_type::relative_gaussian, 0.10};
    const Measurement_series data =
        forward_measurements_noisy(*kernel_, truth.f, noise, rng);
    const Lambda_selection sel =
        select_lambda_gcv(*deconvolver_, data, default_lambda_grid(15, 1e-7, 1e1));
    EXPECT_EQ(sel.method, "gcv");
    for (double s : sel.scores) EXPECT_TRUE(std::isfinite(s));
    EXPECT_GT(sel.best_lambda, 0.0);
}

TEST_F(CrossValidationTest, FoldsClampedToMeasurementCount) {
    const Measurement_series data =
        forward_measurements(*kernel_, [](double) { return 2.0; });
    // folds = 50 > Nm = 13 behaves as leave-one-out, not an error.
    const Lambda_selection sel = select_lambda_kfold(
        *deconvolver_, data, Deconvolution_options{}, default_lambda_grid(5, 1e-5, 1e-1), 50);
    EXPECT_EQ(sel.scores.size(), 5u);
}

TEST_F(CrossValidationTest, ValidationErrors) {
    const Measurement_series data =
        forward_measurements(*kernel_, [](double) { return 2.0; });
    EXPECT_THROW(
        select_lambda_kfold(*deconvolver_, data, Deconvolution_options{}, {}, 5),
        std::invalid_argument);
    EXPECT_THROW(select_lambda_kfold(*deconvolver_, data, Deconvolution_options{},
                                     default_lambda_grid(5), 1),
                 std::invalid_argument);
    EXPECT_THROW(select_lambda_gcv(*deconvolver_, data, {}), std::invalid_argument);
}

/// The per-fit path: each fold refitted with estimate_on_rows and scored
/// with row_dot, one lambda at a time. select_lambda_kfold builds each
/// fold's blocks once per sweep and must reproduce these scores bit for
/// bit.
double per_fit_score(const Deconvolver& deconvolver, const Measurement_series& series,
                     Deconvolution_options options, double lambda, std::size_t folds,
                     std::uint64_t seed) {
    options.lambda = lambda;
    const std::size_t m = series.size();
    const std::vector<std::size_t> perm = kfold_permutation(m, seed);
    const Vector weights = series.weights();
    double score = 0.0;
    for (std::size_t fold = 0; fold < folds; ++fold) {
        std::vector<std::size_t> train, test;
        for (std::size_t p = 0; p < m; ++p) {
            (p % folds == fold ? test : train).push_back(perm[p]);
        }
        if (train.size() < 2) continue;
        try {
            const Single_cell_estimate fit = deconvolver.estimate_on_rows(series, train, options);
            for (const std::size_t idx : test) {
                const double pred = row_dot(deconvolver.kernel_matrix(), idx, fit.coefficients());
                const double r = series.values[idx] - pred;
                score += weights[idx] * r * r;
            }
        } catch (const std::runtime_error&) {
            return std::numeric_limits<double>::infinity();
        }
    }
    return score / static_cast<double>(m);
}

TEST_F(CrossValidationTest, SweepMatchesPerFitPathBitForBit) {
    const Noise_model noise{Noise_type::relative_gaussian, 0.08};
    Rng rng(25);
    // A pulse that binds the positivity rows and a smooth sinusoid.
    const Measurement_series pulse = forward_measurements_noisy(
        *kernel_, pulse_profile(0.1, 3.0, 0.4, 0.1).f, noise, rng);
    const Measurement_series sinusoid =
        forward_measurements_noisy(*kernel_, sinusoid_profile(3.0, 2.0).f, noise, rng);
    const Vector grid = default_lambda_grid(15, 1e-7, 1e1);

    // The design's own constraint geometry (cached prep), then another one
    // (the prep rebuilt per fit).
    Deconvolution_options rebuilt;
    rebuilt.constraints.rate_continuity = false;
    rebuilt.constraints.positivity_points = 41;
    for (const Measurement_series& data : {pulse, sinusoid}) {
        for (const Deconvolution_options& options : {Deconvolution_options{}, rebuilt}) {
            const Lambda_selection sel =
                select_lambda_kfold(*deconvolver_, data, options, grid, 5);
            ASSERT_EQ(sel.scores.size(), grid.size());
            for (std::size_t li = 0; li < grid.size(); ++li) {
                EXPECT_EQ(sel.scores[li],
                          per_fit_score(*deconvolver_, data, options, grid[li], 5, 77))
                    << "lambda " << grid[li];
            }
        }
    }

    // Validation runs once per sweep and keeps its errors.
    Vector negative = grid;
    negative[7] = -1e-3;
    EXPECT_THROW(select_lambda_kfold(*deconvolver_, pulse, Deconvolution_options{}, negative, 5),
                 std::invalid_argument);
    Measurement_series short_series = pulse;
    short_series.times.pop_back();
    short_series.values.pop_back();
    short_series.sigmas.pop_back();
    EXPECT_THROW(
        select_lambda_kfold(*deconvolver_, short_series, Deconvolution_options{}, grid, 5),
        std::invalid_argument);
}

TEST_F(CrossValidationTest, FewerThanThreeMeasurementsRejected) {
    // Two points leave every fold one training row: no fit would run and
    // the first grid lambda would come back as the "selection".
    Measurement_series data;
    data.times = {0.0, 90.0};
    data.values = {1.0, 2.0};
    data.sigmas = {0.1, 0.1};
    try {
        select_lambda_kfold(*deconvolver_, data, Deconvolution_options{},
                            default_lambda_grid(5, 1e-5, 1e-1), 5);
        FAIL() << "a 2-point series was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "need at least 3 measurements for k-fold CV, got 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(CrossValidationTest, DeterministicGivenSeed) {
    const Gene_profile truth = sinusoid_profile(3.0, 1.0);
    Rng rng(24);
    const Noise_model noise{Noise_type::relative_gaussian, 0.05};
    const Measurement_series data =
        forward_measurements_noisy(*kernel_, truth.f, noise, rng);
    const Vector grid = default_lambda_grid(7, 1e-6, 1e0);
    const Lambda_selection a = select_lambda_kfold(*deconvolver_, data,
                                                   Deconvolution_options{}, grid, 4, 123);
    const Lambda_selection b = select_lambda_kfold(*deconvolver_, data,
                                                   Deconvolution_options{}, grid, 4, 123);
    for (std::size_t i = 0; i < a.scores.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.scores[i], b.scores[i]);
    }
    EXPECT_DOUBLE_EQ(a.best_lambda, b.best_lambda);
}

}  // namespace
}  // namespace cellsync

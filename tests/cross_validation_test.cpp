#include "core/cross_validation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "biology/gene_profiles.h"
#include "core/forward_model.h"
#include "core/telemetry.h"
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
        rebuilt_deconvolver_ = new Deconvolver(
            make_design_artifacts(std::make_shared<Natural_spline_basis>(12), *kernel_,
                                  Cell_cycle_config{}, rebuilt().constraints));
    }
    static void TearDownTestSuite() {
        delete rebuilt_deconvolver_;
        delete deconvolver_;
        delete kernel_;
        rebuilt_deconvolver_ = nullptr;
        deconvolver_ = nullptr;
        kernel_ = nullptr;
    }

    /// The second geometry the sweep tests run.
    static const Deconvolution_options& rebuilt() {
        static const Deconvolution_options options = [] {
            Deconvolution_options o;
            o.constraints.rate_continuity = false;
            o.constraints.positivity_points = 41;
            return o;
        }();
        return options;
    }

    /// Each (deconvolver, options) pair a sweep test runs: the default
    /// geometry, then rebuilt() on a second design built for it.
    struct Geometry {
        const Deconvolver& deconvolver;
        const Deconvolution_options& options;
    };
    static std::vector<Geometry> geometries() {
        static const Deconvolution_options defaults;
        return {{*deconvolver_, defaults}, {*rebuilt_deconvolver_, rebuilt()}};
    }

    static Kernel_grid* kernel_;
    static Deconvolver* deconvolver_;
    static Deconvolver* rebuilt_deconvolver_;
};

Kernel_grid* CrossValidationTest::kernel_ = nullptr;
Deconvolver* CrossValidationTest::deconvolver_ = nullptr;
Deconvolver* CrossValidationTest::rebuilt_deconvolver_ = nullptr;

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

    for (const Measurement_series& data : {pulse, sinusoid}) {
        for (const auto& [deconvolver, options] : geometries()) {
            const Lambda_selection sel = select_lambda_kfold(deconvolver, data, options, grid, 5);
            ASSERT_EQ(sel.scores.size(), grid.size());
            for (std::size_t li = 0; li < grid.size(); ++li) {
                EXPECT_EQ(sel.scores[li],
                          per_fit_score(deconvolver, data, options, grid[li], 5, 77))
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

// ---------------------------------------------------------------------
// best_lambda_kfold: the sweep's pick, with fewer fits.
// ---------------------------------------------------------------------

TEST_F(CrossValidationTest, BestLambdaMatchesTheFullSweep) {
    const Noise_model noise{Noise_type::relative_gaussian, 0.08};
    const std::vector<Gene_profile> profiles = {
        pulse_profile(0.1, 3.0, 0.4, 0.1), ftsz_like_profile(), sinusoid_profile(3.0, 2.0),
        step_profile(1.0, 4.0, 0.5, 0.15)};
    // The 15-point grid of a first condition, a 7-point warm grid (+/- one
    // decade around a previous pick) and the smallest grid.
    const std::vector<Vector> grids = {default_lambda_grid(), default_lambda_grid(7, 1e-4, 1e-2),
                                       default_lambda_grid(2, 1e-5, 1e-1)};

    std::size_t interior_picks = 0;
    for (const Gene_profile& profile : profiles) {
        for (const std::uint64_t noise_seed : {41u, 42u, 43u}) {
            Rng rng(noise_seed);
            const Measurement_series data =
                forward_measurements_noisy(*kernel_, profile.f, noise, rng);
            for (const Vector& grid : grids) {
                for (const std::size_t folds : {2u, 5u, 13u}) {
                    for (const auto& [deconvolver, options] : geometries()) {
                        const Lambda_selection sel =
                            select_lambda_kfold(deconvolver, data, options, grid, folds);
                        EXPECT_EQ(best_lambda_kfold(deconvolver, data, options, grid, folds),
                                  sel.best_lambda)
                            << profile.name << " seed " << noise_seed << ", " << grid.size()
                            << " points, " << folds << " folds";
                        if (sel.best_lambda != grid.front() && sel.best_lambda != grid.back()) {
                            ++interior_picks;
                        }
                    }
                }
            }
        }
    }
    // The comparison is not vacuous: many picks lie inside their grid.
    EXPECT_GT(interior_picks, 50u);
}

TEST_F(CrossValidationTest, BothSearchesCountTheirFits) {
    Rng rng(44);
    const Measurement_series data = forward_measurements_noisy(
        *kernel_, pulse_profile(0.1, 3.0, 0.4, 0.1).f,
        {Noise_type::relative_gaussian, 0.08}, rng);
    const Vector grid = default_lambda_grid();
    telemetry::Counter& fits = telemetry::counter("cv.fits");
    telemetry::Counter& skipped = telemetry::counter("cv.fits_skipped");

    std::uint64_t fits_before = fits.value();
    std::uint64_t skipped_before = skipped.value();
    select_lambda_kfold(*deconvolver_, data, Deconvolution_options{}, grid, 5);
    EXPECT_EQ(fits.value() - fits_before, 15u * 5u);
    EXPECT_EQ(skipped.value() - skipped_before, 0u);

    fits_before = fits.value();
    skipped_before = skipped.value();
    best_lambda_kfold(*deconvolver_, data, Deconvolution_options{}, grid, 5);
    const std::uint64_t solved = fits.value() - fits_before;
    const std::uint64_t saved = skipped.value() - skipped_before;
    EXPECT_EQ(solved + saved, 15u * 5u);
    EXPECT_GT(saved, 0u);
}

/// The exception a search throws, as "<type>: <message>".
std::string rejection(const std::function<void()>& search) {
    try {
        search();
    } catch (const std::exception& e) {
        return std::string(typeid(e).name()) + ": " + e.what();
    }
    return "accepted";
}

TEST_F(CrossValidationTest, BestLambdaKeepsTheSweepsValidationErrors) {
    const Measurement_series data =
        forward_measurements(*kernel_, [](double) { return 2.0; });
    const Vector grid = default_lambda_grid(5);
    Vector negative = grid;
    negative[3] = -1e-3;
    Measurement_series two_points;
    two_points.times = {0.0, 90.0};
    two_points.values = {1.0, 2.0};
    two_points.sigmas = {0.1, 0.1};
    Measurement_series short_series = data;
    short_series.times.pop_back();
    short_series.values.pop_back();
    short_series.sigmas.pop_back();

    struct Case {
        const char* what;
        const Measurement_series& series;
        Vector grid;
        std::size_t folds;
    };
    const std::vector<Case> cases = {{"empty grid", data, Vector{}, 5},
                                     {"one fold", data, grid, 1},
                                     {"two measurements", two_points, grid, 5},
                                     {"negative lambda", data, negative, 5},
                                     {"wrong series length", short_series, grid, 5}};
    const Deconvolution_options options;
    for (const Case& c : cases) {
        const std::string sweep = rejection([&] {
            select_lambda_kfold(*deconvolver_, c.series, options, c.grid, c.folds);
        });
        EXPECT_NE(sweep.find("invalid_argument"), std::string::npos) << c.what << ": " << sweep;
        EXPECT_EQ(rejection([&] {
                      best_lambda_kfold(*deconvolver_, c.series, options, c.grid, c.folds);
                  }),
                  sweep)
            << c.what;
    }
}

// ---------------------------------------------------------------------
// best_kfold_index on fold-score tables no QP produces.
// ---------------------------------------------------------------------

/// A table entry that makes its fold's fit throw.
constexpr double fails = -1.0;
constexpr double inf = std::numeric_limits<double>::infinity();
const double nan = std::numeric_limits<double>::quiet_NaN();

using Fold_table = std::vector<Vector>;  // one row of per-fold errors per grid point

/// The pick select_lambda_kfold makes from the same table: each row summed
/// over its folds in order and divided by m (+inf when a fold fails),
/// then std::min_element.
std::size_t min_element_pick(const Fold_table& table, std::size_t m) {
    Vector scores;
    for (const Vector& row : table) {
        double running = 0.0;
        bool failed = false;
        for (const double error : row) {
            if (error == fails) {
                failed = true;
                break;
            }
            running += error;
        }
        scores.push_back(failed ? inf : running / static_cast<double>(m));
    }
    return static_cast<std::size_t>(std::min_element(scores.begin(), scores.end()) -
                                    scores.begin());
}

/// best_kfold_index on the table; `calls` counts the folds it scored.
std::size_t rule_pick(const Fold_table& table, std::size_t m, std::size_t* calls = nullptr) {
    return best_kfold_index(table.size(), table.front().size(), m,
                            [&](std::size_t point, std::size_t fold, double running) {
                                if (calls != nullptr) ++*calls;
                                const double error = table[point][fold];
                                if (error == fails) throw std::runtime_error("fit failed");
                                return running + error;
                            });
}

/// 15 points of 5 folds, every row scoring 1 per fold.
Fold_table flat_table() { return Fold_table(15, Vector(5, 1.0)); }

TEST(BestKfoldIndex, TiesGoToTheLowerIndex) {
    // Point 7 is scored before points 6 and 3, with the same score.
    Fold_table table = flat_table();
    for (const std::size_t point : {3u, 6u, 7u, 9u}) table[point] = {0.5, 0.5, 0.5, 0.5, 0.5};
    EXPECT_EQ(min_element_pick(table, 13), 3u);
    EXPECT_EQ(rule_pick(table, 13), 3u);

    // Point 6 reaches point 7's full score after its first fold, and its
    // other folds add nothing: it is not dropped, and wins the tie.
    table = flat_table();
    table[6] = {2.0, 0.0, 0.0, 0.0, 0.0};
    table[7] = {2.0, 0.0, 0.0, 0.0, 0.0};
    EXPECT_EQ(min_element_pick(table, 13), 6u);
    EXPECT_EQ(rule_pick(table, 13), 6u);
}

TEST(BestKfoldIndex, ComparesDividedScoresNotSums) {
    // Point 6's sum is one ulp above point 7's, but both divide by 13 to
    // the same score, so std::min_element picks the lower index.
    const double best_sum = 1.626953125;  // (best_sum / 13) * 13 == best_sum, too
    const double larger_sum = std::nextafter(best_sum, 2.0);
    ASSERT_GT(larger_sum, best_sum);
    ASSERT_EQ(larger_sum / 13.0, best_sum / 13.0);
    Fold_table table = flat_table();
    table[6] = {larger_sum, 0.0, 0.0, 0.0, 0.0};
    table[7] = {best_sum, 0.0, 0.0, 0.0, 0.0};
    EXPECT_EQ(min_element_pick(table, 13), 6u);
    EXPECT_EQ(rule_pick(table, 13), 6u);
}

TEST(BestKfoldIndex, FailedAndInfiniteRowsNeverWin) {
    Fold_table table = flat_table();
    table[0] = {0.1, 0.1, fails, 0.1, 0.1};  // fails after two cheap folds
    table[7] = {fails, 0.0, 0.0, 0.0, 0.0};
    table[6] = {0.0, inf, 0.0, 0.0, 0.0};
    table[12] = {0.9, 0.9, 0.9, 0.9, 0.9};
    EXPECT_EQ(min_element_pick(table, 13), 12u);
    EXPECT_EQ(rule_pick(table, 13), 12u);

    // Every fit fails: every score is +inf and point 0 is kept.
    const Fold_table failing(15, Vector(5, fails));
    EXPECT_EQ(min_element_pick(failing, 13), 0u);
    EXPECT_EQ(rule_pick(failing, 13), 0u);

    // A row dropped by the bound is not picked though a later fold fails.
    table = flat_table();
    table[5] = {0.2, 0.2, 0.2, 0.2, 0.2};
    table[9] = {9.0, fails, 0.0, 0.0, 0.0};
    EXPECT_EQ(rule_pick(table, 13), 5u);
}

TEST(BestKfoldIndex, NanWinsOnlyAtIndexZero) {
    // std::min_element keeps a NaN first element, so point 0 is returned
    // after its own folds, without scoring any other point.
    Fold_table table = flat_table();
    table[0] = {0.5, nan, 0.5, 0.5, 0.5};
    table[7] = {0.1, 0.1, 0.1, 0.1, 0.1};
    EXPECT_EQ(min_element_pick(table, 13), 0u);
    std::size_t calls = 0;
    EXPECT_EQ(rule_pick(table, 13, &calls), 0u);
    EXPECT_EQ(calls, 5u);

    // Elsewhere NaN never wins, and it does not stop a lower score.
    table = flat_table();
    table[7] = {nan, 0.0, 0.0, 0.0, 0.0};
    table[8] = {0.1, 0.1, nan, 0.1, 0.1};
    table[11] = {0.3, 0.3, 0.3, 0.3, 0.3};
    EXPECT_EQ(min_element_pick(table, 13), 11u);
    EXPECT_EQ(rule_pick(table, 13), 11u);
}

TEST(BestKfoldIndex, ScoresEachPointsFoldsInOrderOnOneRunningSum) {
    Rng rng(5);
    Fold_table table(15, Vector(5));
    for (Vector& row : table) {
        for (double& error : row) error = rng.uniform(0.0, 1.0);
    }
    std::vector<std::size_t> next_fold(table.size(), 0);
    Vector last_sum(table.size(), 0.0);
    const std::size_t pick = best_kfold_index(
        table.size(), 5, 13, [&](std::size_t point, std::size_t fold, double running) {
            EXPECT_EQ(fold, next_fold[point]) << "point " << point;
            EXPECT_EQ(running, last_sum[point]) << "point " << point << " fold " << fold;
            next_fold[point] = fold + 1;
            last_sum[point] = running + table[point][fold];
            return last_sum[point];
        });
    EXPECT_EQ(pick, min_element_pick(table, 13));
    EXPECT_EQ(next_fold[0], 5u);  // point 0 runs in full
}

TEST(BestKfoldIndex, ScoresPointZeroThenOutwardFromTheCentre) {
    const auto visit_order = [](std::size_t points) {
        std::vector<std::size_t> order;
        best_kfold_index(points, 2, 13, [&](std::size_t point, std::size_t fold, double running) {
            if (fold == 0) order.push_back(point);
            return running;  // every score is 0: nothing is dropped
        });
        return order;
    };
    EXPECT_EQ(visit_order(15),
              (std::vector<std::size_t>{0, 7, 6, 8, 5, 9, 4, 10, 3, 11, 2, 12, 1, 13, 14}));
    EXPECT_EQ(visit_order(7), (std::vector<std::size_t>{0, 3, 2, 4, 1, 5, 6}));
    EXPECT_EQ(visit_order(2), (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(visit_order(1), (std::vector<std::size_t>{0}));
    EXPECT_THROW(best_kfold_index(0, 5, 13, [](std::size_t, std::size_t, double r) { return r; }),
                 std::invalid_argument);
}

TEST(BestKfoldIndex, AgreesWithMinElementOnRandomTables) {
    // Few distinct values make ties and exact bound hits common.
    Rng rng(11);
    const Vector values = {0.0, 0.25, 0.5, 1.0, 1.0, 2.0, inf, nan, fails};
    std::size_t dropped_tables = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        const std::size_t points = 1 + rng.index(15);
        const std::size_t folds = 1 + rng.index(6);
        const std::size_t m = 3 + rng.index(11);
        // NaN, +inf and failed folds in a quarter of the tables.
        const std::size_t choices = trial % 4 == 0 ? values.size() : 6;
        Fold_table table(points, Vector(folds));
        for (Vector& row : table) {
            for (double& error : row) error = values[rng.index(choices)];
        }
        std::size_t calls = 0;
        ASSERT_EQ(rule_pick(table, m, &calls), min_element_pick(table, m))
            << "trial " << trial;
        if (calls < points * folds) ++dropped_tables;
    }
    EXPECT_GT(dropped_tables, 1000u);
}

}  // namespace
}  // namespace cellsync

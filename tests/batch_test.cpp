#include "core/batch.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "biology/gene_profiles.h"
#include "core/forward_model.h"
#include "core/telemetry.h"
#include "spline/spline_basis.h"

namespace cellsync {
namespace {

class BatchTest : public ::testing::Test {
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

Kernel_grid* BatchTest::kernel_ = nullptr;
Deconvolver* BatchTest::deconvolver_ = nullptr;

std::vector<Measurement_series> gene_panel(const Kernel_grid& kernel) {
    // Genes peaking at different cycle points, like the paper's regulator
    // panel.
    std::vector<Gene_profile> profiles = {
        pulse_profile(0.5, 5.0, 0.25, 0.15),
        pulse_profile(0.5, 5.0, 0.55, 0.15),
        pulse_profile(0.5, 5.0, 0.80, 0.15),
    };
    profiles[0].name = "early-gene";
    profiles[1].name = "mid-gene";
    profiles[2].name = "late-gene";
    std::vector<Measurement_series> panel;
    Rng rng(7);
    for (const Gene_profile& p : profiles) {
        panel.push_back(forward_measurements_noisy(
            kernel, p.f, {Noise_type::relative_gaussian, 0.05}, rng, p.name));
    }
    return panel;
}

/// The panel through deconvolve_one, one series after another, with the
/// options normalized against the design as the experiment runner does.
std::vector<Batch_entry> deconvolve_each(const Deconvolver& deconvolver,
                                         const std::vector<Measurement_series>& panel,
                                         const Batch_options& options) {
    const Batch_options resolved = resolve_batch_options(*deconvolver.artifacts(), options);
    std::vector<Batch_entry> out;
    for (const Measurement_series& series : panel) {
        out.push_back(deconvolve_one(deconvolver, series, resolved.lambda_grid, resolved));
    }
    return out;
}

TEST_F(BatchTest, AllGenesEstimated) {
    Batch_options options;
    options.lambda_grid = default_lambda_grid(9, 1e-6, 1e0);
    options.cv_folds = 4;
    const std::vector<Batch_entry> batch =
        deconvolve_each(*deconvolver_, gene_panel(*kernel_), options);
    ASSERT_EQ(batch.size(), 3u);
    for (const Batch_entry& entry : batch) {
        EXPECT_TRUE(entry.estimate.has_value()) << entry.label << ": " << entry.error;
        EXPECT_TRUE(entry.error.empty());
        EXPECT_GT(entry.lambda, 0.0);
    }
}

TEST_F(BatchTest, PeakOrderingRecoversTranscriptionalProgram) {
    Batch_options options;
    options.lambda_grid = default_lambda_grid(9, 1e-6, 1e0);
    options.cv_folds = 4;
    const std::vector<Batch_entry> batch =
        deconvolve_each(*deconvolver_, gene_panel(*kernel_), options);
    const std::vector<Peak_summary> peaks = peak_ordering(batch);
    ASSERT_EQ(peaks.size(), 3u);
    EXPECT_EQ(peaks[0].label, "early-gene");
    EXPECT_EQ(peaks[1].label, "mid-gene");
    EXPECT_EQ(peaks[2].label, "late-gene");
    EXPECT_NEAR(peaks[0].peak_phi, 0.25, 0.10);
    EXPECT_NEAR(peaks[1].peak_phi, 0.55, 0.10);
    EXPECT_NEAR(peaks[2].peak_phi, 0.80, 0.10);
}

TEST_F(BatchTest, FailedGeneReportedNotThrown) {
    std::vector<Measurement_series> panel = gene_panel(*kernel_);
    // Corrupt one gene: wrong time grid.
    panel[1].times[3] += 1.0;
    Batch_options options;
    options.select_lambda = false;
    options.deconvolution.lambda = 1e-3;
    const std::vector<Batch_entry> batch = deconvolve_each(*deconvolver_, panel, options);
    EXPECT_TRUE(batch[0].estimate.has_value());
    EXPECT_FALSE(batch[1].estimate.has_value());
    // The error channel names the gene and the exception type.
    EXPECT_NE(batch[1].error.find("gene 'mid-gene'"), std::string::npos) << batch[1].error;
    EXPECT_NE(batch[1].error.find("invalid_argument"), std::string::npos) << batch[1].error;
    EXPECT_TRUE(batch[2].estimate.has_value());
    // peak_ordering silently skips the failure.
    EXPECT_EQ(peak_ordering(batch).size(), 2u);
}

TEST_F(BatchTest, FixedLambdaPath) {
    Batch_options options;
    options.select_lambda = false;
    options.deconvolution.lambda = 2.5e-4;
    const std::vector<Batch_entry> batch =
        deconvolve_each(*deconvolver_, gene_panel(*kernel_), options);
    for (const Batch_entry& entry : batch) {
        EXPECT_DOUBLE_EQ(entry.lambda, 2.5e-4);
    }
}

TEST_F(BatchTest, ResolveBatchOptionsFillsGridAndLeavesGeometryToTheDesign) {
    // resolve_batch_options only fills the grid: the constraint geometry
    // passes through, so default options on a design built for another
    // geometry are reported per gene, not silently solved under either.
    Constraint_options geometry;
    geometry.rate_continuity = false;
    geometry.positivity_points = 61;
    const Deconvolver deconvolver(make_design_artifacts(
        std::make_shared<Natural_spline_basis>(12), *kernel_, Cell_cycle_config{}, geometry));

    Batch_options options;  // default constraint options, empty grid
    options.select_lambda = false;
    options.deconvolution.lambda = 1e-3;
    const Batch_options resolved = resolve_batch_options(*deconvolver.artifacts(), options);
    EXPECT_TRUE(resolved.deconvolution.constraints == Constraint_options{});
    EXPECT_EQ(resolved.lambda_grid, default_lambda_grid());
    // Everything else passes through.
    EXPECT_EQ(resolved.deconvolution.lambda, 1e-3);
    EXPECT_FALSE(resolved.select_lambda);
    EXPECT_EQ(resolved.cv_folds, options.cv_folds);
    EXPECT_EQ(resolved.cv_seed, options.cv_seed);

    // An explicit grid is kept as given.
    options.lambda_grid = default_lambda_grid(5, 1e-5, 1e-1);
    EXPECT_EQ(resolve_batch_options(*deconvolver.artifacts(), options).lambda_grid,
              options.lambda_grid);

    const Measurement_series series = gene_panel(*kernel_)[0];
    const Batch_entry entry =
        deconvolve_one(deconvolver, series, resolved.lambda_grid, resolved);
    EXPECT_FALSE(entry.estimate.has_value());
    EXPECT_NE(entry.error.find("gene 'early-gene' [std::invalid_argument]: Deconvolver: "
                               "constraint geometry {positivity on 101 points, conservation, "
                               "rate continuity} differs from the design's {positivity on 61 "
                               "points, conservation}"),
              std::string::npos)
        << entry.error;
}

TEST_F(BatchTest, SolveUnderAnotherGeometryIsRejectedBeforeAnyFit) {
    // A design fixes its constraint geometry: a solve whose options name
    // another one throws, naming both, and no QP runs. Both directions:
    // default options on a rebuilt-geometry design, and the reverse.
    Constraint_options other;
    other.rate_continuity = false;
    other.positivity_points = 41;
    const Deconvolver other_design(make_design_artifacts(
        std::make_shared<Natural_spline_basis>(12), *kernel_, Cell_cycle_config{}, other));
    Deconvolution_options on_default;
    on_default.lambda = 1e-3;
    Deconvolution_options on_other = on_default;
    on_other.constraints = other;
    const std::string default_text = "{positivity on 101 points, conservation, rate continuity}";
    const std::string other_text = "{positivity on 41 points, conservation}";

    const Measurement_series series = gene_panel(*kernel_)[0];
    const Vector grid = default_lambda_grid(5, 1e-5, 1e-1);
    std::vector<std::size_t> rows(series.size());
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    const Vector w = series.weights();
    const Matrix ktwk = weighted_gram(deconvolver_->kernel_matrix(), w);
    const Vector ktwg =
        transposed_times(deconvolver_->kernel_matrix(), hadamard(w, series.values));
    const telemetry::Counter& solves = telemetry::counter("qp.active_set.solves");

    struct Mismatch {
        const Deconvolver& deconvolver;
        const Deconvolution_options& options;
        std::string asked, built;
    };
    for (const Mismatch& c : {Mismatch{*deconvolver_, on_other, other_text, default_text},
                              Mismatch{other_design, on_default, default_text, other_text}}) {
        const Deconvolver& d = c.deconvolver;
        const std::vector<std::pair<const char*, std::function<void()>>> calls = {
            {"estimate", [&] { d.estimate(series, c.options); }},
            {"estimate_on_rows", [&] { d.estimate_on_rows(series, rows, c.options); }},
            {"solve_blocks", [&] { d.solve_blocks(ktwk, ktwg, c.options); }},
            {"select_lambda_kfold", [&] { select_lambda_kfold(d, series, c.options, grid); }},
            {"best_lambda_kfold", [&] { best_lambda_kfold(d, series, c.options, grid); }},
        };
        const std::uint64_t solves_before = solves.value();
        for (const auto& [name, call] : calls) {
            try {
                call();
                ADD_FAILURE() << name << " solved under " << c.asked << " on a design built for "
                              << c.built;
            } catch (const std::invalid_argument& e) {
                const std::string what = e.what();
                EXPECT_NE(what.find("constraint geometry " + c.asked), std::string::npos)
                    << name << ": " << what;
                EXPECT_NE(what.find("the design's " + c.built), std::string::npos)
                    << name << ": " << what;
            }
        }
        EXPECT_EQ(solves.value(), solves_before) << "a QP ran before the rejection";

        // deconvolve_one reports it as the gene's labeled error, with or
        // without lambda selection.
        for (const bool select_lambda : {true, false}) {
            Batch_options options;
            options.deconvolution = c.options;
            options.select_lambda = select_lambda;
            const Batch_entry entry = deconvolve_one(d, series, grid, options);
            EXPECT_FALSE(entry.estimate.has_value());
            EXPECT_NE(entry.error.find("gene 'early-gene' [std::invalid_argument]: "
                                       "Deconvolver: constraint geometry " +
                                       c.asked),
                      std::string::npos)
                << entry.error;
        }
    }

    // Geometries equal under Constraint_options::operator== are one
    // geometry: with positivity off, positivity_points is not part of it.
    Constraint_options free;
    free.positivity = false;
    free.conservation = false;
    free.rate_continuity = false;
    const Deconvolver free_design(make_design_artifacts(
        std::make_shared<Natural_spline_basis>(12), *kernel_, Cell_cycle_config{}, free));
    Deconvolution_options on_free = on_default;
    on_free.constraints = free;
    Deconvolution_options on_free_other_points = on_free;
    on_free_other_points.constraints.positivity_points = 41;
    EXPECT_EQ(free_design.estimate(series, on_free_other_points).coefficients(),
              free_design.estimate(series, on_free).coefficients());
}

TEST(PeakOrdering, GridValidation) {
    EXPECT_THROW(peak_ordering({}, 2), std::invalid_argument);
    EXPECT_TRUE(peak_ordering({}, 11).empty());
}

}  // namespace
}  // namespace cellsync

// End-to-end: a 3-condition synthetic experiment through the experiment
// runner — kernels via the cache, per-gene solves as pool batches on a
// shared design per kernel, warm-started lambda selection, profile
// synchrony scores, per-gene failure isolation, a failed kernel ending
// the run, and cold/warm and thread-count determinism of the whole run.
#include "core/experiment_runner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "biology/gene_profiles.h"
#include "core/forward_model.h"
#include "core/telemetry.h"
#include "numerics/statistics.h"
#include "spline/spline_basis.h"

namespace cellsync {
namespace {

Kernel_build_options small_kernel() {
    Kernel_build_options o;
    o.n_bins = 80;
    return o;
}

Cell_cycle_config fast_config() {
    Cell_cycle_config c;
    c.mean_cycle_minutes = 120.0;
    return c;
}

/// Noiseless panel for one condition: a cycle-regulated gene, a sinusoid,
/// and a constitutive (flat) gene, pushed through the condition's kernel.
std::vector<Measurement_series> make_panel(const Cell_cycle_config& config,
                                           const Vector& times) {
    const Kernel_grid kernel =
        build_kernel(config, Smooth_volume_model{}, times, small_kernel());
    return {
        forward_measurements(kernel, ftsz_like_profile().f, "ftsZ-like"),
        forward_measurements(kernel, sinusoid_profile(3.0, 2.0).f, "sinusoid"),
        forward_measurements(kernel, constant_profile(4.0).f, "flat"),
    };
}

Experiment_spec make_spec() {
    const Vector times = linspace(0.0, 150.0, 11);
    Experiment_spec spec;
    spec.kernel = small_kernel();
    spec.basis_size = 14;
    spec.batch.lambda_grid = default_lambda_grid(7, 1e-6, 1e-1);
    spec.threads = 2;

    Experiment_condition wildtype;
    wildtype.name = "wildtype";
    wildtype.panel = make_panel(wildtype.cell_cycle, times);

    Experiment_condition fast;
    fast.name = "fast";
    fast.cell_cycle = fast_config();
    fast.panel = make_panel(fast.cell_cycle, times);

    // Same biology as wildtype (kernel must come from the cache, not a
    // third build), fresh data realization is unnecessary: reuse.
    Experiment_condition repeat = wildtype;
    repeat.name = "repeat";

    spec.conditions = {wildtype, fast, repeat};
    return spec;
}

TEST(ExperimentRunner, ThreeConditionExperimentEndToEnd) {
    const Experiment_spec spec = make_spec();
    Kernel_cache cache;
    const Experiment_result result = run_experiment(spec, Smooth_volume_model{}, cache);

    ASSERT_EQ(result.conditions.size(), 3u);
    for (const Condition_result& condition : result.conditions) {
        ASSERT_EQ(condition.genes.size(), 3u);
        for (const Batch_entry& gene : condition.genes) {
            EXPECT_TRUE(gene.estimate.has_value()) << condition.name << ": " << gene.error;
        }
        EXPECT_EQ(condition.synchrony.size(), 3u);
    }

    // Two distinct kernels; the third condition reuses the first's.
    EXPECT_EQ(result.cache_stats.builds, 2u);
    EXPECT_EQ(result.cache_stats.memory_hits, 1u);

    // Recovery of the cycle-regulated truth from noiseless data.
    const Gene_profile truth = ftsz_like_profile();
    const Vector grid = linspace(0.04, 0.96, 47);
    const Single_cell_estimate& ftsz = *result.conditions[0].genes[0].estimate;
    Vector recovered(grid.size()), expected(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        recovered[i] = ftsz(grid[i]);
        expected[i] = truth(grid[i]);
    }
    EXPECT_GT(pearson_correlation(recovered, expected), 0.95);

    // Synchrony scores separate regulated from constitutive expression.
    const Condition_result& wildtype = result.conditions[0];
    const Gene_synchrony& ftsz_scores = wildtype.synchrony[0];
    const Gene_synchrony& flat_scores = wildtype.synchrony[2];
    EXPECT_EQ(ftsz_scores.label, "ftsZ-like");
    EXPECT_EQ(flat_scores.label, "flat");
    EXPECT_GT(ftsz_scores.order_parameter, flat_scores.order_parameter);
    EXPECT_LT(ftsz_scores.entropy, flat_scores.entropy);
    EXPECT_GT(flat_scores.entropy, 0.9);
    EXPECT_NEAR(ftsz_scores.peak_phi, 0.40, 0.10);
    EXPECT_GT(wildtype.mean_order_parameter, 0.0);
    EXPECT_GT(wildtype.mean_entropy, 0.0);
}

TEST(ExperimentRunner, WarmStartKeepsLambdaNearPreviousCondition) {
    const Experiment_spec spec = make_spec();
    const Experiment_result result = run_experiment(spec, Smooth_volume_model{});
    for (std::size_t g = 0; g < 3; ++g) {
        const Batch_entry& before = result.conditions[0].genes[g];
        const Batch_entry& after = result.conditions[1].genes[g];
        ASSERT_TRUE(before.estimate.has_value());
        ASSERT_TRUE(after.estimate.has_value());
        // The narrowed grid spans +/- warm_grid_decades around the
        // previous selection.
        const double decades =
            std::abs(std::log10(after.lambda) - std::log10(before.lambda));
        EXPECT_LE(decades, spec.warm_grid_decades + 1e-9)
            << before.label << ": " << before.lambda << " -> " << after.lambda;
    }
}

TEST(ExperimentRunner, ColdAndWarmCacheRunsAreBitIdentical) {
    const std::string dir =
        testing::TempDir() + "cellsync_experiment_runner_cache";
    std::filesystem::remove_all(dir);
    const Experiment_spec spec = make_spec();

    Kernel_cache cold_cache(dir);
    const Experiment_result cold = run_experiment(spec, Smooth_volume_model{}, cold_cache);
    EXPECT_EQ(cold_cache.stats().builds, 2u);

    // Fresh cache instance on the same directory: every kernel must come
    // from disk, and every coefficient must match the cold run exactly.
    Kernel_cache warm_cache(dir);
    const Experiment_result warm = run_experiment(spec, Smooth_volume_model{}, warm_cache);
    EXPECT_EQ(warm_cache.stats().builds, 0u);
    EXPECT_EQ(warm_cache.stats().disk_hits, 2u);

    for (std::size_t c = 0; c < 3; ++c) {
        for (std::size_t g = 0; g < 3; ++g) {
            const Batch_entry& a = cold.conditions[c].genes[g];
            const Batch_entry& b = warm.conditions[c].genes[g];
            ASSERT_TRUE(a.estimate.has_value());
            ASSERT_TRUE(b.estimate.has_value());
            EXPECT_EQ(a.lambda, b.lambda);
            const Vector& ca = a.estimate->coefficients();
            const Vector& cb = b.estimate->coefficients();
            ASSERT_EQ(ca.size(), cb.size());
            for (std::size_t i = 0; i < ca.size(); ++i) {
                EXPECT_EQ(ca[i], cb[i])
                    << "condition " << c << " gene " << g << " coefficient " << i;
            }
        }
    }
    std::filesystem::remove_all(dir);
}

void expect_bit_identical_genes(const Experiment_result& a, const Experiment_result& b) {
    ASSERT_EQ(a.conditions.size(), b.conditions.size());
    for (std::size_t c = 0; c < a.conditions.size(); ++c) {
        ASSERT_EQ(a.conditions[c].genes.size(), b.conditions[c].genes.size());
        for (std::size_t g = 0; g < a.conditions[c].genes.size(); ++g) {
            const Batch_entry& x = a.conditions[c].genes[g];
            const Batch_entry& y = b.conditions[c].genes[g];
            ASSERT_EQ(x.label, y.label);
            EXPECT_EQ(x.error, y.error) << x.label;
            ASSERT_EQ(x.estimate.has_value(), y.estimate.has_value()) << x.error << y.error;
            if (!x.estimate.has_value()) continue;
            EXPECT_EQ(x.lambda, y.lambda) << x.label;
            const Vector& cx = x.estimate->coefficients();
            const Vector& cy = y.estimate->coefficients();
            ASSERT_EQ(cx.size(), cy.size());
            for (std::size_t i = 0; i < cx.size(); ++i) {
                EXPECT_EQ(cx[i], cy[i])
                    << "condition " << c << " gene " << x.label << " coefficient " << i;
            }
        }
    }
}

TEST(ExperimentRunner, RunIsThreadCountInvariant) {
    // The runner resolves kernels, builds designs and solves genes on the
    // pool; none of that may show in the results. Per-gene lambdas and
    // coefficients, the cache counters, and the synchrony scores at 2 and
    // 4 threads match the one-thread run exactly.
    Experiment_spec spec = make_spec();
    spec.threads = 1;
    Kernel_cache one_thread_cache;
    const Experiment_result one_thread =
        run_experiment(spec, Smooth_volume_model{}, one_thread_cache);

    for (const std::size_t threads : {2u, 4u}) {
        spec.threads = threads;
        Kernel_cache cache;
        const Experiment_result result = run_experiment(spec, Smooth_volume_model{}, cache);

        expect_bit_identical_genes(one_thread, result);
        EXPECT_EQ(result.cache_stats.builds, one_thread.cache_stats.builds);
        EXPECT_EQ(result.cache_stats.memory_hits, one_thread.cache_stats.memory_hits);
        EXPECT_EQ(result.cache_stats.disk_hits, one_thread.cache_stats.disk_hits);
        for (std::size_t c = 0; c < one_thread.conditions.size(); ++c) {
            const Condition_result& x = one_thread.conditions[c];
            const Condition_result& y = result.conditions[c];
            EXPECT_EQ(y.name, x.name);
            ASSERT_EQ(y.synchrony.size(), x.synchrony.size());
            for (std::size_t g = 0; g < x.synchrony.size(); ++g) {
                EXPECT_EQ(y.synchrony[g].label, x.synchrony[g].label);
                EXPECT_EQ(y.synchrony[g].order_parameter, x.synchrony[g].order_parameter);
                EXPECT_EQ(y.synchrony[g].entropy, x.synchrony[g].entropy);
                EXPECT_EQ(y.synchrony[g].peak_phi, x.synchrony[g].peak_phi);
            }
            EXPECT_EQ(y.mean_order_parameter, x.mean_order_parameter);
            EXPECT_EQ(y.mean_entropy, x.mean_entropy);
        }
    }
}

TEST(ExperimentRunner, ProfilesAndScoresComeFromTheOutputGrid) {
    // Each gene's solve task samples its profile on the 201-point output
    // grid and scores it there: bit for bit the basis design matrix on
    // that grid times the coefficients, and score_profile of that
    // product, at 1 and 4 threads. A failed gene has an empty profile and
    // no score.
    Experiment_spec spec = make_spec();
    spec.conditions[0].panel[1].values[4] = 1.7e308;  // its QP optimum overflows
    const Vector phi = linspace(0.0, 1.0, 201);
    ASSERT_EQ(experiment_output_phi(), phi);
    for (const std::size_t threads : {1u, 4u}) {
        spec.threads = threads;
        const Experiment_result result = run_experiment(spec, Smooth_volume_model{});
        std::size_t failed = 0;
        for (const Condition_result& condition : result.conditions) {
            ASSERT_EQ(condition.profiles.size(), condition.genes.size());
            auto scores = condition.synchrony.begin();
            for (std::size_t g = 0; g < condition.genes.size(); ++g) {
                const Batch_entry& gene = condition.genes[g];
                if (!gene.estimate.has_value()) {
                    ++failed;
                    EXPECT_TRUE(condition.profiles[g].empty()) << gene.label;
                    continue;
                }
                const Vector expected =
                    gene.estimate->basis().design_matrix(phi) * gene.estimate->coefficients();
                EXPECT_EQ(condition.profiles[g], expected) << gene.label;
                EXPECT_EQ(condition.profiles[g], gene.estimate->sample(phi)) << gene.label;
                const Profile_scores score = score_profile(phi, expected);
                ASSERT_NE(scores, condition.synchrony.end()) << gene.label;
                EXPECT_EQ(scores->label, gene.label);
                EXPECT_EQ(scores->order_parameter, score.order_parameter) << gene.label;
                EXPECT_EQ(scores->entropy, score.entropy) << gene.label;
                EXPECT_EQ(scores->peak_phi, score.peak_phi) << gene.label;
                ++scores;
            }
            EXPECT_EQ(scores, condition.synchrony.end());
        }
        EXPECT_EQ(failed, 1u);
    }
}

TEST(ExperimentRunner, RunsOnTheCallersPool) {
    // The overload taking a Worker_pool runs every batch on it (the
    // pool's parallelism, not spec.threads) with the same results, and
    // leaves the pool usable for the caller's next batch.
    Experiment_spec spec = make_spec();
    spec.threads = 1;
    const Experiment_result reference = run_experiment(spec, Smooth_volume_model{});
    Worker_pool pool(3);
    Kernel_cache cache;
    for (int run = 0; run < 2; ++run) {
        const Experiment_result result =
            run_experiment(spec, Smooth_volume_model{}, cache, pool);
        expect_bit_identical_genes(result, reference);
        for (std::size_t c = 0; c < reference.conditions.size(); ++c) {
            EXPECT_EQ(result.conditions[c].profiles, reference.conditions[c].profiles);
            EXPECT_EQ(result.conditions[c].mean_order_parameter,
                      reference.conditions[c].mean_order_parameter);
        }
    }
    std::vector<std::size_t> seen(8, 0);
    pool.parallel_for("after", seen.size(), [&](std::size_t i) { seen[i] = i + 1; });
    EXPECT_EQ(seen, (std::vector<std::size_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

/// Sequential reference for run_experiment, built from public calls only
/// (the calls e2ebench's replay makes): conditions one after another on
/// this thread, a fresh design per condition, each gene through
/// deconvolve_one on its warm-started or full lambda grid. Fills only
/// the per-condition gene entries.
Experiment_result reference_loop(const Experiment_spec& spec, const Volume_model& volume_model) {
    Kernel_cache cache;
    std::map<std::string, double> previous_lambda;
    Experiment_result out;
    for (std::size_t c = 0; c < spec.conditions.size(); ++c) {
        const Experiment_condition& condition = spec.conditions[c];
        const std::shared_ptr<const Kernel_grid> kernel = cache.get_or_build(
            condition.cell_cycle, volume_model, condition.panel.front().times, spec.kernel);
        const std::shared_ptr<const Design_artifacts> design = make_design_artifacts(
            std::make_shared<Natural_spline_basis>(spec.basis_size), *kernel,
            condition.cell_cycle, spec.batch.deconvolution.constraints);
        const Deconvolver deconvolver(design);
        const Batch_options resolved = resolve_batch_options(*design, spec.batch);

        std::vector<Batch_entry> genes;
        for (const Measurement_series& series : condition.panel) {
            Vector grid = resolved.lambda_grid;
            const auto previous = previous_lambda.find(series.label);
            if (spec.batch.select_lambda && c > 0 && previous != previous_lambda.end()) {
                const double decades = Experiment_spec::warm_grid_decades;
                grid = default_lambda_grid(Experiment_spec::warm_grid_points,
                                           previous->second * std::pow(10.0, -decades),
                                           previous->second * std::pow(10.0, decades));
            }
            genes.push_back(deconvolve_one(deconvolver, series, grid, resolved));
        }
        for (const Batch_entry& entry : genes) {
            if (entry.estimate.has_value()) previous_lambda[entry.label] = entry.lambda;
        }
        out.conditions.emplace_back().genes = std::move(genes);
    }
    return out;
}

TEST(ExperimentRunner, MatchesSequentialReferenceLoop) {
    // The runner at 1 and 4 threads against an independent sequential
    // loop over the public per-gene calls.
    Experiment_spec spec = make_spec();
    const Experiment_result reference = reference_loop(spec, Smooth_volume_model{});
    for (const std::size_t threads : {1u, 4u}) {
        spec.threads = threads;
        expect_bit_identical_genes(run_experiment(spec, Smooth_volume_model{}), reference);
    }
}

TEST(ExperimentRunner, FailingGeneIsIsolated) {
    // 1.7e308 is finite, so the spec validates, but the gene's QP optimum
    // overflows and its solve throws. Only that gene may fail.
    const Experiment_spec clean = make_spec();
    Experiment_spec poisoned = clean;
    Measurement_series& victim = poisoned.conditions[0].panel[1];
    ASSERT_EQ(victim.label, "sinusoid");
    victim.values[4] = 1.7e308;

    poisoned.threads = 1;
    const Experiment_result one_thread = run_experiment(poisoned, Smooth_volume_model{});
    poisoned.threads = 4;
    const Experiment_result four_threads = run_experiment(poisoned, Smooth_volume_model{});
    const Experiment_result reference_run = run_experiment(clean, Smooth_volume_model{});

    const Batch_entry& failed = one_thread.conditions[0].genes[1];
    ASSERT_FALSE(failed.estimate.has_value());
    EXPECT_NE(failed.error.find("gene 'sinusoid'"), std::string::npos) << failed.error;
    EXPECT_NE(failed.error.find("runtime_error"), std::string::npos) << failed.error;
    EXPECT_NE(failed.error.find("non-finite optimum"), std::string::npos) << failed.error;
    EXPECT_EQ(one_thread.conditions[0].synchrony.size(), 2u);

    // Every other gene is bit-identical to the run without the bad value.
    for (std::size_t c = 0; c < clean.conditions.size(); ++c) {
        for (std::size_t g = 0; g < clean.conditions[c].panel.size(); ++g) {
            const Batch_entry& x = one_thread.conditions[c].genes[g];
            if (x.label == "sinusoid") continue;
            const Batch_entry& y = reference_run.conditions[c].genes[g];
            ASSERT_TRUE(x.estimate.has_value()) << x.error;
            ASSERT_TRUE(y.estimate.has_value()) << y.error;
            EXPECT_EQ(x.lambda, y.lambda) << x.label;
            EXPECT_EQ(x.estimate->coefficients(), y.estimate->coefficients()) << x.label;
        }
    }

    // Threads 1 and 4 agree, failure included.
    expect_bit_identical_genes(one_thread, four_threads);

    // The failed gene has no warm start in condition 1, so it searches the
    // full lambda grid there; the reference loop does exactly that.
    ASSERT_TRUE(one_thread.conditions[1].genes[1].estimate.has_value());
    expect_bit_identical_genes(one_thread, reference_loop(poisoned, Smooth_volume_model{}));
}

/// The smooth volume model, except that it throws for a cell whose
/// transition phase lies past 0.5: only a condition with a late
/// transition fails to build its kernel.
class Late_transition_failing_volume final : public Volume_model {
  public:
    double relative_volume(double phi, double phi_sst) const override {
        check(phi_sst);
        return smooth_.relative_volume(phi, phi_sst);
    }
    double derivative(double phi, double phi_sst) const override {
        check(phi_sst);
        return smooth_.derivative(phi, phi_sst);
    }
    std::string name() const override { return "late-transition-failing"; }

  private:
    static void check(double phi_sst) {
        if (phi_sst > 0.5) throw std::domain_error("late transition phase rejected");
    }
    Smooth_volume_model smooth_;
};

TEST(ExperimentRunner, FailedKernelEndsTheRunBeforeAnySolve) {
    // The second condition's kernel throws. run_experiment rethrows that
    // error, type and message, and solves no gene, not even the first
    // condition's, whose kernel is fine.
    Experiment_spec spec = make_spec();
    Experiment_condition late = spec.conditions[0];
    late.name = "late";
    late.cell_cycle.mu_sst = 0.6;
    late.cell_cycle.cv_sst = 0.01;
    spec.conditions = {spec.conditions[0], late};

    const telemetry::Counter& genes_done = telemetry::counter("experiment.genes_done");
    for (const std::size_t threads : {1u, 4u}) {
        spec.threads = threads;
        const std::uint64_t before = genes_done.value();
        try {
            run_experiment(spec, Late_transition_failing_volume{});
            ADD_FAILURE() << "expected std::domain_error with " << threads << " threads";
        } catch (const std::domain_error& e) {
            EXPECT_STREQ(e.what(), "late transition phase rejected");
        }
        EXPECT_EQ(genes_done.value(), before) << threads << " threads";
    }
}

TEST(ExperimentRunner, CacheStatsArePerRunDeltas) {
    // A long-lived cache reused across runs must not leak earlier runs'
    // counters into a later result (the old documented quirk): the second
    // run of the same spec is served entirely from memory and must say
    // so — zero builds, three memory hits — not report cumulative totals.
    const Experiment_spec spec = make_spec();
    Kernel_cache cache;
    const Experiment_result first = run_experiment(spec, Smooth_volume_model{}, cache);
    EXPECT_EQ(first.cache_stats.builds, 2u);
    EXPECT_EQ(first.cache_stats.memory_hits, 1u);

    const Experiment_result second = run_experiment(spec, Smooth_volume_model{}, cache);
    EXPECT_EQ(second.cache_stats.builds, 0u);
    EXPECT_EQ(second.cache_stats.disk_hits, 0u);
    EXPECT_EQ(second.cache_stats.memory_hits, 3u);
    expect_bit_identical_genes(first, second);
}

TEST(ExperimentRunner, ValidationErrors) {
    const Smooth_volume_model vm;
    Experiment_spec empty;
    EXPECT_THROW(run_experiment(empty, vm), std::invalid_argument);

    Experiment_spec bad_panel;
    bad_panel.conditions.resize(1);
    bad_panel.conditions[0].name = "empty";
    EXPECT_THROW(run_experiment(bad_panel, vm), std::invalid_argument);

    // Series on different time grids within one condition.
    Experiment_spec mismatched;
    mismatched.conditions.resize(1);
    Measurement_series a = Measurement_series::with_unit_sigma(
        "a", linspace(0.0, 150.0, 11), Vector(11, 1.0));
    Measurement_series b = Measurement_series::with_unit_sigma(
        "b", linspace(0.0, 120.0, 11), Vector(11, 1.0));
    mismatched.conditions[0].panel = {a, b};
    EXPECT_THROW(run_experiment(mismatched, vm), std::invalid_argument);

    // A basis above the knot cap is rejected before any kernel is built.
    Experiment_spec huge_basis;
    huge_basis.conditions.resize(1);
    huge_basis.conditions[0].panel = {a};
    huge_basis.basis_size = Natural_spline_basis::max_knots + 1;
    EXPECT_THROW(run_experiment(huge_basis, vm), std::invalid_argument);
}

TEST(ExperimentRunner, RejectionsNameAnUnnamedConditionByItsPosition) {
    const Smooth_volume_model vm;
    const Measurement_series a = Measurement_series::with_unit_sigma(
        "a", linspace(0.0, 150.0, 11), Vector(11, 1.0));
    const Measurement_series b = Measurement_series::with_unit_sigma(
        "b", linspace(0.0, 120.0, 11), Vector(11, 1.0));
    const auto message = [&](const std::vector<Measurement_series>& third_panel) {
        Experiment_spec spec;
        spec.conditions.resize(3);
        spec.conditions[0].name = "wildtype";
        spec.conditions[0].panel = {a};
        spec.conditions[1].name = "fast";
        spec.conditions[1].panel = {a};
        spec.conditions[2].panel = third_panel;  // unnamed: "condition2"
        try {
            run_experiment(spec, vm);
        } catch (const std::invalid_argument& e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    EXPECT_EQ(message({}), "run_experiment: condition 'condition2' has an empty panel");
    EXPECT_EQ(message({a, b}),
              "run_experiment: series 'b' of condition 'condition2' is not on the "
              "condition's time grid");
}

TEST(ExperimentRunner, DuplicateConditionNamesRejected) {
    const Smooth_volume_model vm;
    const Measurement_series series = Measurement_series::with_unit_sigma(
        "gene", linspace(0.0, 150.0, 11), Vector(11, 1.0));

    // Two conditions under one label would silently merge their results
    // and warm-start lambdas; the spec must be rejected before any
    // kernel is built, with an error naming the clash.
    Experiment_spec dup;
    dup.conditions.resize(2);
    dup.conditions[0].name = "wildtype";
    dup.conditions[0].panel = {series};
    dup.conditions[1].name = "wildtype";
    dup.conditions[1].panel = {series};
    try {
        run_experiment(dup, vm);
        FAIL() << "expected duplicate-name rejection";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("duplicate condition name 'wildtype'"),
                  std::string::npos)
            << e.what();
    }

    // An unnamed condition resolves to its positional label, so an
    // explicit "condition1" colliding with it is rejected too.
    Experiment_spec positional;
    positional.conditions.resize(2);
    positional.conditions[0].name = "condition1";
    positional.conditions[0].panel = {series};
    positional.conditions[1].name = "";  // resolves to "condition1"
    positional.conditions[1].panel = {series};
    EXPECT_THROW(run_experiment(positional, vm), std::invalid_argument);
}

}  // namespace
}  // namespace cellsync

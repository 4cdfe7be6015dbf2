// Performance: the end-to-end deconvolution pipeline — kernel reuse,
// single constrained solve, the full CV loop and the early-abandon search
// `run` makes, and the headline comparison:
// a 50-gene panel on one shared design (deconvolve_one per gene over a
// worker pool, as the experiment runner's solve stage runs it) versus the
// serial per-gene path that re-derives the constraint blocks, their QP
// reduction and the reduced penalty for every solve (the behavior before
// shared designs). Per-gene results of the two paths are compared
// bit-for-bit.
#include <cmath>
#include <limits>

#include "biology/gene_profiles.h"
#include "core/batch.h"
#include "core/constraints.h"
#include "core/cross_validation.h"
#include "core/forward_model.h"
#include "core/telemetry.h"
#include "core/worker_pool.h"
#include "perf_util.h"
#include "spline/spline_basis.h"

namespace {

using namespace cellsync;

struct Pipeline_fixture {
    Kernel_grid kernel;
    std::shared_ptr<Natural_spline_basis> basis;
    Deconvolver deconvolver;
    Measurement_series data;

    static Pipeline_fixture make(std::size_t basis_size) {
        Kernel_build_options options;
        options.n_bins = 200;
        Kernel_grid kernel = build_kernel(Cell_cycle_config{}, Smooth_volume_model{},
                                          linspace(0.0, 180.0, 13), options);
        auto basis = std::make_shared<Natural_spline_basis>(basis_size);
        Deconvolver deconvolver(basis, kernel, Cell_cycle_config{});
        const Gene_profile truth = ftsz_like_profile();
        Rng rng(3);
        Measurement_series data = forward_measurements_noisy(
            kernel, truth.f, {Noise_type::relative_gaussian, 0.10}, rng);
        return {std::move(kernel), std::move(basis), std::move(deconvolver), std::move(data)};
    }
};

void bm_single_estimate(benchmark::State& state) {
    const Pipeline_fixture fixture =
        Pipeline_fixture::make(static_cast<std::size_t>(state.range(0)));
    Deconvolution_options options;
    options.lambda = 1e-4;
    for (auto _ : state) {
        const Single_cell_estimate estimate = fixture.deconvolver.estimate(fixture.data, options);
        benchmark::DoNotOptimize(estimate.coefficients().data());
    }
}

void bm_unconstrained_estimate(benchmark::State& state) {
    const Pipeline_fixture fixture =
        Pipeline_fixture::make(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        const Single_cell_estimate estimate =
            fixture.deconvolver.estimate_unconstrained(fixture.data, 1e-4);
        benchmark::DoNotOptimize(estimate.coefficients().data());
    }
}

void bm_cv_lambda_selection(benchmark::State& state) {
    const Pipeline_fixture fixture = Pipeline_fixture::make(18);
    const Vector grid = default_lambda_grid(static_cast<std::size_t>(state.range(0)), 1e-6, 1e0);
    for (auto _ : state) {
        const Lambda_selection sel = select_lambda_kfold(
            fixture.deconvolver, fixture.data, Deconvolution_options{}, grid, 5);
        benchmark::DoNotOptimize(sel.best_lambda);
    }
}

// The search `run` makes on the same fixture: the sweep's pick, with the
// fits the bound rules out skipped (`fits` per call, of 5 per grid point).
void bm_best_lambda_kfold(benchmark::State& state) {
    const Pipeline_fixture fixture = Pipeline_fixture::make(18);
    const Vector grid = default_lambda_grid(static_cast<std::size_t>(state.range(0)), 1e-6, 1e0);
    const telemetry::Counter& fits = telemetry::counter("cv.fits");
    const std::uint64_t fits_before = fits.value();
    for (auto _ : state) {
        const double lambda =
            best_lambda_kfold(fixture.deconvolver, fixture.data, Deconvolution_options{}, grid, 5);
        benchmark::DoNotOptimize(lambda);
    }
    state.counters["fits"] = static_cast<double>(fits.value() - fits_before) /
                             static_cast<double>(state.iterations());
}

void bm_gcv_lambda_selection(benchmark::State& state) {
    const Pipeline_fixture fixture = Pipeline_fixture::make(18);
    const Vector grid = default_lambda_grid(static_cast<std::size_t>(state.range(0)), 1e-6, 1e0);
    for (auto _ : state) {
        const Lambda_selection sel = select_lambda_gcv(fixture.deconvolver, fixture.data, grid);
        benchmark::DoNotOptimize(sel.best_lambda);
    }
}

// ---------------------------------------------------------------------------
// 50-gene panel: serial per-gene baseline vs the shared design on a pool.
// ---------------------------------------------------------------------------

std::vector<Measurement_series> make_panel(const Kernel_grid& kernel, std::size_t genes) {
    Rng rng(91);
    std::vector<Measurement_series> panel;
    panel.reserve(genes);
    for (std::size_t g = 0; g < genes; ++g) {
        const double phase = static_cast<double>(g) / static_cast<double>(genes);
        const Gene_profile truth =
            sinusoid_profile(3.0 + 0.02 * static_cast<double>(g), 2.0, 1.0, phase);
        panel.push_back(forward_measurements_noisy(
            kernel, truth.f, {Noise_type::relative_gaussian, 0.08}, rng,
            "gene" + std::to_string(g)));
    }
    return panel;
}

/// The panel as the experiment runner's solve stage runs it: one
/// deconvolve_one task per gene on the pool, all against one design.
std::vector<Batch_entry> run_panel_pooled(const Deconvolver& deconvolver,
                                          const std::vector<Measurement_series>& panel,
                                          const Batch_options& options, Worker_pool& pool) {
    const Batch_options resolved = resolve_batch_options(*deconvolver.artifacts(), options);
    std::vector<Batch_entry> out(panel.size());
    pool.parallel_for("panel", panel.size(), [&](std::size_t g) {
        out[g] = deconvolve_one(deconvolver, panel[g], resolved.lambda_grid, resolved);
    });
    return out;
}

// The estimator before shared designs: every solve re-derives the constraint blocks
// (quadrature rows + positivity grid), the QP constraint reduction and the
// reduced penalty from scratch, as the seed implementation did, then runs the
// estimator's own arithmetic on them (blocks reduced at lambda = 0, plus
// lambda times the reduced penalty), so results must match bit for bit.
Vector cold_estimate(const Deconvolver& deconvolver, const Measurement_series& series,
                     const std::vector<std::size_t>& rows,
                     const Deconvolution_options& options) {
    const std::size_t n = deconvolver.basis().size();
    const Matrix& kernel_matrix = deconvolver.kernel_matrix();
    const Vector w_full = series.weights();

    Matrix k_sub(rows.size(), n);
    Vector g_sub(rows.size());
    Vector w_sub(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        k_sub.set_row(r, kernel_matrix.row(rows[r]));
        g_sub[r] = series.values[rows[r]];
        w_sub[r] = w_full[rows[r]];
    }

    const Constraint_set constraints =
        build_constraints(deconvolver.basis(), deconvolver.config(), options.constraints);
    const Qp_constraint_prep prep(n, constraints.equality, constraints.equality_rhs,
                                  constraints.inequality, constraints.inequality_rhs);
    const Reduced_objective reduced_penalty =
        prep.reduce_objective(2.0 * deconvolver.penalty(), Vector(n, 0.0));
    const Estimator_objective objective =
        estimator_objective(weighted_gram(k_sub, w_sub),
                            transposed_times(k_sub, hadamard(w_sub, g_sub)),
                            deconvolver.penalty(), 0.0);
    const Reduced_objective blocks = prep.reduce_objective(objective.hessian, objective.gradient);
    return solve_qp_dual_prepared(
               reduced_estimator_objective(blocks, reduced_penalty, options.lambda), prep)
        .x;
}

// Serial per-gene CV + estimate mirroring deconvolve_one, on the cold path.
std::vector<Vector> run_panel_serial_cold(const Deconvolver& deconvolver,
                                          const std::vector<Measurement_series>& panel,
                                          const Vector& lambda_grid, std::size_t folds,
                                          std::uint64_t cv_seed) {
    std::vector<Vector> coefficients;
    coefficients.reserve(panel.size());
    for (const Measurement_series& series : panel) {
        const std::size_t m = series.size();
        const std::vector<std::size_t> perm = kfold_permutation(m, cv_seed);
        const Vector weights = series.weights();
        const Matrix& kernel = deconvolver.kernel_matrix();

        double best_lambda = lambda_grid.front();
        double best_score = std::numeric_limits<double>::infinity();
        for (double lambda : lambda_grid) {
            Deconvolution_options options;
            options.lambda = lambda;
            double score = 0.0;
            bool failed = false;
            for (std::size_t fold = 0; fold < folds && !failed; ++fold) {
                std::vector<std::size_t> train, test;
                for (std::size_t p = 0; p < m; ++p) {
                    (p % folds == fold ? test : train).push_back(perm[p]);
                }
                if (train.size() < 2) continue;
                try {
                    const Vector alpha = cold_estimate(deconvolver, series, train, options);
                    for (std::size_t idx : test) {
                        const double r = series.values[idx] - dot(kernel.row(idx), alpha);
                        score += weights[idx] * r * r;
                    }
                } catch (const std::runtime_error&) {
                    failed = true;
                }
            }
            score = failed ? std::numeric_limits<double>::infinity()
                           : score / static_cast<double>(m);
            if (score < best_score) {
                best_score = score;
                best_lambda = lambda;
            }
        }

        Deconvolution_options options;
        options.lambda = best_lambda;
        std::vector<std::size_t> all(m);
        for (std::size_t i = 0; i < m; ++i) all[i] = i;
        coefficients.push_back(cold_estimate(deconvolver, series, all, options));
    }
    return coefficients;
}

void run_panel_comparison(cellsync::bench::Bench_json& json) {
    constexpr std::size_t genes = 50;
    constexpr std::size_t folds = 5;
    constexpr std::size_t pool_threads = 4;

    Kernel_build_options kernel_options;
    kernel_options.n_bins = 200;
    const Kernel_grid kernel = build_kernel(Cell_cycle_config{}, Smooth_volume_model{},
                                            linspace(0.0, 180.0, 13), kernel_options);
    const std::vector<Measurement_series> panel = make_panel(kernel, genes);
    const Vector lambda_grid = default_lambda_grid(9, 1e-6, 1e0);
    Batch_options batch_options;
    batch_options.lambda_grid = lambda_grid;
    batch_options.cv_folds = folds;

    // Serial per-gene baseline: fresh constraints + reduction per solve.
    const Deconvolver baseline(std::make_shared<Natural_spline_basis>(18), kernel,
                               Cell_cycle_config{});
    const cellsync::bench::Stopwatch serial_watch;
    const std::vector<Vector> serial =
        run_panel_serial_cold(baseline, panel, lambda_grid, folds, batch_options.cv_seed);
    const double serial_ms =
        serial_watch.elapsed_ms();

    // Shared design on a pool (artifact construction included).
    Worker_pool pool(pool_threads);
    const cellsync::bench::Stopwatch pooled_watch;
    const Deconvolver shared(std::make_shared<Natural_spline_basis>(18), kernel,
                             Cell_cycle_config{});
    const std::vector<Batch_entry> batch = run_panel_pooled(shared, panel, batch_options, pool);
    const double pooled_ms = pooled_watch.elapsed_ms();

    std::size_t identical = 0;
    double max_diff = 0.0;
    for (std::size_t g = 0; g < genes; ++g) {
        if (!batch[g].estimate.has_value()) continue;
        const Vector& a = batch[g].estimate->coefficients();
        const Vector& b = serial[g];
        bool same = a.size() == b.size();
        if (!same) {
            max_diff = std::numeric_limits<double>::infinity();
            continue;
        }
        for (std::size_t i = 0; i < a.size(); ++i) {
            max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
            if (a[i] != b[i]) same = false;
        }
        if (same) ++identical;
    }
    const double speedup = pooled_ms > 0.0 ? serial_ms / pooled_ms : 0.0;

    std::printf("panel: %zu genes x (%zu lambdas x %zu folds + 1) constrained solves\n",
                genes, lambda_grid.size(), folds);
    std::printf("  serial per-gene baseline : %9.1f ms\n", serial_ms);
    std::printf("  shared design (%zu threads): %9.1f ms\n", pool_threads, pooled_ms);
    std::printf("  speedup                  : %9.2fx\n", speedup);
    std::printf("  identical genes          : %zu/%zu (max |diff| %.3e)\n\n", identical,
                genes, max_diff);

    json.add("panel_genes", static_cast<double>(genes));
    json.add("panel_serial_ms", serial_ms);
    json.add("panel_pooled_ms", pooled_ms);
    json.add("panel_pooled_threads", static_cast<double>(pool_threads));
    json.add("panel_speedup", speedup);
    json.add("panel_identical_genes", static_cast<double>(identical));
    json.add("panel_max_coefficient_diff", max_diff);
}

// ---------------------------------------------------------------------------
// Per-gene Gram/RHS assembly: the copy path (row copy into a fresh
// submatrix + the scalar reference kernels) versus the chunked row-subset
// kernels Deconvolver::estimate_on_rows runs. Assembled blocks are
// compared bit-for-bit — the speedup must come with identical results.
// ---------------------------------------------------------------------------

struct Gram_timing {
    double reference_ms = 0.0;
    double fast_ms = 0.0;
    std::size_t identical = 0;
    double solve_ms = 0.0;
};

// Times the per-gene normal-equation assembly over the panel, old path vs
// new, and checks the assembled blocks bit-for-bit per gene.
Gram_timing time_gram_assembly(const Deconvolver& deconvolver,
                               const std::vector<Measurement_series>& panel,
                               std::size_t reps) {
    const Matrix& kernel = deconvolver.kernel_matrix();
    const std::size_t m = kernel.rows();
    const std::size_t n = kernel.cols();
    std::vector<std::size_t> rows(m);
    for (std::size_t i = 0; i < m; ++i) rows[i] = i;
    std::vector<Vector> weights(panel.size());
    for (std::size_t g = 0; g < panel.size(); ++g) weights[g] = panel[g].weights();

    Gram_timing timing;

    // Old path: gather the kernel rows into a fresh submatrix, then run the
    // scalar reference kernels on the copy (what estimate_on_rows did
    // before the row-subset kernels existed).
    const auto run_reference = [&](std::size_t n_reps) {
        for (std::size_t rep = 0; rep < n_reps; ++rep) {
            for (std::size_t g = 0; g < panel.size(); ++g) {
                Matrix k_sub(m, n);
                Vector g_sub(m), w_sub(m);
                for (std::size_t r = 0; r < m; ++r) {
                    k_sub.set_row(r, kernel.row(rows[r]));
                    g_sub[r] = panel[g].values[rows[r]];
                    w_sub[r] = weights[g][rows[r]];
                }
                const Matrix gram_block = weighted_gram_reference(k_sub, w_sub);
                const Vector rhs =
                    transposed_times_reference(k_sub, hadamard(w_sub, g_sub));
                benchmark::DoNotOptimize(gram_block.data().data());
                benchmark::DoNotOptimize(rhs.data());
            }
        }
    };

    // New path: no row copy, chunked row-subset kernels straight off the
    // shared design artifacts.
    const auto run_fast = [&](std::size_t n_reps) {
        for (std::size_t rep = 0; rep < n_reps; ++rep) {
            for (std::size_t g = 0; g < panel.size(); ++g) {
                Vector g_sub(m), w_sub(m);
                for (std::size_t r = 0; r < m; ++r) {
                    g_sub[r] = panel[g].values[rows[r]];
                    w_sub[r] = weights[g][rows[r]];
                }
                const Matrix gram_block = weighted_gram_rows(kernel, rows, w_sub);
                const Vector rhs =
                    weighted_transposed_times_rows(kernel, rows, w_sub, g_sub);
                benchmark::DoNotOptimize(gram_block.data().data());
                benchmark::DoNotOptimize(rhs.data());
            }
        }
    };

    // Interleaved best-of-chunks timing: the two paths alternate in small
    // chunks and each side reports its fastest chunk (scaled back to the
    // full rep count), so a load spike from a shared builder hits both
    // sides instead of whichever happened to run under it.
    constexpr std::size_t chunks = 8;
    const std::size_t chunk_reps = reps / chunks;
    run_reference(chunk_reps);  // warm-up, untimed
    run_fast(chunk_reps);
    double ref_best = std::numeric_limits<double>::infinity();
    double fast_best = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < chunks; ++c) {
        cellsync::bench::Stopwatch watch;
        run_reference(chunk_reps);
        ref_best = std::min(ref_best, watch.elapsed_ms());
        watch.reset();
        run_fast(chunk_reps);
        fast_best = std::min(fast_best, watch.elapsed_ms());
    }
    timing.reference_ms = ref_best * static_cast<double>(chunks);
    timing.fast_ms = fast_best * static_cast<double>(chunks);

    // Bit-identity of the assembled blocks, per gene.
    for (std::size_t g = 0; g < panel.size(); ++g) {
        Matrix k_sub(m, n);
        Vector g_sub(m), w_sub(m);
        for (std::size_t r = 0; r < m; ++r) {
            k_sub.set_row(r, kernel.row(rows[r]));
            g_sub[r] = panel[g].values[rows[r]];
            w_sub[r] = weights[g][rows[r]];
        }
        const Matrix gram_ref = weighted_gram_reference(k_sub, w_sub);
        const Vector rhs_ref = transposed_times_reference(k_sub, hadamard(w_sub, g_sub));
        const Matrix gram_fast = weighted_gram_rows(kernel, rows, w_sub);
        const Vector rhs_fast = weighted_transposed_times_rows(kernel, rows, w_sub, g_sub);
        bool same = true;
        for (std::size_t i = 0; i < n && same; ++i) {
            for (std::size_t j = 0; j < n && same; ++j) {
                if (gram_ref(i, j) != gram_fast(i, j)) same = false;
            }
        }
        for (std::size_t i = 0; i < n && same; ++i) {
            if (rhs_ref[i] != rhs_fast[i]) same = false;
        }
        if (same) ++timing.identical;
    }

    // Solve section: the full constrained estimate over the panel on the
    // new path (one number to track end-to-end drift, not a comparison).
    Deconvolution_options solve_options;
    solve_options.lambda = 1e-4;
    const cellsync::bench::Stopwatch solve_watch;
    for (const Measurement_series& series : panel) {
        const Single_cell_estimate est = deconvolver.estimate(series, solve_options);
        benchmark::DoNotOptimize(est.coefficients().data());
    }
    timing.solve_ms =
        solve_watch.elapsed_ms();
    return timing;
}

void run_gram_comparison(cellsync::bench::Bench_json& json) {
    constexpr std::size_t genes = 50;
    constexpr std::size_t reps = 2000;

    Kernel_build_options kernel_options;
    kernel_options.n_bins = 200;
    const Kernel_grid kernel_grid = build_kernel(Cell_cycle_config{}, Smooth_volume_model{},
                                                 linspace(0.0, 180.0, 13), kernel_options);
    const std::vector<Measurement_series> panel = make_panel(kernel_grid, genes);

    // The production shape: 13 timepoints x 18 natural-spline functions.
    // Only the copy elimination and the chunked kernels contribute to the
    // speedup.
    const Deconvolver deconvolver(std::make_shared<Natural_spline_basis>(18), kernel_grid,
                                  Cell_cycle_config{});
    const Gram_timing timing = time_gram_assembly(deconvolver, panel, reps);

    const Matrix& kernel = deconvolver.kernel_matrix();
    const double speedup =
        timing.fast_ms > 0.0 ? timing.reference_ms / timing.fast_ms : 0.0;
    std::printf("gram: %zu genes x %zu reps of %zux%zu normal-equation assembly\n", genes,
                reps, kernel.rows(), kernel.cols());
    std::printf("  reference (copy + scalar): %9.1f ms\n", timing.reference_ms);
    std::printf("  row-subset chunked       : %9.1f ms\n", timing.fast_ms);
    std::printf("  speedup                  : %9.2fx\n", speedup);
    std::printf("  identical genes          : %zu/%zu\n", timing.identical, genes);
    std::printf("  panel constrained solves : %9.1f ms (%zu genes)\n\n", timing.solve_ms,
                genes);

    json.add("gram_dense_reference_ms", timing.reference_ms);
    json.add("gram_dense_fast_ms", timing.fast_ms);
    json.add("gram_dense_speedup", speedup);
    json.add("gram_dense_identical_genes", static_cast<double>(timing.identical));
    json.add("gram_dense_genes", static_cast<double>(genes));
    json.add("solve_panel_natural_ms", timing.solve_ms);
}

void bm_panel(benchmark::State& state) {
    const Pipeline_fixture fixture = Pipeline_fixture::make(18);
    const std::vector<Measurement_series> panel =
        make_panel(fixture.kernel, static_cast<std::size_t>(state.range(0)));
    Batch_options options;
    options.lambda_grid = default_lambda_grid(9, 1e-6, 1e0);
    Worker_pool pool(static_cast<std::size_t>(state.range(1)));
    for (auto _ : state) {
        const std::vector<Batch_entry> batch =
            run_panel_pooled(fixture.deconvolver, panel, options, pool);
        benchmark::DoNotOptimize(batch.data());
    }
}

}  // namespace

BENCHMARK(bm_single_estimate)->Arg(12)->Arg(18)->Arg(28)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_unconstrained_estimate)->Arg(18)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_cv_lambda_selection)->Arg(9)->Arg(13)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_best_lambda_kfold)->Arg(13)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_gcv_lambda_selection)->Arg(13)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_panel)
    ->Args({10, 1})
    ->Args({10, 4})
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
    cellsync::bench::Bench_json json("perf_deconvolve");
    // The panel comparison is minutes of serial work; skip it (and the
    // gram section) when the caller narrowed the run to micro-benchmarks
    // that do not involve them.
    bool want_panel = true;
    bool want_gram = true;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--benchmark_filter", 0) == 0) {
            if (arg.find("panel") == std::string::npos) want_panel = false;
            if (arg.find("gram") == std::string::npos) want_gram = false;
        }
    }
    if (want_gram) run_gram_comparison(json);
    if (want_panel) run_panel_comparison(json);
    return cellsync::bench::run_perf_harness(argc, argv, std::move(json));
}

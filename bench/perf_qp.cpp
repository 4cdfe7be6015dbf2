// Performance: the dual QP solve on deconvolution-shaped problems
// (Nc unknowns, 2 equality rows, dense positivity grid). {18, 101} has the
// production sizes: the CLI's default Nc and positivity grid, but a random
// Hessian that takes far more iterations and active rows than a real fit.
// bm_qp_cv_fit is one CV fit as `run` solves it.
#include <cmath>

#include "biology/gene_profiles.h"
#include "core/cross_validation.h"
#include "core/forward_model.h"
#include "numerics/qp_solver.h"
#include "numerics/rng.h"
#include "perf_util.h"
#include "spline/spline_basis.h"

namespace {

cellsync::Qp_problem make_problem(std::size_t n, std::size_t grid, std::uint64_t seed) {
    using namespace cellsync;
    Rng rng(seed);
    Matrix a(n + 4, n);
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    Qp_problem p;
    p.hessian = gram(a);
    for (std::size_t i = 0; i < n; ++i) p.hessian(i, i) += 1.0;
    p.gradient = rng.normal_vector(n);
    p.eq_matrix = Matrix(2, n);
    for (std::size_t j = 0; j < n; ++j) {
        p.eq_matrix(0, j) = 1.0;
        p.eq_matrix(1, j) = static_cast<double>(j) / static_cast<double>(n);
    }
    p.eq_rhs = {0.0, 0.0};
    p.ineq_matrix = Matrix(grid, n);
    for (std::size_t g = 0; g < grid; ++g) {
        // Smooth overlapping rows, like spline values on a fine grid.
        for (std::size_t j = 0; j < n; ++j) {
            const double x = static_cast<double>(g) / static_cast<double>(grid - 1);
            const double c = static_cast<double>(j) / static_cast<double>(n - 1);
            p.ineq_matrix(g, j) = std::max(0.0, 1.0 - 4.0 * std::abs(x - c));
        }
    }
    p.ineq_rhs.assign(grid, 0.0);
    return p;
}

void bm_qp_dual(benchmark::State& state) {
    using namespace cellsync;
    const Qp_problem p = make_problem(static_cast<std::size_t>(state.range(0)),
                                      static_cast<std::size_t>(state.range(1)), 3);
    for (auto _ : state) {
        const Qp_result r = solve_qp_dual(p);
        benchmark::DoNotOptimize(r.x.data());
    }
}

/// One CV fit's QP: a 13-timepoint kernel, Natural_spline_basis(18), the
/// default constraints (101 positivity rows), a noisy pulse gene, the
/// training rows of the first of the CV's 5 folds, and lambda = 1e-3.
struct Cv_fit_problem {
    std::shared_ptr<const cellsync::Design_artifacts> design;
    cellsync::Estimator_objective objective;
};

const Cv_fit_problem& cv_fit_problem() {
    using namespace cellsync;
    static const Cv_fit_problem problem = [] {
        const Kernel_grid kernel = build_kernel(Cell_cycle_config{}, Smooth_volume_model{},
                                                linspace(0.0, 180.0, 13));
        auto design = make_design_artifacts(std::make_shared<Natural_spline_basis>(18), kernel,
                                            Cell_cycle_config{});
        // 8 iterations ending with 4 active rows: more than most CV fits.
        // The 14,400 full-grid CV fits of one e2ebench run_warm input set
        // average 4.9 iterations and 1.7 active rows.
        Rng rng(4);
        const Measurement_series series = forward_measurements_noisy(
            kernel, pulse_profile(0.1, 3.0, 0.45, 0.05).f,
            {Noise_type::relative_gaussian, 0.05}, rng);
        const std::size_t folds = 5;
        const std::vector<std::size_t> perm = kfold_permutation(series.size(), 77);
        const Vector weights = series.weights();
        std::vector<std::size_t> train;
        Vector g_train, w_train;
        for (std::size_t p = 0; p < perm.size(); ++p) {
            if (p % folds == 0) continue;  // fold 0's test rows
            train.push_back(perm[p]);
            g_train.push_back(series.values[perm[p]]);
            w_train.push_back(weights[perm[p]]);
        }
        Estimator_objective objective = estimator_objective(
            weighted_gram_rows(design->kernel_matrix, train, w_train),
            weighted_transposed_times_rows(design->kernel_matrix, train, w_train, g_train),
            design->penalty, 1e-3);
        return Cv_fit_problem{std::move(design), std::move(objective)};
    }();
    return problem;
}

void bm_qp_cv_fit(benchmark::State& state) {
    using namespace cellsync;
    const Cv_fit_problem& p = cv_fit_problem();
    std::size_t iterations = 0;
    for (auto _ : state) {
        const Qp_result r = solve_qp_dual_prepared(p.objective.hessian, p.objective.gradient,
                                                   *p.design->constraint_prep);
        iterations = r.iterations;
        benchmark::DoNotOptimize(r.x.data());
    }
    state.counters["iterations"] = static_cast<double>(iterations);
}

}  // namespace

BENCHMARK(bm_qp_cv_fit)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_qp_dual)
    ->Args({12, 51})
    ->Args({18, 101})
    ->Args({36, 101})
    ->Args({18, 201})
    ->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
    return cellsync::bench::run_perf_harness(argc, argv, "perf_qp");
}

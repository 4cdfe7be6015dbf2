// Performance: the dual QP solve on deconvolution-shaped problems
// (Nc unknowns, 2 equality rows, dense positivity grid). {18, 101} has the
// production sizes: the CLI's default Nc and positivity grid.
#include <cmath>

#include "numerics/qp_solver.h"
#include "numerics/rng.h"
#include "perf_util.h"

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

}  // namespace

BENCHMARK(bm_qp_dual)
    ->Args({12, 51})
    ->Args({18, 101})
    ->Args({36, 101})
    ->Args({18, 201})
    ->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
    return cellsync::bench::run_perf_harness(argc, argv, "perf_qp");
}

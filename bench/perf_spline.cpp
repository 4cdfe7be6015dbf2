// Performance: spline basis evaluation and penalty assembly.
#include "perf_util.h"

#include <cmath>

#include "spline/spline_basis.h"

namespace {

void bm_natural_design_matrix(benchmark::State& state) {
    using namespace cellsync;
    const Natural_spline_basis basis(static_cast<std::size_t>(state.range(0)));
    const Vector points = linspace(0.0, 1.0, 200);
    for (auto _ : state) {
        const Matrix design = basis.design_matrix(points);
        benchmark::DoNotOptimize(design.data().data());
    }
}

void bm_natural_penalty(benchmark::State& state) {
    using namespace cellsync;
    const Natural_spline_basis basis(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        const Matrix omega = basis.penalty_matrix();
        benchmark::DoNotOptimize(omega.data().data());
    }
}

void bm_spline_construction(benchmark::State& state) {
    using namespace cellsync;
    const auto n = static_cast<std::size_t>(state.range(0));
    const Vector x = linspace(0.0, 1.0, n);
    Vector y(n);
    for (std::size_t i = 0; i < n; ++i) y[i] = std::sin(7.0 * x[i]);
    for (auto _ : state) {
        const Cubic_spline s(x, y);
        benchmark::DoNotOptimize(s.knot_second_derivatives().data());
    }
}

}  // namespace

BENCHMARK(bm_natural_design_matrix)->Arg(12)->Arg(18)->Arg(36)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_natural_penalty)->Arg(12)->Arg(18)->Arg(36)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_spline_construction)->Arg(16)->Arg(128)->Arg(1024)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
    return cellsync::bench::run_perf_harness(argc, argv, "perf_spline");
}

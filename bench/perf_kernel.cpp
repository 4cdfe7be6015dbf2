// Performance: computing the kernel Q(phi, t) — the dominant cost of a
// run on a cold kernel cache. bm_build_kernel times build_kernel on the
// three conditions of the end-to-end benchmark (fast, base, slow: 13
// times on 0..180 min, 200 bins) and on a 12-cycle grid (13 times on
// 0..1800 min), whose renewal solve is ten times longer.
// bm_kernel_basis_matrix times the kernel matrix against spline bases.
// bm_make_design_artifacts times the design a run builds per condition
// after its kernel: the kernel matrix, the penalty and the constraint
// geometry, at the same three conditions with Nc = 18 knots.
// The Monte-Carlo simulate_kernel is timed in perf_population.
#include "perf_util.h"

#include "core/design.h"
#include "population/kernel_builder.h"
#include "spline/spline_basis.h"

namespace {

void bm_build_kernel(benchmark::State& state) {
    using namespace cellsync;
    // Arguments: mean cycle minutes, 100 x mu_sst, and the grid's end.
    Cell_cycle_config config;
    config.mean_cycle_minutes = static_cast<double>(state.range(0));
    config.mu_sst = static_cast<double>(state.range(1)) / 100.0;
    const Vector times = linspace(0.0, static_cast<double>(state.range(2)), 13);
    const Smooth_volume_model volume;
    for (auto _ : state) {
        const Kernel_grid kernel = build_kernel(config, volume, times);
        benchmark::DoNotOptimize(kernel.q().data().data());
    }
}

void bm_kernel_basis_matrix(benchmark::State& state) {
    using namespace cellsync;
    const Kernel_grid kernel =
        build_kernel(Cell_cycle_config{}, Smooth_volume_model{}, linspace(0.0, 180.0, 13));
    const Natural_spline_basis basis(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        const Matrix k = kernel.basis_matrix(basis);
        benchmark::DoNotOptimize(k.data().data());
    }
}

void bm_make_design_artifacts(benchmark::State& state) {
    using namespace cellsync;
    // Arguments: mean cycle minutes and 100 x mu_sst.
    Cell_cycle_config config;
    config.mean_cycle_minutes = static_cast<double>(state.range(0));
    config.mu_sst = static_cast<double>(state.range(1)) / 100.0;
    const Kernel_grid kernel =
        build_kernel(config, Smooth_volume_model{}, linspace(0.0, 180.0, 13));
    const auto basis = std::make_shared<const Natural_spline_basis>(18);
    for (auto _ : state) {
        const auto artifacts = make_design_artifacts(basis, kernel, config);
        benchmark::DoNotOptimize(artifacts.get());
    }
}

}  // namespace

BENCHMARK(bm_build_kernel)
    ->Args({120, 13, 180})
    ->Args({150, 15, 180})
    ->Args({180, 17, 180})
    ->Args({150, 15, 1800})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_kernel_basis_matrix)->Arg(12)->Arg(18)->Arg(36)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_make_design_artifacts)
    ->Args({120, 13})
    ->Args({150, 15})
    ->Args({180, 17})
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
    return cellsync::bench::run_perf_harness(argc, argv, "perf_kernel");
}

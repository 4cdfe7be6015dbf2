// Performance: computing the kernel Q(phi, t) — the dominant cost of a
// run on a cold kernel cache. bm_build_kernel times build_kernel on the
// three conditions of the end-to-end benchmark (fast, base, slow: 13
// times on 0..180 min, 200 bins) and on a 12-cycle grid (13 times on
// 0..1800 min), whose renewal solve is ten times longer.
// bm_kernel_basis_matrix times the kernel matrix against spline bases.
// The Monte-Carlo simulate_kernel is timed in perf_population.
#include "perf_util.h"

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

}  // namespace

BENCHMARK(bm_build_kernel)
    ->Args({120, 13, 180})
    ->Args({150, 15, 180})
    ->Args({180, 17, 180})
    ->Args({150, 15, 1800})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_kernel_basis_matrix)->Arg(12)->Arg(18)->Arg(36)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
    return cellsync::bench::run_perf_harness(argc, argv, "perf_kernel");
}

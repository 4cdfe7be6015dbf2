// Performance: agent-based population simulation scaling in cell count
// and simulated horizon, and the Monte-Carlo kernel simulate_kernel
// built on it (the test oracle and synthetic-data generator).
#include "perf_util.h"

#include "population/kernel_builder.h"
#include "population/population_simulator.h"

namespace {

void bm_population_advance(benchmark::State& state) {
    using namespace cellsync;
    const auto n_cells = static_cast<std::size_t>(state.range(0));
    const double horizon = static_cast<double>(state.range(1));
    for (auto _ : state) {
        Population_simulator sim(Cell_cycle_config{}, n_cells, 42);
        sim.advance_to(horizon);
        benchmark::DoNotOptimize(sim.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n_cells));
}

void bm_population_snapshot(benchmark::State& state) {
    using namespace cellsync;
    const auto n_cells = static_cast<std::size_t>(state.range(0));
    Population_simulator sim(Cell_cycle_config{}, n_cells, 42);
    sim.advance_to(120.0);
    const Smooth_volume_model volume;
    for (auto _ : state) {
        auto snap = sim.snapshot(volume);
        benchmark::DoNotOptimize(snap.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(sim.size()));
}

void bm_simulate_kernel(benchmark::State& state) {
    using namespace cellsync;
    Kernel_build_options options;
    options.n_cells = static_cast<std::size_t>(state.range(0));
    options.n_bins = static_cast<std::size_t>(state.range(1));
    const Vector times = linspace(0.0, 180.0, static_cast<std::size_t>(state.range(2)));
    const Smooth_volume_model volume;
    for (auto _ : state) {
        const Kernel_grid kernel = simulate_kernel(Cell_cycle_config{}, volume, times, options);
        benchmark::DoNotOptimize(kernel.q().data().data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(options.n_cells) * state.range(2));
}

}  // namespace

BENCHMARK(bm_population_advance)
    ->Args({10000, 180})
    ->Args({50000, 180})
    ->Args({100000, 180})
    ->Args({50000, 360})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_population_snapshot)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_simulate_kernel)
    ->Args({20000, 200, 13})
    ->Args({100000, 200, 13})
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
    return cellsync::bench::run_perf_harness(argc, argv, "perf_population");
}

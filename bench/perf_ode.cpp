// Performance: ODE integrators on the Lotka-Volterra model.
#include "perf_util.h"

#include <cmath>

#include "models/lotka_volterra.h"

namespace {

void bm_lv_rk45(benchmark::State& state) {
    using namespace cellsync;
    const Lotka_volterra_params lv = paper_lv_params(150.0);
    const Ode_rhs rhs = lotka_volterra_rhs(lv);
    Ode_options options;
    options.rel_tol = std::pow(10.0, -static_cast<double>(state.range(0)));
    options.abs_tol = options.rel_tol * 1e-2;
    for (auto _ : state) {
        const Ode_solution sol = rk45_solve(rhs, {lv.x1_0, lv.x2_0}, 0.0, 300.0, options);
        benchmark::DoNotOptimize(sol.states.back().data());
    }
}

void bm_lv_rk4(benchmark::State& state) {
    using namespace cellsync;
    const Lotka_volterra_params lv = paper_lv_params(150.0);
    const Ode_rhs rhs = lotka_volterra_rhs(lv);
    for (auto _ : state) {
        const Ode_solution sol = rk4_solve(rhs, {lv.x1_0, lv.x2_0}, 0.0, 300.0,
                                           static_cast<std::size_t>(state.range(0)));
        benchmark::DoNotOptimize(sol.states.back().data());
    }
}

}  // namespace

BENCHMARK(bm_lv_rk45)->Arg(6)->Arg(8)->Arg(10)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_lv_rk4)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
    return cellsync::bench::run_perf_harness(argc, argv, "perf_ode");
}

// The paper's Figure 2/3 workflow (Sec 4.1): a Lotka-Volterra oscillator
// as 'true' single-cell expression, convolved into asynchronous
// population data, then deconvolved back — noiseless and with 10%
// relative Gaussian noise. Exports every series as CSV for plotting.
//
// Usage: lotka_volterra [output_dir]
#include <cstdio>
#include <string>

#include "core/cross_validation.h"
#include "core/forward_model.h"
#include "io/series_writer.h"
#include "models/lotka_volterra.h"
#include "numerics/interpolation.h"
#include "numerics/statistics.h"
#include "spline/spline_basis.h"

namespace {

struct Series_bundle {
    cellsync::Vector minutes;
    cellsync::Vector single_cell;
    cellsync::Vector population;
    cellsync::Vector deconvolved;
};

Series_bundle run_component(const cellsync::Kernel_grid& kernel,
                            const cellsync::Deconvolver& deconvolver,
                            const cellsync::Gene_profile& truth, double noise_level,
                            std::uint64_t seed, double period) {
    using namespace cellsync;
    Measurement_series data;
    if (noise_level > 0.0) {
        Rng rng(seed);
        data = forward_measurements_noisy(kernel, truth.f,
                                          {Noise_type::relative_gaussian, noise_level}, rng,
                                          truth.name);
    } else {
        data = forward_measurements(kernel, truth.f, truth.name);
    }

    const Lambda_selection sel = select_lambda_kfold(
        deconvolver, data, Deconvolution_options{}, default_lambda_grid(13, 1e-7, 1e0), 5);
    Deconvolution_options options;
    options.lambda = sel.best_lambda;
    const Single_cell_estimate estimate = deconvolver.estimate(data, options);

    Series_bundle bundle;
    bundle.minutes = linspace(0.0, 180.0, 121);
    const Linear_interpolant population(data.times, data.values);
    for (double t : bundle.minutes) {
        const double phi = std::fmod(t, period) / period;  // single cell re-enters its cycle
        bundle.single_cell.push_back(truth(phi));
        bundle.population.push_back(population(t));
        bundle.deconvolved.push_back(estimate(std::min(t / period, 1.0)));
    }
    return bundle;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace cellsync;
    const std::string out_dir = argc > 1 ? argv[1] : ".";
    const double period = 150.0;

    std::printf("Lotka-Volterra deconvolution (paper Figs 2-3 workflow)\n");
    const Lotka_volterra_params lv = paper_lv_params(period);
    std::printf("  LV rates: a=%.4f b=%.4f c=%.4f d=%.4f (period %.1f min)\n", lv.a, lv.b,
                lv.c, lv.d, measure_period(lv, 800.0));

    const Gene_profile x1 = lotka_volterra_profile(lv, 0, period);
    const Gene_profile x2 = lotka_volterra_profile(lv, 1, period);

    const Kernel_grid kernel = build_kernel(Cell_cycle_config{}, Smooth_volume_model{},
                                            linspace(0.0, 180.0, 13));
    const Deconvolver deconvolver(std::make_shared<Natural_spline_basis>(18), kernel,
                                  Cell_cycle_config{});

    for (double noise : {0.0, 0.10}) {
        const char* tag = noise == 0.0 ? "fig2_noiseless" : "fig3_noisy10";
        const Series_bundle b1 = run_component(kernel, deconvolver, x1, noise, 21, period);
        const Series_bundle b2 = run_component(kernel, deconvolver, x2, noise, 22, period);

        Series_writer writer("minutes", b1.minutes);
        writer.add("x1_single_cell", b1.single_cell)
            .add("x1_population", b1.population)
            .add("x1_deconvolved", b1.deconvolved)
            .add("x2_single_cell", b2.single_cell)
            .add("x2_population", b2.population)
            .add("x2_deconvolved", b2.deconvolved);
        const std::string path = out_dir + "/" + tag + ".csv";
        writer.write(path);

        // Recovery summary over the first cycle.
        const Vector grid = linspace(0.02, 0.98, 49);
        std::printf("  %s:\n", tag);
        auto report = [&](const Gene_profile& truth, const Series_bundle& bundle) {
            Vector rec(grid.size()), tru(grid.size());
            const Linear_interpolant deconv(bundle.minutes, bundle.deconvolved);
            for (std::size_t i = 0; i < grid.size(); ++i) {
                rec[i] = deconv(grid[i] * period);
                tru[i] = truth(grid[i]);
            }
            std::printf("    %-6s corr=%.3f nrmse=%.3f\n", truth.name.c_str(),
                        pearson_correlation(rec, tru), nrmse(rec, tru));
        };
        report(x1, b1);
        report(x2, b2);
        std::printf("    wrote %s\n", path.c_str());
    }
    return 0;
}

// Ablation: sampling-schedule design.
//
// Same budget of Nm = 13 measurements over 0-180 min, four layouts:
// uniform (the paper's), front-loaded (dense early, when the population is
// still synchronized), back-loaded, and one-cycle-only. Scored by recovery
// on noisy data.
#include <cstdio>

#include "bench_util.h"

#include "biology/gene_profiles.h"

int main() {
    using namespace cellsync;
    using namespace cellsync::bench;
    print_header("ablation_design", "sampling layouts at fixed budget Nm = 13");

    Experiment_defaults defaults;
    const Smooth_volume_model volume;
    const auto basis = std::make_shared<Natural_spline_basis>(defaults.basis_size);

    auto stretched = [](double power) {
        // t_i = 180 * u_i^power: power > 1 front-loads, < 1 back-loads.
        Vector t(13);
        for (std::size_t i = 0; i < 13; ++i) {
            const double u = static_cast<double>(i) / 12.0;
            t[i] = 180.0 * std::pow(u, power);
        }
        return t;
    };
    const std::vector<std::pair<std::string, Vector>> designs = {
        {"uniform (paper)", linspace(0.0, 180.0, 13)},
        {"front-loaded", stretched(1.8)},
        {"back-loaded", stretched(0.55)},
        {"one-cycle-only", linspace(0.0, 150.0, 13)},
    };

    Kernel_build_options kernel_options;
    kernel_options.n_bins = defaults.kernel_bins;

    const Gene_profile truth = ftsz_like_profile();
    const Noise_model noise{Noise_type::relative_gaussian, 0.10};

    std::printf("measured recovery (mean nrmse over 6 noisy realizations):\n\n");
    std::printf("  %-16s  %s\n", "design", "nrmse");
    for (const auto& [label, times] : designs) {
        const Kernel_grid kernel = build_kernel(defaults.cell_cycle, volume, times, kernel_options);
        const Deconvolver deconvolver(basis, kernel, defaults.cell_cycle);
        Experiment_defaults sweep = defaults;
        sweep.times = times;
        double err = 0.0;
        for (int rep = 0; rep < 6; ++rep) {
            Rng rng(640 + static_cast<std::uint64_t>(rep));
            const Measurement_series data =
                forward_measurements_noisy(kernel, truth.f, noise, rng);
            const Single_cell_estimate estimate = deconvolve_cv(deconvolver, data, sweep);
            err += score_recovery(estimate, truth.f).nrmse;
        }
        std::printf("  %-16s  %.3f\n", label.c_str(), err / 6.0);
    }
    return 0;
}

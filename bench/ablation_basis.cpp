// Ablation: basis resolution Nc.
//
// Sweeps the number of natural-spline knots (too few = bias, too many =
// variance absorbed by the regularizer).
#include <cstdio>

#include "bench_util.h"

#include "biology/gene_profiles.h"

int main() {
    using namespace cellsync;
    using namespace cellsync::bench;
    print_header("ablation_basis", "natural-spline basis size sweep");

    Experiment_defaults defaults;
    const Smooth_volume_model volume;
    const Kernel_grid kernel = default_kernel(defaults, volume);
    const Gene_profile truth = ftsz_like_profile();
    const Noise_model noise{Noise_type::relative_gaussian, 0.10};

    std::printf("truth: %s, 10%% noise, lambda by CV, mean nrmse over 4 realizations\n\n",
                truth.name.c_str());
    std::printf("  Nc   natural-spline\n");
    for (std::size_t nc : {6u, 8u, 12u, 16u, 20u, 28u, 36u}) {
        const Deconvolver deconvolver(std::make_shared<Natural_spline_basis>(nc), kernel,
                                      defaults.cell_cycle);
        double total = 0.0;
        for (int rep = 0; rep < 4; ++rep) {
            Rng rng(900 + static_cast<std::uint64_t>(rep));
            const Measurement_series data =
                forward_measurements_noisy(kernel, truth.f, noise, rng);
            const Single_cell_estimate estimate = deconvolve_cv(deconvolver, data, defaults);
            total += score_recovery(estimate, truth.f).nrmse;
        }
        std::printf("  %2zu  %14.3f\n", nc, total / 4.0);
    }
    std::printf("\nreading: error should plateau once Nc exceeds the data's resolving\n");
    std::printf("power (the regularizer absorbs extra knots).\n");
    return 0;
}

// Ablation: measurement count Nm.
//
// The inversion is ill-posed because Nm is "finite and small" (paper Sec
// 2.3). This bench quantifies how recovery degrades as the experiment
// samples fewer time points over the same 0-180 min window, and how much
// head-room more frequent sampling would buy.
#include <cstdio>

#include "bench_util.h"

#include "biology/gene_profiles.h"

int main() {
    using namespace cellsync;
    using namespace cellsync::bench;
    print_header("ablation_measurements", "sampling density sweep (mean over 4 realizations)");

    Experiment_defaults defaults;
    const Smooth_volume_model volume;
    const Gene_profile truth = ftsz_like_profile();
    const Noise_model noise{Noise_type::relative_gaussian, 0.10};

    std::printf("truth: %s, 10%% noise, window 0-180 min\n\n", truth.name.c_str());
    std::printf("  Nm   spacing(min)   corr    nrmse\n");
    for (std::size_t nm : {5u, 7u, 9u, 13u, 19u, 25u}) {
        Experiment_defaults sweep = defaults;
        sweep.times = linspace(0.0, 180.0, nm);
        const Kernel_grid kernel = default_kernel(sweep, volume);
        const Deconvolver deconvolver(
            std::make_shared<Natural_spline_basis>(sweep.basis_size), kernel,
            sweep.cell_cycle);
        double corr_total = 0.0, err_total = 0.0;
        for (int rep = 0; rep < 4; ++rep) {
            Rng rng(777 + static_cast<std::uint64_t>(rep));
            const Measurement_series data =
                forward_measurements_noisy(kernel, truth.f, noise, rng);
            const Single_cell_estimate estimate = deconvolve_cv(deconvolver, data, sweep);
            const Recovery_score score = score_recovery(estimate, truth.f);
            corr_total += score.correlation;
            err_total += score.nrmse;
        }
        std::printf("  %2zu   %12.1f   %.3f   %.3f\n", nm,
                    180.0 / static_cast<double>(nm - 1), corr_total / 4.0, err_total / 4.0);
    }
    std::printf("\nreading: the paper's 13-sample design sits where the curve flattens;\n");
    std::printf("below ~7 samples the inversion visibly starves.\n");
    return 0;
}

// Ablation: the 2011 transition-phase update mu_sst = 0.15 vs the 2009
// value 0.25.
//
// The paper calls this one of its three updates. The transition phase
// shapes the kernel (via the initial swarmer distribution and the volume
// model) and the constraint rows. Mismatching generation and inversion
// values measures how sensitive the estimate is to mis-calibrated
// asynchrony.
#include <cstdio>

#include "bench_util.h"

#include "biology/gene_profiles.h"

int main() {
    using namespace cellsync;
    using namespace cellsync::bench;
    print_header("ablation_musst", "SW->ST transition phase: 0.15 (2011) vs 0.25 (2009)");

    Experiment_defaults defaults;
    const Smooth_volume_model volume;

    Cell_cycle_config model_2011;  // mu_sst = 0.15 default
    Cell_cycle_config model_2009;
    model_2009.mu_sst = 0.25;

    // Data come from 50k simulated cells, the inversions use the computed
    // kernels.
    const Kernel_grid gen_2011 = simulated_kernel(defaults, model_2011, volume, 50000, 7);
    const Kernel_grid gen_2009 = simulated_kernel(defaults, model_2009, volume, 50000, 7);
    Experiment_defaults inverting_2009 = defaults;
    inverting_2009.cell_cycle = model_2009;
    const Kernel_grid inv_2011 = default_kernel(defaults, volume);
    const Kernel_grid inv_2009 = default_kernel(inverting_2009, volume);

    const Deconvolver dec_2011(std::make_shared<Natural_spline_basis>(defaults.basis_size),
                               inv_2011, model_2011);
    const Deconvolver dec_2009(std::make_shared<Natural_spline_basis>(defaults.basis_size),
                               inv_2009, model_2009);

    const Gene_profile truth = ftsz_like_profile();
    const Noise_model noise{Noise_type::relative_gaussian, 0.05};

    std::printf("truth: %s, 5%% noise; rows = generating mu_sst, cols = inverting mu_sst\n\n",
                truth.name.c_str());
    std::printf("  generate\\invert   0.15 (2011)        0.25 (2009)\n");
    for (int gen = 0; gen < 2; ++gen) {
        std::printf("  %-16s", gen == 0 ? "0.15 (2011)" : "0.25 (2009)");
        const Kernel_grid& generation = gen == 0 ? gen_2011 : gen_2009;
        for (int inv = 0; inv < 2; ++inv) {
            const Deconvolver& deconvolver = inv == 0 ? dec_2011 : dec_2009;
            Rng rng(11);
            const Measurement_series data =
                forward_measurements_noisy(generation, truth.f, noise, rng);
            const Single_cell_estimate estimate = deconvolve_cv(deconvolver, data, defaults);
            const Recovery_score score = score_recovery(estimate, truth.f);
            std::printf("  corr=%.3f n=%.3f", score.correlation, score.nrmse);
        }
        std::printf("\n");
    }
    std::printf("\nreading: the mismatched cells show the estimation penalty of using the\n");
    std::printf("superseded 0.25 transition phase when the population follows 0.15.\n");
    return 0;
}

// Multi-condition experiment: the experiment runner + kernel cache on a
// synthetic two-strain study.
//
// 1. Two conditions — wildtype Caulobacter and a fast-cycling strain —
//    each with a three-gene panel generated through the forward model.
// 2. One run_experiment call resolves both kernels through a shared
//    Kernel_cache, builds one design per kernel, solves each condition's
//    genes as one worker-pool batch over that design, and warm-starts
//    lambda selection for the second condition from the first's per-gene
//    choices.
// 3. Per-condition synchrony scores separate cycle-regulated genes
//    (high order parameter, low entropy) from constitutive ones.
#include <cstdio>

#include "biology/gene_profiles.h"
#include "core/experiment_runner.h"
#include "core/forward_model.h"

int main() {
    using namespace cellsync;

    const Smooth_volume_model volume;
    const Vector times = linspace(0.0, 150.0, 11);

    Experiment_spec spec;
    spec.basis_size = 16;
    spec.batch.lambda_grid = default_lambda_grid(9, 1e-6, 1e-1);

    // Two strains: the fast cycler finishes a cycle in 110 minutes.
    Experiment_condition wildtype;
    wildtype.name = "wildtype";
    Experiment_condition fast;
    fast.name = "fast-cycling";
    fast.cell_cycle.mean_cycle_minutes = 110.0;

    // Synthetic panels: a cycle-regulated ftsZ-like gene, a sinusoidal
    // gene, and a constitutive control, with 5% measurement noise.
    const Noise_model noise{Noise_type::relative_gaussian, 0.05};
    Rng rng(11);
    for (Experiment_condition* condition : {&wildtype, &fast}) {
        const Kernel_grid kernel =
            build_kernel(condition->cell_cycle, volume, times, spec.kernel);
        condition->panel = {
            forward_measurements_noisy(kernel, ftsz_like_profile().f, noise, rng, "ftsZ"),
            forward_measurements_noisy(kernel, sinusoid_profile(3.0, 2.0).f, noise, rng,
                                       "sinusoid"),
            forward_measurements_noisy(kernel, constant_profile(4.0).f, noise, rng,
                                       "constitutive"),
        };
    }
    spec.conditions = {wildtype, fast};

    // The cache makes kernel reuse explicit: a disk-backed directory here
    // would let the next process skip both kernel builds entirely.
    Kernel_cache cache;
    const Experiment_result result = run_experiment(spec, volume, cache);

    std::printf("multi-condition experiment: %zu conditions, %zu kernels built\n",
                result.conditions.size(), result.cache_stats.builds);
    for (const Condition_result& condition : result.conditions) {
        std::printf("%s (mean order %.3f, mean entropy %.3f)\n", condition.name.c_str(),
                    condition.mean_order_parameter, condition.mean_entropy);
        for (const Gene_synchrony& gene : condition.synchrony) {
            std::printf("  %-12s order %.3f  entropy %.3f  peak phi %.2f\n",
                        gene.label.c_str(), gene.order_parameter, gene.entropy,
                        gene.peak_phi);
        }
    }
    return 0;
}

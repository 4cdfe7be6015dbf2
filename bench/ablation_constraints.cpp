// Ablation: which of the paper's constraints earn their keep?
//
// Sweeps estimator variants — unconstrained ridge, +positivity,
// +RNA-conservation, +rate-continuity (the 2011 addition) — across noise
// levels, averaging recovery error over noise realizations. Each variant
// is its own design: a design fixes the constraint geometry it solves
// under.
#include <cstdio>

#include "bench_util.h"

#include "biology/gene_profiles.h"

int main() {
    using namespace cellsync;
    using namespace cellsync::bench;
    print_header("ablation_constraints",
                 "constraint sets x noise levels (mean nrmse over 8 realizations)");

    Experiment_defaults defaults;
    const Smooth_volume_model volume;
    const Kernel_grid kernel = default_kernel(defaults, volume);
    const auto basis = std::make_shared<Natural_spline_basis>(defaults.basis_size);
    const Gene_profile truth = ftsz_like_profile();

    struct Variant {
        const char* name;
        bool positivity, conservation, rate;
    };
    const Variant variants[] = {
        {"ridge (none)", false, false, false},
        {"+positivity", true, false, false},
        {"+conservation", true, true, false},
        {"+rate-cont (2011)", true, true, true},
    };

    std::printf("  %-20s", "variant \\ noise");
    for (double level : {0.0, 0.05, 0.10, 0.20}) std::printf("  %6.0f%%", level * 100);
    std::printf("\n");

    for (const Variant& variant : variants) {
        Deconvolution_options options;
        options.constraints.positivity = variant.positivity;
        options.constraints.conservation = variant.conservation;
        options.constraints.rate_continuity = variant.rate;
        const Deconvolver deconvolver(
            make_design_artifacts(basis, kernel, defaults.cell_cycle, options.constraints));
        std::printf("  %-20s", variant.name);
        for (double level : {0.0, 0.05, 0.10, 0.20}) {
            double total = 0.0;
            const int reps = level == 0.0 ? 1 : 8;
            for (int rep = 0; rep < reps; ++rep) {
                Rng rng(100 + static_cast<std::uint64_t>(rep));
                Measurement_series data;
                if (level == 0.0) {
                    data = forward_measurements(kernel, truth.f);
                } else {
                    data = forward_measurements_noisy(
                        kernel, truth.f, {Noise_type::relative_gaussian, level}, rng);
                }
                const Single_cell_estimate estimate =
                    deconvolve_cv(deconvolver, data, defaults, options);
                total += score_recovery(estimate, truth.f).nrmse;
            }
            std::printf("  %7.3f", total / (level == 0.0 ? 1 : 8));
        }
        std::printf("\n");
    }

    std::printf("\nreading: the physical constraints should dominate the unconstrained\n");
    std::printf("ridge fit, and the full 2011 set should be at least as good as 2009's.\n");
    return 0;
}

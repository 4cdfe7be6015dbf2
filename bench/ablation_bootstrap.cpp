// Validation study: empirical coverage of the residual-bootstrap
// confidence bands.
//
// For many independent synthetic experiments with known truth, build a
// nominal-90% band and record how often the truth falls inside, per phase
// point. Residual bootstraps quantify noise, not smoothing bias, so
// empirical coverage below nominal at sharp features is expected and
// reported rather than hidden.
#include <cstdio>

#include "bench_util.h"

#include "biology/gene_profiles.h"
#include "core/bootstrap.h"

int main() {
    using namespace cellsync;
    using namespace cellsync::bench;
    print_header("ablation_bootstrap", "empirical coverage of nominal-90% bands");

    Experiment_defaults defaults;
    defaults.basis_size = 14;
    const Smooth_volume_model volume;
    const Kernel_grid kernel = default_kernel(defaults, volume);
    const Deconvolver deconvolver(std::make_shared<Natural_spline_basis>(defaults.basis_size),
                                  kernel, defaults.cell_cycle);
    const Gene_profile truth = sinusoid_profile(3.0, 2.0);
    const Noise_model noise{Noise_type::relative_gaussian, 0.08};

    Deconvolution_options options;
    options.lambda = 1e-3;
    Bootstrap_options boot;
    boot.replicates = 120;
    boot.coverage = 0.90;
    const Vector grid = linspace(0.10, 0.90, 9);

    const int experiments = 25;
    Vector hits(grid.size(), 0.0);
    double width_total = 0.0;
    for (int e = 0; e < experiments; ++e) {
        Rng rng(4000 + static_cast<std::uint64_t>(e));
        const Measurement_series data =
            forward_measurements_noisy(kernel, truth.f, noise, rng);
        boot.seed = 9000 + static_cast<std::uint64_t>(e);
        const Confidence_band band =
            bootstrap_confidence_band(deconvolver, data, options, grid, boot);
        width_total += band.mean_width();
        for (std::size_t p = 0; p < grid.size(); ++p) {
            const double v = truth(grid[p]);
            if (v >= band.lower[p] && v <= band.upper[p]) hits[p] += 1.0;
        }
    }

    std::printf("%d experiments x %zu bootstrap replicates, nominal coverage 90%%\n\n",
                experiments, boot.replicates);
    std::printf("  phi    empirical coverage\n");
    double mean_coverage = 0.0;
    for (std::size_t p = 0; p < grid.size(); ++p) {
        const double c = hits[p] / experiments;
        mean_coverage += c / static_cast<double>(grid.size());
        std::printf("  %.2f   %.0f%%\n", grid[p], 100.0 * c);
    }
    std::printf("\nmean empirical coverage : %.0f%% (nominal 90%%)\n", 100.0 * mean_coverage);
    std::printf("mean band width         : %.3f\n", width_total / experiments);
    std::printf("criterion mean coverage >= 60%% : %s\n",
                mean_coverage >= 0.60 ? "PASS" : "FAIL");
    std::printf("\nreading: coverage near nominal at smooth regions; shortfall reflects\n");
    std::printf("smoothing bias the residual bootstrap cannot capture (documented).\n");
    return 0;
}

// Quickstart: the full deconvolution loop in ~50 lines.
//
// 1. Pick a known single-cell profile f(phi).
// 2. Compute a Caulobacter population kernel Q(phi, t) and push f through
//    it to create population-level measurements G(t) (what an experiment
//    would report).
// 3. Deconvolve G back into an estimate of f and measure the recovery,
//    through deconvolve_one: the per-gene call behind
//    `cellsync_deconvolve run`.
#include <cstdio>
#include <memory>

#include "biology/gene_profiles.h"
#include "core/batch.h"
#include "core/forward_model.h"
#include "numerics/statistics.h"
#include "spline/spline_basis.h"

int main() {
    using namespace cellsync;

    // A cell-cycle regulated gene: one sinusoidal pulse per cycle.
    const Gene_profile truth = sinusoid_profile(/*offset=*/3.0, /*amplitude=*/2.0);

    // Population kernel at 13 sampling times (0..180 min, 15-min spacing),
    // like a typical microarray time course.
    const Cell_cycle_config caulobacter;  // Caulobacter defaults
    const Smooth_volume_model volume;
    const Kernel_grid kernel = build_kernel(caulobacter, volume, linspace(0.0, 180.0, 13));

    // Forward model + 5% measurement noise = simulated experiment.
    Rng rng(11);
    const Noise_model noise{Noise_type::relative_gaussian, 0.05};
    const Measurement_series data =
        forward_measurements_noisy(kernel, truth.f, noise, rng, "sinusoid gene");

    // Deconvolve on an 18-knot natural-spline basis: lambda chosen by
    // 5-fold cross-validation over default_lambda_grid(), then the
    // constrained estimate.
    const Deconvolver deconvolver(std::make_shared<Natural_spline_basis>(18), kernel,
                                  caulobacter);
    const Batch_options options = resolve_batch_options(*deconvolver.artifacts(), {});
    const Batch_entry result = deconvolve_one(deconvolver, data, options.lambda_grid, options);
    if (!result.estimate.has_value()) {
        std::fprintf(stderr, "quickstart: %s\n", result.error.c_str());
        return 1;
    }
    const Single_cell_estimate& estimate = *result.estimate;

    // Score recovery of the single-cell profile on a dense phase grid.
    const Vector grid = linspace(0.0, 1.0, 201);
    const Vector recovered = estimate.sample(grid);
    const Vector expected = truth.sample(grid);

    std::printf("quickstart: deconvolution of a synthetic cell-cycle gene\n");
    std::printf("  lambda (5-fold CV) : %.3e\n", result.lambda);
    std::printf("  data misfit chi^2  : %.3f (Nm = %zu)\n", estimate.chi_squared,
                data.size());
    std::printf("  recovery NRMSE     : %.3f\n", nrmse(recovered, expected));
    std::printf("  recovery corr      : %.3f\n", pearson_correlation(recovered, expected));
    std::printf("\n  phi    truth   recovered\n");
    for (double phi : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        std::printf("  %.2f   %6.3f  %6.3f\n", phi, truth(phi), estimate(phi));
    }
    return 0;
}

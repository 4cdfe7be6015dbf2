// The deconvolution machinery is not hard-wired to Caulobacter: every
// biological assumption enters through Cell_cycle_config, the Volume_model
// interface, and the constraint options. This example defines a
// hypothetical symmetrically dividing bacterium and runs the same
// deconvolution loop on it.
//
// Symmetric division (E. coli-like): both daughters inherit half the
// mother's volume and restart at phase 0. In cellsync terms that is a
// degenerate transition phase near 0 plus a custom volume model, with the
// Caulobacter-specific division-balance constraints switched off. Like
// every cellsync population it starts as a swarmer isolate, phi(0)
// uniform on [0, mu_sst): with mu_sst = 0.02 that is a nearly synchronous
// start at phase 0.
#include <cstdio>

#include "biology/gene_profiles.h"
#include "core/cross_validation.h"
#include "core/forward_model.h"
#include "numerics/statistics.h"
#include "spline/spline_basis.h"

namespace {

// Exponential volume growth v(phi) = 0.5 * 2^phi: v(0) = 0.5, v(1) = 1,
// and growth rate proportional to size — the classic rod-shaped-bacterium
// model. Division is symmetric, so the 40/60 Caulobacter split never
// appears.
class Exponential_volume_model final : public cellsync::Volume_model {
  public:
    double relative_volume(double phi, double) const override {
        return 0.5 * std::pow(2.0, std::clamp(phi, 0.0, 1.0));
    }
    double derivative(double phi, double) const override {
        return std::log(2.0) * relative_volume(phi, 0.5);
    }
    std::string name() const override { return "exponential-symmetric"; }
};

}  // namespace

int main() {
    using namespace cellsync;

    // A fast symmetric divider: 30-minute doubling time, tight timing.
    Cell_cycle_config organism;
    organism.mu_sst = 0.02;   // no morphological transition: keep it tiny
    organism.cv_sst = 0.0;    // and deterministic
    organism.mean_cycle_minutes = 30.0;
    organism.cv_cycle = 0.10;

    const Exponential_volume_model volume;
    const Gene_profile truth = pulse_profile(1.0, 5.0, 0.6, 0.2);

    // 12 measurements over two generations.
    const Kernel_grid kernel = build_kernel(organism, volume, linspace(0.0, 60.0, 12));
    const Measurement_series data = forward_measurements(kernel, truth.f, "reporter");

    // The Caulobacter division-balance constraints assume the 40/60
    // asymmetric split; a symmetric divider keeps positivity only. The
    // constraints are part of the organism model, so the design is built
    // for them.
    Deconvolution_options options;
    options.constraints.conservation = false;
    options.constraints.rate_continuity = false;
    const Deconvolver deconvolver(make_design_artifacts(
        std::make_shared<Natural_spline_basis>(14), kernel, organism, options.constraints));
    const Lambda_selection sel = select_lambda_kfold(deconvolver, data, options,
                                                     default_lambda_grid(11, 1e-6, 1e0), 4);
    options.lambda = sel.best_lambda;
    const Single_cell_estimate estimate = deconvolver.estimate(data, options);

    const Vector grid = linspace(0.05, 0.95, 37);
    std::printf("custom organism: symmetric divider, 30-min cycle, exponential growth\n");
    std::printf("  lambda (CV)    : %.3e\n", estimate.lambda);
    std::printf("  recovery corr  : %.3f\n",
                pearson_correlation(estimate.sample(grid), truth.sample(grid)));
    std::printf("  recovery nrmse : %.3f\n", nrmse(estimate.sample(grid), truth.sample(grid)));
    std::printf("\n  phi    truth  recovered\n");
    for (double phi : {0.1, 0.3, 0.5, 0.6, 0.7, 0.9}) {
        std::printf("  %.2f   %5.2f  %5.2f\n", phi, truth(phi), estimate(phi));
    }
    return 0;
}

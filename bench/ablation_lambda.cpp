// Ablation: the smoothness weight lambda (paper Eq 5).
//
// Sweeps lambda over eight decades at 10% noise and reports the bias /
// variance trade-off, then compares the CV- and GCV-selected lambdas with
// the oracle (truth-aware) choice. Craven & Wahba's argument is that the
// data-driven choices land near the oracle — this bench checks exactly
// that.
#include <cstdio>

#include "bench_util.h"

#include "biology/gene_profiles.h"

int main() {
    using namespace cellsync;
    using namespace cellsync::bench;
    print_header("ablation_lambda", "regularization sweep + CV/GCV vs oracle");

    Experiment_defaults defaults;
    const Smooth_volume_model volume;
    const Kernel_grid kernel = default_kernel(defaults, volume);
    const Deconvolver deconvolver(std::make_shared<Natural_spline_basis>(defaults.basis_size),
                                  kernel, defaults.cell_cycle);
    const Gene_profile truth = sinusoid_profile(3.0, 2.0);
    const Noise_model noise{Noise_type::relative_gaussian, 0.10};
    Rng rng(17);
    const Measurement_series data = forward_measurements_noisy(kernel, truth.f, noise, rng);

    const Vector grid = default_lambda_grid(17, 1e-8, 1e2);
    std::printf("  lambda      chi^2     roughness   nrmse(truth)\n");
    double oracle_lambda = grid.front();
    double oracle_error = 1e300;
    for (double lambda : grid) {
        Deconvolution_options options;
        options.lambda = lambda;
        const Single_cell_estimate estimate = deconvolver.estimate(data, options);
        const Recovery_score score = score_recovery(estimate, truth.f);
        std::printf("  %9.2e  %8.2f  %10.2f  %8.3f\n", lambda, estimate.chi_squared,
                    estimate.roughness, score.nrmse);
        if (score.nrmse < oracle_error) {
            oracle_error = score.nrmse;
            oracle_lambda = lambda;
        }
    }

    const Lambda_selection kfold =
        select_lambda_kfold(deconvolver, data, Deconvolution_options{}, grid, 5);
    const Lambda_selection gcv = select_lambda_gcv(deconvolver, data, grid);

    auto error_at = [&](double lambda) {
        Deconvolution_options options;
        options.lambda = lambda;
        return score_recovery(deconvolver.estimate(data, options), truth.f).nrmse;
    };
    std::printf("\nselection:\n");
    std::printf("  oracle : lambda=%.2e nrmse=%.3f\n", oracle_lambda, oracle_error);
    std::printf("  5-fold : lambda=%.2e nrmse=%.3f\n", kfold.best_lambda,
                error_at(kfold.best_lambda));
    std::printf("  GCV    : lambda=%.2e nrmse=%.3f\n", gcv.best_lambda,
                error_at(gcv.best_lambda));
    std::printf("criterion: CV within 1.5x of oracle error : %s\n",
                error_at(kfold.best_lambda) < 1.5 * oracle_error ? "PASS" : "FAIL");
    return 0;
}

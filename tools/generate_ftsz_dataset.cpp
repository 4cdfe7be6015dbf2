// Regenerates the embedded ftsZ dataset in src/io/expression_data.cpp.
// Provenance: ftsz_like_profile(0.16, 0.40, 10.0, 0.0) -> simulate_kernel
// (Caulobacter defaults, smooth volume model, 50k cells, seed 424242,
// times 0..150 at 15-min spacing) -> 8% relative Gaussian noise (seed 99).
// The data come from a Monte-Carlo kernel on purpose: an estimator that
// deconvolves them with build_kernel's computed kernel then works against
// a kernel other than the one that made the data, as with real data.
// expression_data_test rebuilds the series by this recipe and checks the
// embedded copy bit for bit.
#include <cstdio>

#include "biology/gene_profiles.h"
#include "core/forward_model.h"

int main() {
    using namespace cellsync;
    const Gene_profile truth = ftsz_like_profile(0.16, 0.40, 10.0, 0.0);
    Kernel_build_options options;
    options.n_cells = 50000;
    options.n_bins = 200;
    options.seed = 424242;
    const Kernel_grid kernel = simulate_kernel(Cell_cycle_config{}, Smooth_volume_model{},
                                               linspace(0.0, 150.0, 11), options);
    // Microarray background hybridization: an additive constant on top of
    // the true concentration signal (makes the series match the paper's
    // Fig 5 top panel, which starts well above zero).
    const double background = 2.0;
    Measurement_series clean = forward_measurements(kernel, truth.f);
    for (double& v : clean.values) v += background;
    Rng rng(99);
    const Noise_model noise{Noise_type::relative_gaussian, 0.08};
    const Measurement_series s = add_noise(clean, noise, rng);
    std::printf("time,value,sigma\n");
    for (std::size_t m = 0; m < s.size(); ++m) {
        std::printf("%.0f,%.17g,%.17g\n", s.times[m], s.values[m], s.sigmas[m]);
    }
    return 0;
}

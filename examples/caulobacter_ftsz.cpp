// The paper's Figure 5 workflow (Sec 4.3): deconvolve the Caulobacter ftsZ
// population expression time course and report the two findings the paper
// highlights — the transcription delay at the SW->ST transition (invisible
// in the raw data) and the post-peak drop with no late recovery (the raw
// data rises at the tail instead).
//
// Usage: caulobacter_ftsz [data.csv] — defaults to the embedded dataset.
#include <cstdio>
#include <string>

#include "core/cross_validation.h"
#include "io/csv.h"
#include "io/expression_data.h"
#include "io/series_writer.h"
#include "spline/spline_basis.h"

int main(int argc, char** argv) {
    using namespace cellsync;

    Measurement_series data;
    if (argc > 1) {
        data = series_from_table(read_csv_file(argv[1]), "ftsZ (user file)");
        std::printf("Loaded %zu measurements from %s\n", data.size(), argv[1]);
    } else {
        data = ftsz_population_dataset();
        std::printf("Using the embedded synthetic ftsZ dataset (%zu samples)\n", data.size());
    }

    // Kernel at the experiment's sampling times.
    const Cell_cycle_config caulobacter;  // paper defaults (mu_sst = 0.15)
    const Kernel_grid kernel = build_kernel(caulobacter, Smooth_volume_model{}, data.times);
    const Deconvolver deconvolver(std::make_shared<Natural_spline_basis>(16), kernel,
                                  caulobacter);

    const Lambda_selection sel = select_lambda_kfold(
        deconvolver, data, Deconvolution_options{}, default_lambda_grid(15, 1e-6, 1e1), 5);
    Deconvolution_options options;
    options.lambda = sel.best_lambda;
    const Single_cell_estimate ftsz = deconvolver.estimate(data, options);
    std::printf("lambda (5-fold CV): %.3e  chi^2: %.2f  active positivity rows: %zu\n",
                ftsz.lambda, ftsz.chi_squared, ftsz.active_constraints);

    // Deconvolved profile against 'simulated time' (phase x 150 min).
    const double cycle = caulobacter.mean_cycle_minutes;
    const Vector phase_grid = linspace(0.0, 1.0, 151);
    Series_writer writer("simulated_minutes", scaled(phase_grid, cycle));
    writer.add("deconvolved_ftsz", ftsz.sample(phase_grid));
    writer.write("fig5_ftsz_deconvolved.csv");
    write_csv_file("fig5_ftsz_population.csv", table_from_series(data));

    // Findings.
    double peak = 0.0, peak_phi = 0.0, floor_value = 1e300;
    for (double phi : phase_grid) {
        const double v = ftsz(phi);
        if (v > peak) {
            peak = v;
            peak_phi = phi;
        }
        floor_value = std::min(floor_value, v);
    }
    std::printf("\nfindings:\n");
    std::printf("  transcription delay : f(0.05)=%.2f f(0.10)=%.2f vs peak %.2f at phi=%.2f\n",
                ftsz(0.05), ftsz(0.10), peak, peak_phi);
    std::printf("  post-peak drop      : f(0.85)=%.2f (%.0f%% below peak)\n", ftsz(0.85),
                100.0 * (peak - ftsz(0.85)) / std::max(peak - floor_value, 1e-12));
    std::printf("  raw-data tail       : G rises %.2f -> %.2f over the last interval, while\n",
                data.values[data.size() - 2], data.values.back());
    std::printf("                        the deconvolved profile keeps falling — the paper's\n");
    std::printf("                        asynchronous-artifact diagnosis.\n");
    std::printf("\nwrote fig5_ftsz_deconvolved.csv and fig5_ftsz_population.csv\n");
    return 0;
}

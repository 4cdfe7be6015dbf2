// A realistic multi-gene workflow: one population kernel shared across a
// panel of cell-cycle genes, per-gene deconvolution with CV, uncertainty
// bands from the residual bootstrap, and a reconstruction of the
// transcriptional program (ordering genes by peak phase).
//
// Every gene is a synthetic profile from biology/gene_profiles (a
// three-wave program of staggered pulses, an early pulse and the ftsZ-like
// profile), so single-cell truths exist for every series.
#include <cstdio>
#include <string>

#include "biology/gene_profiles.h"
#include "core/batch.h"
#include "core/bootstrap.h"
#include "core/forward_model.h"
#include "population/kernel_io.h"
#include "spline/spline_basis.h"

int main() {
    using namespace cellsync;

    // --- One kernel for the whole panel (and persist it for reuse). ---
    const Cell_cycle_config caulobacter;
    const Smooth_volume_model volume;
    const Kernel_grid kernel = build_kernel(caulobacter, volume, linspace(0.0, 180.0, 13));
    write_kernel_file("panel_kernel.bin", kernel);
    std::printf("kernel: %zu time slices x %zu bins (saved to panel_kernel.bin)\n\n",
                kernel.time_count(), kernel.bin_count());

    // --- The gene panel: a three-wave program + two more synthetic genes. ---
    const double wave_centers[] = {0.20, 0.50, 0.80};
    std::vector<Gene_profile> truths;
    for (std::size_t w = 0; w < 3; ++w) {
        truths.push_back(pulse_profile(1.0, 4.0, wave_centers[w], 0.15));
        truths.back().name = "wave-" + std::to_string(w + 1);
    }
    truths.push_back(pulse_profile(0.5, 6.0, 0.30, 0.15));
    truths.back().name = "early-pulse";
    truths.push_back(ftsz_like_profile());

    Rng rng(2024);
    const Noise_model noise{Noise_type::relative_gaussian, 0.06};
    std::vector<Measurement_series> panel;
    for (const Gene_profile& truth : truths) {
        panel.push_back(forward_measurements_noisy(kernel, truth.f, noise, rng, truth.name));
    }

    // --- Batch deconvolution: one design precomputation for the whole
    // panel, then per-gene CV + estimate through deconvolve_one, the unit
    // run_experiment runs as one worker-pool task per gene. ---
    const Deconvolver deconvolver(std::make_shared<Natural_spline_basis>(16), kernel,
                                  caulobacter);
    Batch_options batch_options;
    batch_options.lambda_grid = default_lambda_grid(11, 1e-6, 1e0);
    std::vector<Batch_entry> batch;
    for (const Measurement_series& series : panel) {
        batch.push_back(
            deconvolve_one(deconvolver, series, batch_options.lambda_grid, batch_options));
    }

    std::printf("%-12s %-10s %-8s %-22s\n", "gene", "lambda", "chi^2", "90% band width (boot)");
    for (std::size_t g = 0; g < batch.size(); ++g) {
        const Batch_entry& entry = batch[g];
        if (!entry.estimate.has_value()) {
            std::printf("%-12s FAILED: %s\n", entry.label.c_str(), entry.error.c_str());
            continue;
        }
        Deconvolution_options options;
        options.lambda = entry.lambda;
        Bootstrap_options boot;
        boot.replicates = 120;
        const Confidence_band band = bootstrap_confidence_band(
            deconvolver, panel[g], options, linspace(0.05, 0.95, 19), boot);
        std::printf("%-12s %-10.2e %-8.2f %-22.3f\n", entry.label.c_str(), entry.lambda,
                    entry.estimate->chi_squared, band.mean_width());
    }

    // --- Transcriptional program: genes ordered by recovered peak phase. ---
    std::printf("\ntranscriptional program (recovered peak phase vs truth):\n");
    const std::vector<Peak_summary> program = peak_ordering(batch);
    for (const Peak_summary& peak : program) {
        double truth_peak_phi = 0.0, truth_peak = 0.0;
        for (const Gene_profile& truth : truths) {
            if (truth.name != peak.label) continue;
            for (double phi = 0.0; phi <= 1.0; phi += 0.005) {
                if (truth(phi) > truth_peak) {
                    truth_peak = truth(phi);
                    truth_peak_phi = phi;
                }
            }
        }
        std::printf("  %-12s recovered %.2f   truth %.2f\n", peak.label.c_str(),
                    peak.peak_phi, truth_peak_phi);
    }
    return 0;
}

// Streaming deconvolution walkthrough.
//
// A monitoring workload: population measurements for a small gene panel
// arrive one timepoint at a time, and we want each gene's single-cell
// profile estimate updated — and its stabilization detected — as the
// data accumulates, without re-solving anything from scratch.
//
//  1. Resolve the protocol's kernel through a Kernel_cache and open a
//     Stream_session (one shared design, one worker pool).
//  2. Feed timepoint batches as they "arrive"; every gene updates in
//     parallel via a rank-one normal-equation update plus a QP re-solve
//     on the reduced blocks.
//  3. Watch the per-gene convergence report; stop early once every
//     estimate has stabilized.
//  4. Verify the punchline: a stream fed the complete series reproduces
//     the batch estimate bit for bit.
#include <cmath>
#include <cstdio>

#include "biology/gene_profiles.h"
#include "core/deconvolver.h"
#include "core/forward_model.h"
#include "stream/stream_session.h"

using namespace cellsync;

int main() {
    // -- the protocol: 13 samples, 15-minute spacing, Caulobacter model --
    const Vector times = linspace(0.0, 180.0, 13);
    Cell_cycle_config config;
    Kernel_build_options kernel_options;
    kernel_options.n_cells = 20000;  // modest, for a fast demo

    // -- synthetic "arriving" data: three known single-cell profiles
    //    pushed through the forward model with measurement noise --
    const Smooth_volume_model volume;
    Kernel_cache cache;  // memory-only; point it at a directory to persist
    const Kernel_grid generation_kernel =
        build_kernel(config, volume, times, kernel_options);
    Rng rng(23);
    const Noise_model noise{Noise_type::relative_gaussian, 0.08};
    const std::vector<Measurement_series> panel = {
        forward_measurements_noisy(generation_kernel, ftsz_like_profile().f, noise, rng,
                                   "ftsZ"),
        forward_measurements_noisy(generation_kernel, pulse_profile(1.0, 6.0, 0.7, 0.15).f,
                                   noise, rng, "pulse"),
        forward_measurements_noisy(generation_kernel, sinusoid_profile(3.0, 2.0).f, noise,
                                   rng, "wave"),
    };

    // -- the session: kernel via cache (a repeat of the same protocol
    //    would skip the simulation), shared design, fixed lambda --
    Stream_session_options options;
    options.kernel = kernel_options;
    options.stream.lambda = 3e-4;
    options.stream.convergence.coefficient_tol = 2e-2;
    options.stream.convergence.score_tol = 2e-2;
    Stream_session session(config, volume, times, cache, options);
    std::printf("session ready: %zu-point grid, %zu worker threads\n\n", times.size(),
                session.thread_count());

    // -- stream the timepoints --
    bool stopped_early = false;
    std::size_t fed = 0;
    for (std::size_t m = 0; m < times.size(); ++m) {
        std::vector<Stream_record> records;
        for (const Measurement_series& series : panel) {
            records.push_back({series.label, series.values[m], series.sigmas[m]});
        }
        const std::vector<Stream_update> updates =
            session.append_timepoint(times[m], records);
        ++fed;

        std::printf("t = %5.0f min:", times[m]);
        for (const Stream_update& update : updates) {
            if (!update.error.empty()) {
                std::printf("  [%s]", update.error.c_str());
                continue;
            }
            std::printf("  %s r=%.2f%s", update.label.c_str(), update.order_parameter,
                        update.converged ? "*" : "");
        }
        std::printf("\n");

        if (session.all_converged()) {
            std::printf("\nall genes stabilized after %zu of %zu timepoints — a live "
                        "monitor could stop sampling here\n",
                        fed, times.size());
            stopped_early = true;
            break;
        }
    }
    if (!stopped_early) std::printf("\nstream drained (%zu timepoints)\n", fed);
    const Stream_solve_stats stats = session.total_stats();
    std::printf("solves: %zu updates\n\n", stats.updates);

    // -- bit-identity vs the batch path (finish any early-stopped stream
    //    first so both sides saw the complete series) --
    const Deconvolver deconvolver(session.artifacts().basis, *session.kernel(), config);
    Deconvolution_options batch_options;
    batch_options.lambda = options.stream.lambda;
    const Vector grid = linspace(0.0, 1.0, 201);
    for (const Measurement_series& series : panel) {
        Streaming_deconvolver& stream = *session.find_stream(series.label);
        for (std::size_t m = stream.observed(); m < series.size(); ++m) {
            stream.append(series.times[m], series.values[m], series.sigmas[m]);
        }
        const Single_cell_estimate batch = deconvolver.estimate(series, batch_options);
        const Vector& a = batch.coefficients();
        const Vector& b = stream.current().coefficients();
        bool identical = a.size() == b.size();
        for (std::size_t i = 0; identical && i < a.size(); ++i) identical = a[i] == b[i];
        const Vector profile = stream.current().sample(grid);
        std::size_t peak = 0;
        for (std::size_t i = 1; i < profile.size(); ++i) {
            if (profile[i] > profile[peak]) peak = i;
        }
        std::printf("%-6s final estimate %s the batch solution (peak at phi = %.2f)\n",
                    series.label.c_str(),
                    identical ? "bit-identical to" : "DIFFERS from", grid[peak]);
    }
    return 0;
}

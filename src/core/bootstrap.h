// Residual-bootstrap uncertainty quantification for the deconvolved
// profile.
//
// The point estimate f_hat(phi) answers "what is the synchronized
// expression"; downstream uses (parameter estimation, Sec 5) also need
// "how sure are we". This module builds pointwise confidence bands by the
// standardized residual bootstrap: refit on resampled measurement noise
// and collect quantiles of f*(phi) per phase point. This is an extension
// beyond the paper, motivated by its parameter-estimation programme.
#pragma once

#include <cstdint>

#include "core/deconvolver.h"
#include "core/worker_pool.h"

namespace cellsync {

/// Bootstrap controls.
struct Bootstrap_options {
    std::size_t replicates = 200;   ///< number of bootstrap refits
    double coverage = 0.90;         ///< central coverage of the band
    std::uint64_t seed = 1337;      ///< resampling RNG seed
    /// Refits that fail (QP infeasible on a pathological resample) are
    /// skipped; if more than this fraction fail, the bootstrap throws.
    double max_failure_fraction = 0.10;

    /// Throws std::invalid_argument for nonsensical settings.
    void validate() const;
};

/// Pointwise confidence band for f(phi) on a phase grid.
struct Confidence_band {
    Vector phi;        ///< evaluation grid
    Vector lower;      ///< lower band edge per point
    Vector median;     ///< bootstrap median per point
    Vector upper;      ///< upper band edge per point
    Vector point;      ///< the original (non-bootstrap) estimate
    std::size_t replicates_used = 0;

    /// Mean band width over the grid (a scalar uncertainty summary).
    double mean_width() const;

    /// True if the band contains `truth(phi)` at every grid point — used
    /// by validation studies where the truth is known.
    bool contains(const std::function<double(double)>& truth) const;

    /// Fraction of grid points whose band contains the truth.
    double coverage_fraction(const std::function<double(double)>& truth) const;
};

/// Standardized residual bootstrap around a fitted deconvolution.
///
/// Fits once, forms standardized residuals (G - Ghat)/sigma, then for each
/// replicate draws residuals with replacement, synthesizes
/// G* = Ghat + sigma * r*, refits with the same options, and records
/// f*(phi) on the grid. Replicate r draws from its own
/// Rng(mix_seed(seed, r)), so the band is a pure function of the options —
/// independent of thread count and scheduling. Throws
/// std::invalid_argument on bad options/grid and std::runtime_error if too
/// many refits fail.
Confidence_band bootstrap_confidence_band(const Deconvolver& deconvolver,
                                          const Measurement_series& series,
                                          const Deconvolution_options& options,
                                          const Vector& phi_grid,
                                          const Bootstrap_options& bootstrap = {});

/// Same bootstrap with the replicate refits distributed over a worker
/// pool (the CLI's `run --input --bootstrap N`). Bit-for-bit identical to
/// the serial overload for any pool size.
Confidence_band bootstrap_confidence_band(const Deconvolver& deconvolver,
                                          const Measurement_series& series,
                                          const Deconvolution_options& options,
                                          const Vector& phi_grid,
                                          const Bootstrap_options& bootstrap,
                                          Worker_pool& pool);

}  // namespace cellsync

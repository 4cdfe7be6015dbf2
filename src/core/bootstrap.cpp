#include "core/bootstrap.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "numerics/rng.h"
#include "numerics/statistics.h"

namespace cellsync {

void Bootstrap_options::validate() const {
    if (replicates < 10) {
        throw std::invalid_argument("Bootstrap_options: need at least 10 replicates");
    }
    if (!(coverage > 0.0 && coverage < 1.0)) {
        throw std::invalid_argument("Bootstrap_options: coverage must lie in (0, 1)");
    }
    if (!(max_failure_fraction >= 0.0 && max_failure_fraction < 1.0)) {
        throw std::invalid_argument("Bootstrap_options: bad max_failure_fraction");
    }
}

double Confidence_band::mean_width() const {
    if (phi.empty()) return 0.0;
    double w = 0.0;
    for (std::size_t i = 0; i < phi.size(); ++i) w += upper[i] - lower[i];
    return w / static_cast<double>(phi.size());
}

bool Confidence_band::contains(const std::function<double(double)>& truth) const {
    return coverage_fraction(truth) >= 1.0;
}

double Confidence_band::coverage_fraction(const std::function<double(double)>& truth) const {
    if (phi.empty()) return 0.0;
    std::size_t inside = 0;
    for (std::size_t i = 0; i < phi.size(); ++i) {
        const double v = truth(phi[i]);
        if (v >= lower[i] && v <= upper[i]) ++inside;
    }
    return static_cast<double>(inside) / static_cast<double>(phi.size());
}

Confidence_band bootstrap_confidence_band(const Deconvolver& deconvolver,
                                          const Measurement_series& series,
                                          const Deconvolution_options& options,
                                          const Vector& phi_grid,
                                          const Bootstrap_options& bootstrap) {
    Worker_pool serial(1);
    return bootstrap_confidence_band(deconvolver, series, options, phi_grid, bootstrap,
                                     serial);
}

Confidence_band bootstrap_confidence_band(const Deconvolver& deconvolver,
                                          const Measurement_series& series,
                                          const Deconvolution_options& options,
                                          const Vector& phi_grid,
                                          const Bootstrap_options& bootstrap,
                                          Worker_pool& pool) {
    bootstrap.validate();
    if (phi_grid.empty()) {
        throw std::invalid_argument("bootstrap_confidence_band: empty phase grid");
    }

    // Base fit and standardized residuals.
    const Single_cell_estimate base = deconvolver.estimate(series, options);
    const std::size_t m = series.size();

    // Phase-grid design, built once and shared by every replicate: each
    // replicate's profile sampling becomes one mat-vec instead of a
    // per-point basis evaluation, bit-identical to estimate.sample() (same
    // increasing-index accumulation per grid point).
    const Matrix phi_design = deconvolver.basis().design_matrix(phi_grid);
    Vector std_residuals(m);
    for (std::size_t i = 0; i < m; ++i) {
        std_residuals[i] = (series.values[i] - base.fitted[i]) / series.sigmas[i];
    }
    // Center so resampling does not inject a bias term.
    const double residual_mean = mean(std_residuals);
    for (double& r : std_residuals) r -= residual_mean;

    // Replicates are independent tasks writing into their own slot, each
    // seeded from (seed, replicate index): the result cannot depend on
    // thread count or scheduling.
    std::vector<std::optional<Vector>> slots(bootstrap.replicates);
    pool.parallel_for("bootstrap", bootstrap.replicates, [&](std::size_t rep) {
        Rng rng(mix_seed(bootstrap.seed, rep));
        Measurement_series resampled = series;
        for (std::size_t i = 0; i < m; ++i) {
            resampled.values[i] =
                base.fitted[i] + series.sigmas[i] * std_residuals[rng.index(m)];
        }
        try {
            const Single_cell_estimate refit = deconvolver.estimate(resampled, options);
            slots[rep] = phi_design * refit.coefficients();
        } catch (const std::runtime_error&) {
            // Failed refit: slot stays empty and is counted below.
        }
    });

    std::vector<Vector> samples;  // per successful replicate: f*(phi_grid)
    samples.reserve(bootstrap.replicates);
    for (std::optional<Vector>& slot : slots) {
        if (slot.has_value()) samples.push_back(std::move(*slot));
    }
    const std::size_t failures = bootstrap.replicates - samples.size();
    if (static_cast<double>(failures) >
        bootstrap.max_failure_fraction * static_cast<double>(bootstrap.replicates)) {
        throw std::runtime_error("bootstrap_confidence_band: too many refit failures (" +
                                 std::to_string(failures) + "/" +
                                 std::to_string(bootstrap.replicates) + ")");
    }

    Confidence_band band;
    band.phi = phi_grid;
    band.point = phi_design * base.coefficients();
    band.replicates_used = samples.size();
    band.lower.resize(phi_grid.size());
    band.median.resize(phi_grid.size());
    band.upper.resize(phi_grid.size());

    const double tail = 0.5 * (1.0 - bootstrap.coverage);
    Vector column(samples.size());
    for (std::size_t p = 0; p < phi_grid.size(); ++p) {
        for (std::size_t s = 0; s < samples.size(); ++s) column[s] = samples[s][p];
        std::sort(column.begin(), column.end());
        band.lower[p] = quantile_sorted(column, tail);
        band.median[p] = quantile_sorted(column, 0.5);
        band.upper[p] = quantile_sorted(column, 1.0 - tail);
    }
    return band;
}

}  // namespace cellsync

#include "core/constraints.h"

#include <algorithm>
#include <stdexcept>

#include "biology/volume_model.h"
#include "numerics/quadrature.h"
#include "numerics/special.h"

namespace cellsync {

namespace {

// Integrate g(phi) p(phi) over the support of p intersected with [0, 1].
// The transition-phase density is narrow (sigma ~ 0.02), so integrating
// over mean +/- 8 sigma clipped to [0, 1] captures all mass; Gauss-Legendre
// with 64 points is far beyond the needed accuracy for smooth g.
double integrate_against_p(const std::function<double(double)>& g,
                           const Cell_cycle_config& config) {
    const double mu = config.mu_sst;
    const double sigma = config.sigma_sst();
    if (sigma == 0.0) return g(mu);  // degenerate distribution
    const double lo = std::max(0.0, mu - 8.0 * sigma);
    const double hi = std::min(1.0, mu + 8.0 * sigma);
    return integrate_gauss(
        [&](double phi) { return g(phi) * gaussian_pdf(phi, mu, sigma); }, lo, hi, 64);
}

}  // namespace

double beta0(const Cell_cycle_config& config) {
    config.validate();
    return integrate_against_p([](double phi) { return growth_rate_beta(phi); }, config);
}

Vector conservation_row(const Natural_spline_basis& basis, const Cell_cycle_config& config) {
    config.validate();
    Vector row(basis.size());
    for (std::size_t i = 0; i < basis.size(); ++i) {
        const double avg =
            integrate_against_p([&](double phi) { return basis.value(i, phi); }, config);
        row[i] = basis.value(i, 1.0) - swarmer_volume_fraction * basis.value(i, 0.0) -
                 stalked_volume_fraction * avg;
    }
    return row;
}

Vector rate_continuity_row(const Natural_spline_basis& basis, const Cell_cycle_config& config) {
    config.validate();
    const double b0 = beta0(config);
    Vector row(basis.size());
    for (std::size_t i = 0; i < basis.size(); ++i) {
        const double beta_avg = integrate_against_p(
            [&](double phi) { return growth_rate_beta(phi) * basis.value(i, phi); }, config);
        const double deriv_avg =
            integrate_against_p([&](double phi) { return basis.derivative(i, phi); }, config);
        // integral(w1 f) - integral(w2 f') = 0 expanded per basis function.
        row[i] = b0 * basis.value(i, 1.0) - b0 * basis.value(i, 0.0) - beta_avg -
                 (swarmer_volume_fraction * basis.derivative(i, 0.0) +
                  stalked_volume_fraction * deriv_avg - basis.derivative(i, 1.0));
    }
    return row;
}

Constraint_set build_constraints(const Natural_spline_basis& basis,
                                 const Cell_cycle_config& config,
                                 const Constraint_options& options) {
    config.validate();
    if (options.positivity && options.positivity_points < 2) {
        throw std::invalid_argument("build_constraints: need at least 2 positivity points");
    }

    Constraint_set set;
    std::vector<Vector> eq_rows;
    if (options.conservation) eq_rows.push_back(conservation_row(basis, config));
    if (options.rate_continuity) eq_rows.push_back(rate_continuity_row(basis, config));
    set.equality = eq_rows.empty() ? Matrix(0, basis.size()) : Matrix::from_rows(eq_rows);
    set.equality_rhs.assign(set.equality.rows(), 0.0);

    if (options.positivity) {
        set.inequality = basis.design_matrix(linspace(0.0, 1.0, options.positivity_points));
    } else {
        set.inequality = Matrix(0, basis.size());
    }
    set.inequality_rhs.assign(set.inequality.rows(), 0.0);
    return set;
}

}  // namespace cellsync

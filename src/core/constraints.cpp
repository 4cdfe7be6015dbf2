#include "core/constraints.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "biology/volume_model.h"
#include "numerics/quadrature.h"
#include "numerics/special.h"

namespace cellsync {

namespace {

// The transition-phase density is narrow (sigma ~ 0.02), so integrating
// over mean +/- 8 sigma clipped to [0, 1] captures all mass; Gauss-Legendre
// with 64 points is far beyond the needed accuracy for smooth g. The rule
// depends on the config alone, so each caller builds it once and shares it
// across every integral it takes. Empty when the distribution is a point
// mass for the rule: sigma = 0, or a window too narrow for 64 distinct
// nodes (a positive cv_sst of about 1e-16 or less leaves it a few ulps
// wide). integrate_against_p then evaluates at the mean.
Quadrature_rule transition_rule(const Cell_cycle_config& config) {
    constexpr std::size_t nodes = 64;
    const double mu = config.mu_sst;
    const double sigma = config.sigma_sst();
    if (sigma == 0.0) return {};
    const double lo = std::max(0.0, mu - 8.0 * sigma);
    const double hi = std::min(1.0, mu + 8.0 * sigma);
    if (!(lo < hi)) return {};
    Quadrature_rule rule = gauss_legendre(nodes, lo, hi);
    if (std::adjacent_find(rule.nodes.begin(), rule.nodes.end(), std::greater_equal<>()) !=
        rule.nodes.end()) {
        return {};
    }
    return rule;
}

// Integrate g(phi) p(phi) with the config's transition_rule, summing
// w_i (g(phi_i) p(phi_i)) in node order, as integrate_gauss does; an
// empty rule is the point mass at the mean.
template <typename G>
double integrate_against_p(const G& g, const Quadrature_rule& rule,
                           const Cell_cycle_config& config) {
    const double mu = config.mu_sst;
    const double sigma = config.sigma_sst();
    if (rule.nodes.empty()) return g(mu);  // degenerate distribution
    double s = 0.0;
    for (std::size_t i = 0; i < rule.nodes.size(); ++i) {
        const double phi = rule.nodes[i];
        s += rule.weights[i] * (g(phi) * gaussian_pdf(phi, mu, sigma));
    }
    return s;
}

double beta0(const Cell_cycle_config& config, const Quadrature_rule& rule) {
    return integrate_against_p([](double phi) { return growth_rate_beta(phi); }, rule, config);
}

Vector conservation_row(const Natural_spline_basis& basis, const Cell_cycle_config& config,
                        const Quadrature_rule& rule) {
    Vector row(basis.size());
    for (std::size_t i = 0; i < basis.size(); ++i) {
        const double avg =
            integrate_against_p([&](double phi) { return basis.value(i, phi); }, rule, config);
        row[i] = basis.value(i, 1.0) - swarmer_volume_fraction * basis.value(i, 0.0) -
                 stalked_volume_fraction * avg;
    }
    return row;
}

Vector rate_continuity_row(const Natural_spline_basis& basis, const Cell_cycle_config& config,
                           const Quadrature_rule& rule) {
    const double b0 = beta0(config, rule);
    Vector row(basis.size());
    for (std::size_t i = 0; i < basis.size(); ++i) {
        const double beta_avg = integrate_against_p(
            [&](double phi) { return growth_rate_beta(phi) * basis.value(i, phi); }, rule,
            config);
        const double deriv_avg = integrate_against_p(
            [&](double phi) { return basis.derivative(i, phi); }, rule, config);
        // integral(w1 f) - integral(w2 f') = 0 expanded per basis function.
        row[i] = b0 * basis.value(i, 1.0) - b0 * basis.value(i, 0.0) - beta_avg -
                 (swarmer_volume_fraction * basis.derivative(i, 0.0) +
                  stalked_volume_fraction * deriv_avg - basis.derivative(i, 1.0));
    }
    return row;
}

}  // namespace

double beta0(const Cell_cycle_config& config) {
    config.validate();
    return beta0(config, transition_rule(config));
}

Vector conservation_row(const Natural_spline_basis& basis, const Cell_cycle_config& config) {
    config.validate();
    return conservation_row(basis, config, transition_rule(config));
}

Vector rate_continuity_row(const Natural_spline_basis& basis, const Cell_cycle_config& config) {
    config.validate();
    return rate_continuity_row(basis, config, transition_rule(config));
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
    const Quadrature_rule rule = transition_rule(config);
    if (options.conservation) eq_rows.push_back(conservation_row(basis, config, rule));
    if (options.rate_continuity) eq_rows.push_back(rate_continuity_row(basis, config, rule));
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

#include "population/synchrony.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

#include "population/phase_distribution.h"

namespace cellsync {

double phase_order_parameter(const std::vector<Snapshot_entry>& snapshot) {
    if (snapshot.empty()) throw std::invalid_argument("phase_order_parameter: empty snapshot");
    double re = 0.0, im = 0.0;
    for (const Snapshot_entry& e : snapshot) {
        const double a = 2.0 * std::numbers::pi * e.phi;
        re += std::cos(a);
        im += std::sin(a);
    }
    const double n = static_cast<double>(snapshot.size());
    return std::sqrt(re * re + im * im) / n;
}

double phase_entropy(const std::vector<Snapshot_entry>& snapshot, std::size_t bins) {
    if (bins < 2) throw std::invalid_argument("phase_entropy: need at least 2 bins");
    const Phase_density d = phase_number_density(snapshot, bins);
    double h = 0.0;
    for (double rho : d.density) {
        const double p = rho * d.bin_width;  // bin probability
        if (p > 0.0) h -= p * std::log(p);
    }
    return h / std::log(static_cast<double>(bins));
}

namespace {

/// Clamp negatives to zero and normalize to probabilities; throws when the
/// clamped profile carries no mass.
Vector profile_probabilities(const Vector& values, const char* caller) {
    if (values.size() < 2) {
        throw std::invalid_argument(std::string(caller) + ": need at least 2 samples");
    }
    Vector p(values.size());
    double total = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        p[i] = std::max(values[i], 0.0);
        total += p[i];
    }
    if (!(total > 0.0)) {
        throw std::invalid_argument(std::string(caller) +
                                    ": profile has no positive mass");
    }
    for (double& v : p) v /= total;
    return p;
}

}  // namespace

double profile_order_parameter(const Vector& phi, const Vector& values) {
    if (phi.size() != values.size()) {
        throw std::invalid_argument("profile_order_parameter: grid/profile size mismatch");
    }
    const Vector p = profile_probabilities(values, "profile_order_parameter");
    double re = 0.0, im = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
        const double a = 2.0 * std::numbers::pi * phi[i];
        re += p[i] * std::cos(a);
        im += p[i] * std::sin(a);
    }
    return std::sqrt(re * re + im * im);
}

double profile_entropy(const Vector& values) {
    const Vector p = profile_probabilities(values, "profile_entropy");
    double h = 0.0;
    for (double v : p) {
        if (v > 0.0) h -= v * std::log(v);
    }
    return h / std::log(static_cast<double>(p.size()));
}

Profile_scores score_profile(const Vector& phi, const Vector& values) {
    if (phi.size() != values.size()) {
        throw std::invalid_argument("score_profile: grid/profile size mismatch");
    }
    const bool closed = phi.size() > 2 && phi.front() == 0.0 && phi.back() == 1.0;
    const auto end = static_cast<std::ptrdiff_t>(closed ? phi.size() - 1 : phi.size());
    const Vector open_phi(phi.begin(), phi.begin() + end);
    const Vector open_values(values.begin(), values.begin() + end);
    Profile_scores scores;
    scores.order_parameter = profile_order_parameter(open_phi, open_values);
    scores.entropy = profile_entropy(open_values);
    const auto peak = std::max_element(open_values.begin(), open_values.end());
    scores.peak_phi = open_phi[static_cast<std::size_t>(peak - open_values.begin())];
    return scores;
}

}  // namespace cellsync

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

/// Clamp negatives to zero and normalize to probabilities in `p`; false
/// when the clamped profile carries no mass.
bool normalize_mass(const Vector& values, Vector& p) {
    p.resize(values.size());
    double total = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        p[i] = std::max(values[i], 0.0);
        total += p[i];
    }
    if (!(total > 0.0)) return false;
    for (double& v : p) v /= total;
    return true;
}

void require_two_samples(const Vector& values, const char* caller) {
    if (values.size() < 2) {
        throw std::invalid_argument(std::string(caller) + ": need at least 2 samples");
    }
}

/// normalize_mass's probabilities; throws when the clamped profile has no
/// mass.
Vector profile_probabilities(const Vector& values, const char* caller) {
    require_two_samples(values, caller);
    Vector p;
    if (!normalize_mass(values, p)) {
        throw std::invalid_argument(std::string(caller) +
                                    ": profile has no positive mass");
    }
    return p;
}

}  // namespace

Phase_table::Phase_table(const Vector& phi) : cos_(phi.size()), sin_(phi.size()) {
    for (std::size_t i = 0; i < phi.size(); ++i) {
        const double a = 2.0 * std::numbers::pi * phi[i];
        cos_[i] = std::cos(a);
        sin_[i] = std::sin(a);
    }
}

std::optional<double> Phase_table::order_parameter(const Vector& values) const {
    if (values.size() != size()) {
        throw std::invalid_argument("Phase_table: grid/profile size mismatch");
    }
    require_two_samples(values, "Phase_table");
    Vector p;
    if (!normalize_mass(values, p)) return std::nullopt;
    double re = 0.0, im = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
        re += p[i] * cos_[i];
        im += p[i] * sin_[i];
    }
    return std::sqrt(re * re + im * im);
}

double profile_order_parameter(const Vector& phi, const Vector& values) {
    if (phi.size() != values.size()) {
        throw std::invalid_argument("profile_order_parameter: grid/profile size mismatch");
    }
    require_two_samples(values, "profile_order_parameter");
    const std::optional<double> r = Phase_table(phi).order_parameter(values);
    if (!r.has_value()) {
        throw std::invalid_argument("profile_order_parameter: profile has no positive mass");
    }
    return *r;
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
    return Profile_scorer(phi)(values);
}

Profile_scorer::Profile_scorer(const Vector& phi) : size_(phi.size()) {
    const bool closed = phi.size() > 2 && phi.front() == 0.0 && phi.back() == 1.0;
    open_phi_.assign(phi.begin(), phi.end() - (closed ? 1 : 0));
    phases_ = Phase_table(open_phi_);
}

Profile_scores Profile_scorer::operator()(const Vector& values) const {
    if (values.size() != size_) {
        throw std::invalid_argument("score_profile: grid/profile size mismatch");
    }
    const Vector open_values(values.begin(),
                             values.begin() + static_cast<std::ptrdiff_t>(open_phi_.size()));
    const std::optional<double> order = phases_.order_parameter(open_values);
    if (!order.has_value()) {
        throw std::invalid_argument("score_profile: profile has no positive mass");
    }
    Profile_scores scores;
    scores.order_parameter = *order;
    scores.entropy = profile_entropy(open_values);
    const auto peak = std::max_element(open_values.begin(), open_values.end());
    scores.peak_phi = open_phi_[static_cast<std::size_t>(peak - open_values.begin())];
    return scores;
}

}  // namespace cellsync

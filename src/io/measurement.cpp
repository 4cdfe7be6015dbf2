#include "io/measurement.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace cellsync {

bool valid_sigma(double sigma) {
    if (!(sigma > 0.0)) return false;
    const double w = 1.0 / (sigma * sigma);
    return std::isfinite(w) && w > 0.0;
}

void Measurement_series::validate() const {
    if (times.size() != values.size() || times.size() != sigmas.size()) {
        throw std::invalid_argument("Measurement_series: length mismatch");
    }
    if (times.size() < 2) {
        throw std::invalid_argument("Measurement_series: need at least 2 measurements");
    }
    for (std::size_t i = 0; i + 1 < times.size(); ++i) {
        if (!(times[i] < times[i + 1])) {
            throw std::invalid_argument("Measurement_series: times must be strictly ascending");
        }
    }
    for (std::size_t i = 0; i < times.size(); ++i) {
        if (!valid_sigma(sigmas[i])) {
            throw std::invalid_argument(
                "Measurement_series '" + label + "': sigma at row " + std::to_string(i) +
                " (t=" + std::to_string(times[i]) +
                ") must be positive with a finite weight 1/sigma^2");
        }
        if (!std::isfinite(values[i]) || !std::isfinite(times[i])) {
            throw std::invalid_argument("Measurement_series: non-finite entry");
        }
    }
}

Vector Measurement_series::weights() const {
    Vector w(sigmas.size());
    for (std::size_t i = 0; i < sigmas.size(); ++i) w[i] = 1.0 / (sigmas[i] * sigmas[i]);
    return w;
}

Measurement_series Measurement_series::with_unit_sigma(std::string label, Vector times,
                                                       Vector values) {
    Measurement_series s;
    s.label = std::move(label);
    s.times = std::move(times);
    s.values = std::move(values);
    s.sigmas.assign(s.times.size(), 1.0);
    s.validate();
    return s;
}

}  // namespace cellsync

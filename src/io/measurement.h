// Population-level measurement containers.
//
// A measurement series is the experimental input of the method: values
// G(t_m) of a population expression assay at a small number of times, with
// per-measurement standard deviations sigma_m used to weight the data
// misfit in the estimation criterion (paper Eq 5).
#pragma once

#include <string>

#include "numerics/vector_ops.h"

namespace cellsync {

/// True when sigma can weight a measurement: sigma > 0 and the weight
/// w = 1/sigma^2 is finite and positive. The weight test is what rejects
/// sigma = +inf (w = 0) and sigmas so small that w overflows (1e-170 is
/// finite and positive, but 1/sigma^2 is inf). Every reader and
/// estimator checks sigma through this one predicate.
bool valid_sigma(double sigma);

/// Time series of population measurements {(t_m, G_m, sigma_m)}.
struct Measurement_series {
    std::string label;  ///< e.g. gene name
    Vector times;       ///< minutes, strictly ascending
    Vector values;      ///< measured population expression G(t_m)
    Vector sigmas;      ///< per-measurement standard deviation (valid_sigma)

    /// Number of measurements Nm.
    std::size_t size() const { return times.size(); }

    /// Validate invariants: equal lengths, >= 2 points, ascending times,
    /// valid_sigma sigmas, finite values. Throws std::invalid_argument
    /// naming the offending row and time.
    void validate() const;

    /// Weights for the least-squares criterion: w_m = 1 / sigma_m^2.
    Vector weights() const;

    /// Convenience constructor with uniform unit sigma.
    static Measurement_series with_unit_sigma(std::string label, Vector times, Vector values);
};

}  // namespace cellsync

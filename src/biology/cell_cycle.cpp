#include "biology/cell_cycle.h"

#include <cmath>
#include <stdexcept>

namespace cellsync {

void Cell_cycle_config::validate() const {
    if (!(mu_sst > 0.0 && mu_sst < 1.0)) {
        throw std::invalid_argument("Cell_cycle_config: mu_sst must lie in (0, 1)");
    }
    if (!(cv_sst >= 0.0 && cv_sst < 1.0)) {
        throw std::invalid_argument("Cell_cycle_config: cv_sst must lie in [0, 1)");
    }
    if (!(mean_cycle_minutes > 0.0)) {
        throw std::invalid_argument("Cell_cycle_config: mean_cycle_minutes must be positive");
    }
    if (!(cv_cycle >= 0.0 && cv_cycle < 1.0)) {
        throw std::invalid_argument("Cell_cycle_config: cv_cycle must lie in [0, 1)");
    }
}

Cell_parameters draw_cell_parameters(const Cell_cycle_config& config, Rng& rng) {
    config.validate();
    Cell_parameters p;
    p.phi_sst = rng.truncated_normal(config.mu_sst, config.sigma_sst(), phi_sst_min, phi_sst_max);
    p.cycle_minutes = rng.truncated_normal(config.mean_cycle_minutes, config.sigma_cycle(),
                                           cycle_min_factor * config.mean_cycle_minutes,
                                           cycle_max_factor * config.mean_cycle_minutes);
    return p;
}

double draw_initial_phase(const Cell_cycle_config& config, const Cell_parameters& params,
                          Rng& rng) {
    switch (config.initial_mode) {
        case Initial_phase_mode::all_at_zero:
            return 0.0;
        case Initial_phase_mode::synchronized_swarmers:
            // A fresh swarmer isolate: every cell is somewhere in its SW
            // stage, uniformly (Evinger & Agabian; paper Sec 2.1).
            return rng.uniform(0.0, params.phi_sst);
        case Initial_phase_mode::stationary: {
            // Steady-state age distribution of an exponentially growing
            // population: density 2 ln(2) 2^{-phi}; sample by inversion.
            const double u = rng.uniform();
            return -std::log2(1.0 - u * 0.5);
        }
    }
    throw std::invalid_argument("draw_initial_phase: unknown initial mode");
}

double advance_phase(double phi0, double t_minutes, const Cell_parameters& params) {
    if (params.cycle_minutes <= 0.0) {
        throw std::invalid_argument("advance_phase: cycle time must be positive");
    }
    return phi0 + t_minutes / params.cycle_minutes;
}

}  // namespace cellsync

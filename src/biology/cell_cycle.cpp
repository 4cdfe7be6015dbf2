#include "biology/cell_cycle.h"

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

double draw_initial_phase(const Cell_parameters& params, Rng& rng) {
    // A fresh swarmer isolate: every cell is somewhere in its SW stage,
    // uniformly (Evinger & Agabian; paper Sec 2.1).
    return rng.uniform(0.0, params.phi_sst);
}

double advance_phase(double phi0, double t_minutes, const Cell_parameters& params) {
    if (params.cycle_minutes <= 0.0) {
        throw std::invalid_argument("advance_phase: cycle time must be positive");
    }
    return phi0 + t_minutes / params.cycle_minutes;
}

}  // namespace cellsync

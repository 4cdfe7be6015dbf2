// Cell-cycle phase model for Caulobacter crescentus (paper Sec 2.1).
//
// A cell's phase phi in [0,1] advances linearly in experiment time at rate
// 1/T_k (T_k = the cell's total cycle time). The SW->ST transition phase
// phi_sst_k is normally distributed across the population with mean 0.15
// (2011 update) and CV 0.13. At phi = 1 the cell divides into an SW
// daughter (phi = 0) and an ST daughter (phi = its own phi_sst). Every
// population starts as a synchronized swarmer isolate: phi_k(0) uniform
// on [0, phi_sst_k) (paper Sec 2.1).
#pragma once

#include "numerics/rng.h"

namespace cellsync {

/// Population-level cell-cycle parameters.
///
/// Defaults reproduce the paper's Caulobacter model: mu_sst = 0.15 (updated
/// from 0.25), cv_sst = 0.13, mean cycle time 150 minutes. The cycle-time
/// CV is not stated in the DAC paper; 0.12 follows the companion model
/// (Siegal-Gaskins et al. 2009) and is configurable.
struct Cell_cycle_config {
    double mu_sst = 0.15;          ///< mean SW->ST transition phase
    double cv_sst = 0.13;          ///< CV of the transition phase
    double mean_cycle_minutes = 150.0;  ///< mean total cycle time T
    double cv_cycle = 0.12;        ///< CV of the cycle time

    /// Validate ranges; throws std::invalid_argument with a description of
    /// the offending field.
    void validate() const;

    /// Standard deviation of the transition phase (mu_sst * cv_sst).
    double sigma_sst() const { return mu_sst * cv_sst; }

    /// Standard deviation of the cycle time.
    double sigma_cycle() const { return mean_cycle_minutes * cv_cycle; }
};

/// Per-cell parameters theta_k = {phi_sst_k, T_k} (paper Sec 2.2).
struct Cell_parameters {
    double phi_sst = 0.15;        ///< this cell's SW->ST transition phase
    double cycle_minutes = 150.0; ///< this cell's total cycle time T_k
};

/// The biologically sane windows per-cell parameters are truncated to:
/// phi_sst in [phi_sst_min, phi_sst_max], T in [cycle_min_factor,
/// cycle_max_factor] x the mean cycle time. draw_cell_parameters draws
/// inside them, and build_kernel integrates over them.
inline constexpr double phi_sst_min = 0.01;
inline constexpr double phi_sst_max = 0.95;
inline constexpr double cycle_min_factor = 0.2;
inline constexpr double cycle_max_factor = 3.0;

/// Draw per-cell parameters from the population distributions, truncated
/// to the windows above to exclude impossible cells from the simulation.
Cell_parameters draw_cell_parameters(const Cell_cycle_config& config, Rng& rng);

/// Draw a cell's phase at t = 0 in a synchronized swarmer isolate:
/// uniform on [0, params.phi_sst), somewhere in its SW stage.
double draw_initial_phase(const Cell_parameters& params, Rng& rng);

/// Phase of a (non-dividing) cell at time t given its phase at time 0:
/// phi(t) = phi0 + t / T. The caller handles division when the result
/// crosses 1.
double advance_phase(double phi0, double t_minutes, const Cell_parameters& params);

}  // namespace cellsync

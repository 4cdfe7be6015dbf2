// Agent-based simulation of an asynchronously growing cell population
// (paper Sec 2.1).
//
// Each cell advances through phase at rate 1/T_k; when it reaches phi = 1
// it is replaced by an SW daughter (phi = 0) and an ST daughter (phi =
// its freshly drawn phi_sst). Snapshots of (phi, phi_sst, volume) feed the
// phase-distribution estimators and the kernel builder. Given a seed, runs
// are bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "biology/cell_cycle.h"
#include "biology/volume_model.h"

namespace cellsync {

/// One simulated cell, stored by its birth record; the phase at any time
/// follows from phi = birth_phase + (t - birth_time) / T.
struct Simulated_cell {
    double birth_time = 0.0;   ///< experiment time the cell appeared (minutes)
    double birth_phase = 0.0;  ///< phase at birth (0 for SW, phi_sst for ST daughters)
    Cell_parameters params;    ///< this cell's theta_k = {phi_sst, T}

    /// Phase at time t (caller must not exceed division_time()).
    double phase_at(double t) const {
        return birth_phase + (t - birth_time) / params.cycle_minutes;
    }

    /// Experiment time at which this cell reaches phi = 1 and divides.
    double division_time() const {
        return birth_time + params.cycle_minutes * (1.0 - birth_phase);
    }
};

/// Per-cell view of the population at the simulator's current time.
struct Snapshot_entry {
    double phi = 0.0;              ///< cell-cycle phase
    double phi_sst = 0.0;          ///< the cell's SW->ST transition phase
    double relative_volume = 0.0;  ///< v(phi)/V0 under the chosen volume model
};

/// Forward-only population simulator.
class Population_simulator {
  public:
    /// Create `initial_cells` cells at t = 0 as a synchronized swarmer
    /// isolate (draw_initial_phase). Throws std::invalid_argument for zero
    /// cells or an invalid config.
    Population_simulator(const Cell_cycle_config& config, std::size_t initial_cells,
                         std::uint64_t seed);

    /// Advance the simulation clock (monotonically) to `t_minutes`,
    /// performing all divisions along the way. Throws std::invalid_argument
    /// if asked to move backwards.
    void advance_to(double t_minutes);

    /// Current simulation time in minutes.
    double time() const { return time_; }

    /// Number of live cells.
    std::size_t size() const { return cells_.size(); }

    /// Live-cell records.
    const std::vector<Simulated_cell>& cells() const { return cells_; }

    /// Per-cell phases and volumes at the current time.
    std::vector<Snapshot_entry> snapshot(const Volume_model& volume_model) const;

    /// Total relative population volume at the current time (sum of
    /// per-cell relative volumes), i.e. the V(t)/V0 of paper Eq 1 up to the
    /// constant N V0.
    double total_relative_volume(const Volume_model& volume_model) const;

  private:
    Cell_cycle_config config_;
    Rng rng_;
    double time_ = 0.0;
    std::vector<Simulated_cell> cells_;
};

}  // namespace cellsync

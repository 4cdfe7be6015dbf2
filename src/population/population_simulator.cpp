#include "population/population_simulator.h"

#include <stdexcept>

namespace cellsync {

Population_simulator::Population_simulator(const Cell_cycle_config& config,
                                           std::size_t initial_cells, std::uint64_t seed)
    : config_(config), rng_(seed) {
    config_.validate();
    if (initial_cells == 0) {
        throw std::invalid_argument("Population_simulator: need at least one initial cell");
    }
    cells_.reserve(initial_cells * 2);
    for (std::size_t i = 0; i < initial_cells; ++i) {
        Simulated_cell cell;
        cell.params = draw_cell_parameters(config_, rng_);
        cell.birth_time = 0.0;
        cell.birth_phase = draw_initial_phase(cell.params, rng_);
        cells_.push_back(cell);
    }
}

void Population_simulator::advance_to(double t_minutes) {
    if (t_minutes < time_) {
        throw std::invalid_argument("Population_simulator::advance_to: time must not decrease");
    }
    // Split every cell whose division time falls inside (time_, t]; daughters
    // may themselves divide again before t, so loop until stable. Divisions
    // are processed cell-by-cell; the RNG draws happen in deterministic
    // order because new daughters are appended and scanned in order.
    std::size_t scan = 0;
    while (scan < cells_.size()) {
        Simulated_cell& cell = cells_[scan];
        const double t_div = cell.division_time();
        if (t_div > t_minutes) {
            ++scan;
            continue;
        }
        // SW daughter replaces the mother in place; ST daughter is appended.
        Simulated_cell sw;
        sw.params = draw_cell_parameters(config_, rng_);
        sw.birth_time = t_div;
        sw.birth_phase = 0.0;

        Simulated_cell st;
        st.params = draw_cell_parameters(config_, rng_);
        st.birth_time = t_div;
        st.birth_phase = st.params.phi_sst;

        cells_[scan] = sw;
        cells_.push_back(st);
        // Do not advance `scan`: the SW daughter could in principle divide
        // again before t (only with extreme parameter draws, but correctness
        // should not depend on that).
    }
    time_ = t_minutes;
}

std::vector<Snapshot_entry> Population_simulator::snapshot(
    const Volume_model& volume_model) const {
    std::vector<Snapshot_entry> out;
    out.reserve(cells_.size());
    for (const Simulated_cell& cell : cells_) {
        Snapshot_entry e;
        e.phi = cell.phase_at(time_);
        e.phi_sst = cell.params.phi_sst;
        e.relative_volume = volume_model.relative_volume(e.phi, e.phi_sst);
        out.push_back(e);
    }
    return out;
}

double Population_simulator::total_relative_volume(const Volume_model& volume_model) const {
    double s = 0.0;
    for (const Simulated_cell& cell : cells_) {
        s += volume_model.relative_volume(cell.phase_at(time_), cell.params.phi_sst);
    }
    return s;
}

}  // namespace cellsync

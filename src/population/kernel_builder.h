// Builder for the integral-transform kernel Q(phi, t) of paper Eq 3.
//
// Q(phi, t) is the fractional volume density: the fraction of total
// population volume at experiment time t residing near phase phi. The
// paper evaluates it by simulation; this builder runs the agent-based
// population simulator, collects volume-weighted phase histograms at the
// requested times, and packages them as a discretized kernel usable both
// forwards (generating population data from a known single-cell profile)
// and backwards (assembling the deconvolution's kernel matrix).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "numerics/matrix.h"
#include "population/population_simulator.h"
#include "spline/spline_basis.h"

namespace cellsync {

/// Discretized kernel: row m holds Q(phi, times[m]) sampled at the phase
/// bin centers; every row integrates to 1 over phi.
class Kernel_grid {
  public:
    /// Direct construction from precomputed slices (used by tests and by
    /// deserialization); validates shapes and row normalization. Rows whose
    /// mass drifts from 1 within a tolerance scaled to the bin count are
    /// renormalized in place; genuinely non-normalizable rows (mass <= 0 or
    /// beyond the tolerance) throw std::invalid_argument. Rows already at
    /// unit mass are left bit-identical, so a kernel_io round trip is
    /// exact.
    Kernel_grid(Vector times, Vector phi_centers, Matrix q);

    const Vector& times() const { return times_; }
    const Vector& phi_centers() const { return phi_centers_; }
    const Matrix& q() const { return q_; }
    double bin_width() const { return bin_width_; }
    std::size_t time_count() const { return times_.size(); }
    std::size_t bin_count() const { return phi_centers_.size(); }

    /// Forward transform of an arbitrary profile:
    /// G(t_m) = integral Q(phi, t_m) f(phi) dphi, by midpoint quadrature on
    /// the phase bins.
    Vector apply(const std::function<double(double)>& f) const;

    /// Forward transform of a sampled profile (values at phi_centers).
    Vector apply_sampled(const Vector& f_values) const;

    /// Kernel matrix K with K(m, i) = integral Q(phi, t_m) psi_i(phi) dphi
    /// for the given basis (the linear map from basis coefficients to
    /// model-predicted measurements Ghat, paper Eq 5).
    Matrix basis_matrix(const Natural_spline_basis& basis) const;

  private:
    Vector times_;
    Vector phi_centers_;
    Matrix q_;  // time_count x bin_count
    double bin_width_ = 0.0;
};

/// Size caps checked before anything is allocated, so neither a hostile
/// flag nor a corrupt file's dimensions become a giant allocation:
/// build_kernel and kernel_io accept at most 2^27 kernel values (times x
/// bins, 1 GiB of doubles), and build_kernel at most 2^24 initial cells
/// (4x a 4M-cell reference kernel; the simulator reserves twice that
/// many 32-byte cell records, 1 GiB).
inline constexpr std::uint64_t max_kernel_values = std::uint64_t{1} << 27;
inline constexpr std::size_t max_kernel_cells = std::size_t{1} << 24;

/// Monte-Carlo kernel construction parameters.
struct Kernel_build_options {
    std::size_t n_cells = 100000;  ///< initial population size
    std::size_t n_bins = 200;      ///< phase resolution of the kernel
    std::uint64_t seed = 20110605; ///< simulator seed
};

/// Build Q(phi, t) at the given measurement times (minutes, ascending,
/// starting at >= 0) by simulating the configured population.
/// Throws std::invalid_argument for empty/descending times, zero
/// cells/bins, more than max_kernel_cells cells, or more than
/// max_kernel_values kernel values.
Kernel_grid build_kernel(const Cell_cycle_config& config, const Volume_model& volume_model,
                         const Vector& times, const Kernel_build_options& options = {});

}  // namespace cellsync

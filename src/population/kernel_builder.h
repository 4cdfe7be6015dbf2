// Builder for the integral-transform kernel Q(phi, t) of paper Eq 3.
//
// Q(phi, t) is the fractional volume density: the fraction of total
// population volume at experiment time t residing near phase phi. The
// population is a branching process whose phase advances at rate 1/T
// (paper Secs 2.1-2.2), so Q is an expectation over it. build_kernel
// computes that expectation from the division renewal equation, with no
// sampling; simulate_kernel estimates it by running the agent-based
// population simulator and collecting volume-weighted phase histograms,
// and serves as the test oracle and the synthetic-data generator. Both
// package Q as a discretized kernel usable forwards (generating
// population data from a known single-cell profile) and backwards
// (assembling the deconvolution's kernel matrix).
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
    /// deserialization). Throws std::invalid_argument on a shape mismatch,
    /// times that are not finite and strictly ascending, or phase centers
    /// that are not strictly ascending inside (0, 1). Rows whose
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
/// build_kernel, simulate_kernel and kernel_io accept at most 2^27 kernel
/// values (times x bins, 1 GiB of doubles), and simulate_kernel at most
/// 2^24 initial cells (4x a 4M-cell reference kernel; the simulator
/// reserves twice that many 32-byte cell records, 1 GiB). build_kernel
/// accepts a time span of at most 256 mean cycle times, which bounds its
/// renewal grid to 1500 steps per cycle; simulate_kernel keeps every
/// cell, so its memory grows with the span and it has no such cap.
inline constexpr std::uint64_t max_kernel_values = std::uint64_t{1} << 27;
inline constexpr std::size_t max_kernel_cells = std::size_t{1} << 24;
inline constexpr double max_kernel_span_cycles = 256.0;

/// Kernel construction parameters. build_kernel reads only n_bins;
/// n_cells and seed are read only by simulate_kernel.
struct Kernel_build_options {
    std::size_t n_cells = 100000;  ///< simulate_kernel: initial population size
    std::size_t n_bins = 200;      ///< phase resolution of the kernel
    std::uint64_t seed = 20110605; ///< simulate_kernel: simulator seed
};

/// Compute Q(phi, t) at the given measurement times (minutes, finite,
/// ascending, starting at >= 0) as the expected volume-weighted phase
/// density of the configured population, started as a synchronized
/// swarmer isolate (phi(0) uniform on [0, phi_sst), paper Sec 2.1). The
/// division rate D solves the renewal equation D = D0 + D * g on steps of
/// mean T / 1500, where g is the law of the two daughters' lifetimes T and
/// T (1 - phi_sst) and D0 that of the initial cells' divisions, uniform on
/// [T (1 - phi_sst), T]; phi_sst and T are integrated by
/// 64-node midpoint quadrature over their truncated normals, and each bin
/// averages 4 sub-cells. Deterministic and re-entrant; memory is linear
/// in the span, the window of g and the bin count. Throws
/// std::invalid_argument for empty, non-finite, negative or unordered
/// times, zero bins, more than max_kernel_values kernel values, a span
/// above max_kernel_span_cycles mean cycles, or an invalid config.
Kernel_grid build_kernel(const Cell_cycle_config& config, const Volume_model& volume_model,
                         const Vector& times, const Kernel_build_options& options = {});

/// Estimate Q(phi, t) at the given times by simulating options.n_cells
/// cells from options.seed: the Monte-Carlo oracle build_kernel is tested
/// against, and the generator of synthetic population data. Throws
/// std::invalid_argument for the time and bin errors build_kernel
/// rejects, zero cells, or more than max_kernel_cells cells.
Kernel_grid simulate_kernel(const Cell_cycle_config& config, const Volume_model& volume_model,
                            const Vector& times, const Kernel_build_options& options = {});

}  // namespace cellsync

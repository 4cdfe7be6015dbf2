#include "population/kernel_builder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "population/phase_distribution.h"

namespace cellsync {

Kernel_grid::Kernel_grid(Vector times, Vector phi_centers, Matrix q)
    : times_(std::move(times)), phi_centers_(std::move(phi_centers)), q_(std::move(q)) {
    if (times_.empty() || phi_centers_.empty()) {
        throw std::invalid_argument("Kernel_grid: empty time or phase grid");
    }
    if (q_.rows() != times_.size() || q_.cols() != phi_centers_.size()) {
        throw std::invalid_argument("Kernel_grid: Q shape mismatch");
    }
    for (std::size_t i = 0; i + 1 < times_.size(); ++i) {
        if (!(times_[i] < times_[i + 1])) {
            throw std::invalid_argument("Kernel_grid: times must be strictly ascending");
        }
    }
    for (std::size_t i = 0; i + 1 < phi_centers_.size(); ++i) {
        if (!(phi_centers_[i] < phi_centers_[i + 1])) {
            throw std::invalid_argument("Kernel_grid: phase centers must be strictly ascending");
        }
    }
    bin_width_ = 1.0 / static_cast<double>(phi_centers_.size());
    // Row-mass policy. Summing n_bins terms accrues rounding that scales
    // with the bin count, so a fixed 1e-6 gate spuriously rejects valid
    // high-resolution kernels. Rows whose mass drifts within the scaled
    // tolerance are renormalized to unit mass; only genuinely
    // non-normalizable rows (mass <= 0 or far from 1) are an error. Rows
    // already at unit mass within the rounding floor of the sum itself are
    // left untouched, which keeps a serialize/deserialize round trip
    // bit-identical (renormalizing an already-renormalized row would
    // perturb every entry by one ulp-scale factor).
    const double n_bins = static_cast<double>(q_.cols());
    const double epsilon = std::numeric_limits<double>::epsilon();
    const double rounding_floor = 1024.0 * epsilon * n_bins;
    const double renorm_tolerance = std::max(1e-6, 1e-9 * n_bins);
    for (std::size_t m = 0; m < q_.rows(); ++m) {
        double mass = 0.0;
        for (std::size_t b = 0; b < q_.cols(); ++b) {
            if (q_(m, b) < -1e-12) {
                throw std::invalid_argument("Kernel_grid: negative density entry");
            }
            mass += q_(m, b) * bin_width_;
        }
        if (!(mass > 0.0) || std::abs(mass - 1.0) > renorm_tolerance) {
            throw std::invalid_argument("Kernel_grid: row " + std::to_string(m) +
                                        " is not normalizable (mass " +
                                        std::to_string(mass) + ")");
        }
        if (std::abs(mass - 1.0) > rounding_floor) {
            for (std::size_t b = 0; b < q_.cols(); ++b) q_(m, b) /= mass;
        }
    }
}

Vector Kernel_grid::apply(const std::function<double(double)>& f) const {
    Vector fv(phi_centers_.size());
    for (std::size_t b = 0; b < phi_centers_.size(); ++b) fv[b] = f(phi_centers_[b]);
    return apply_sampled(fv);
}

Vector Kernel_grid::apply_sampled(const Vector& f_values) const {
    if (f_values.size() != phi_centers_.size()) {
        throw std::invalid_argument("Kernel_grid::apply_sampled: profile length mismatch");
    }
    Vector g(times_.size(), 0.0);
    for (std::size_t m = 0; m < times_.size(); ++m) {
        double s = 0.0;
        for (std::size_t b = 0; b < phi_centers_.size(); ++b) s += q_(m, b) * f_values[b];
        g[m] = s * bin_width_;
    }
    return g;
}

Matrix Kernel_grid::basis_matrix(const Natural_spline_basis& basis) const {
    // K(m, i) = sum_b Q(phi_b, t_m) psi_i(phi_b) dphi  (midpoint rule on the
    // kernel's own bins — the kernel is piecewise constant by construction,
    // so this is the natural exact pairing).
    const Matrix design = basis.design_matrix(phi_centers_);  // bins x Nc
    Matrix k(times_.size(), basis.size());
    for (std::size_t m = 0; m < times_.size(); ++m) {
        for (std::size_t i = 0; i < basis.size(); ++i) {
            double s = 0.0;
            for (std::size_t b = 0; b < phi_centers_.size(); ++b) {
                s += q_(m, b) * design(b, i);
            }
            k(m, i) = s * bin_width_;
        }
    }
    return k;
}

Kernel_grid build_kernel(const Cell_cycle_config& config, const Volume_model& volume_model,
                         const Vector& times, const Kernel_build_options& options) {
    if (times.empty()) throw std::invalid_argument("build_kernel: empty time grid");
    if (times.front() < 0.0) throw std::invalid_argument("build_kernel: negative time");
    for (std::size_t i = 0; i + 1 < times.size(); ++i) {
        if (!(times[i] < times[i + 1])) {
            throw std::invalid_argument("build_kernel: times must be strictly ascending");
        }
    }
    if (options.n_cells == 0 || options.n_bins == 0) {
        throw std::invalid_argument("build_kernel: n_cells and n_bins must be positive");
    }
    // Before anything allocates; by division, as times x bins may overflow.
    if (options.n_cells > max_kernel_cells) {
        throw std::invalid_argument("build_kernel: n_cells " + std::to_string(options.n_cells) +
                                    " exceeds the cap of " +
                                    std::to_string(max_kernel_cells) + " cells");
    }
    if (options.n_bins > max_kernel_values / times.size()) {
        throw std::invalid_argument("build_kernel: n_bins " + std::to_string(options.n_bins) +
                                    " at " + std::to_string(times.size()) +
                                    " times exceeds the cap of " +
                                    std::to_string(max_kernel_values) +
                                    " kernel values (times x bins)");
    }

    Population_simulator sim(config, options.n_cells, options.seed);
    Matrix q(times.size(), options.n_bins);
    Vector centers;
    for (std::size_t m = 0; m < times.size(); ++m) {
        sim.advance_to(times[m]);
        const Phase_density d = phase_volume_density(sim.snapshot(volume_model), options.n_bins);
        q.set_row(m, d.density);
        if (m == 0) {
            centers = d.bin_centers;
        } else if (d.bin_centers.size() != centers.size() ||
                   !std::equal(centers.begin(), centers.end(), d.bin_centers.begin())) {
            // The density estimator derives centers from n_bins alone, so
            // every snapshot must agree; a divergence means the grid
            // contract was broken upstream, not bad user input.
            throw std::logic_error("build_kernel: snapshot bin centers diverged at t=" +
                                   std::to_string(times[m]));
        }
    }
    return Kernel_grid(times, centers, std::move(q));
}

}  // namespace cellsync

#include "population/kernel_builder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/trace.h"
#include "numerics/special.h"
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
    for (std::size_t i = 0; i < times_.size(); ++i) {
        if (!std::isfinite(times_[i])) {
            throw std::invalid_argument("Kernel_grid: time " + std::to_string(i) + " is " +
                                        std::to_string(times_[i]) + "; times must be finite");
        }
    }
    for (std::size_t i = 0; i + 1 < times_.size(); ++i) {
        if (!(times_[i] < times_[i + 1])) {
            throw std::invalid_argument("Kernel_grid: times must be strictly ascending");
        }
    }
    for (std::size_t i = 0; i < phi_centers_.size(); ++i) {
        if (!(phi_centers_[i] > 0.0 && phi_centers_[i] < 1.0)) {
            throw std::invalid_argument("Kernel_grid: phase center " + std::to_string(i) +
                                        " is " + std::to_string(phi_centers_[i]) +
                                        "; centers must lie in (0, 1)");
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

namespace {

// The computed kernel's discretization. The cache keys a kernel by its
// inputs alone, so these are constants, not options.
constexpr std::size_t nodes_per_variable = 64;      // phi_sst and T quadrature
constexpr double renewal_steps_per_cycle = 1500.0;  // renewal step = mean T / 1500
constexpr std::size_t sub_cells_per_bin = 4;
constexpr std::size_t grid_values_per_pass = std::size_t{1} << 18;  // 2 MiB per table

std::string format_number(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%g", value);
    return buffer;
}

/// The checks build_kernel and simulate_kernel share, all made before
/// anything allocates.
void check_request(const std::string& who, const Vector& times, std::size_t n_bins) {
    if (times.empty()) throw std::invalid_argument(who + ": empty time grid");
    for (std::size_t i = 0; i < times.size(); ++i) {
        if (!std::isfinite(times[i])) {
            throw std::invalid_argument(who + ": time " + std::to_string(i) + " is " +
                                        std::to_string(times[i]) +
                                        "; times must be finite");
        }
    }
    if (times.front() < 0.0) throw std::invalid_argument(who + ": negative time");
    for (std::size_t i = 0; i + 1 < times.size(); ++i) {
        if (!(times[i] < times[i + 1])) {
            throw std::invalid_argument(who + ": times must be strictly ascending");
        }
    }
    if (n_bins == 0) throw std::invalid_argument(who + ": n_bins must be positive");
    // By division, as times x bins may overflow.
    if (n_bins > max_kernel_values / times.size()) {
        throw std::invalid_argument(who + ": n_bins " + std::to_string(n_bins) + " at " +
                                    std::to_string(times.size()) +
                                    " times exceeds the cap of " +
                                    std::to_string(max_kernel_values) +
                                    " kernel values (times x bins)");
    }
}

/// Midpoint quadrature of N(mu, sigma) truncated to [lo, hi]: nodes at the
/// midpoints of equal cells on [mu - 8 sigma, mu + 8 sigma] and [lo, hi],
/// each weighted by the normal mass of its cell, the weights renormalized
/// to sum 1. sigma = 0 gives one node at the clamped mean, as
/// Rng::truncated_normal draws it.
struct Quadrature {
    Vector nodes;
    Vector weights;
};

Quadrature truncated_normal_quadrature(double mu, double sigma, double lo, double hi) {
    const Quadrature clamped{{std::clamp(mu, lo, hi)}, {1.0}};
    const double a = std::max(mu - 8.0 * sigma, lo);
    const double b = std::min(mu + 8.0 * sigma, hi);
    if (!(sigma > 0.0 && a < b)) return clamped;
    // The mass of [l, r] in standard units, from the tail on its own side
    // of the mean so that far-tail cells keep their precision.
    const auto mass = [](double l, double r) {
        return l > 0.0 ? gaussian_cdf(-l) - gaussian_cdf(-r) : gaussian_cdf(r) - gaussian_cdf(l);
    };
    Quadrature q;
    const double width = (b - a) / static_cast<double>(nodes_per_variable);
    double total = 0.0;
    for (std::size_t i = 0; i < nodes_per_variable; ++i) {
        const double left = a + static_cast<double>(i) * width;
        const double w = mass((left - mu) / sigma, (left + width - mu) / sigma);
        q.nodes.push_back(left + 0.5 * width);
        q.weights.push_back(w);
        total += w;
    }
    if (!(total > 0.0)) return clamped;
    for (double& w : q.weights) w /= total;
    return q;
}

/// Adds `weight` times the hat-function masses of the uniform law on
/// [a, b] to `jumps`, whose running sum is the masses. The mass at step k
/// is the second difference of the law's integrated CDF
/// ((tau - a)+^2 - (tau - b)+^2) / (2 (b - a)) over h, which is constant
/// away from a and b: each end adds one smoothed step, spread over the
/// three steps whose hats meet it.
void add_uniform(Vector& jumps, double h, double a, double b, double weight) {
    const auto add_step = [&](double u, double height) {
        const auto k = static_cast<std::size_t>(u);
        const double f = u - static_cast<double>(k);
        jumps[k] += height * 0.5 * (1.0 - f) * (1.0 - f);
        jumps[k + 1] += height * (0.5 + f - f * f);
        jumps[k + 2] += height * 0.5 * f * f;
    };
    const double height = weight * h / (b - a);
    add_step(a / h, height);
    add_step(b / h, -height);
}

/// Splits a point mass at tau, inside the table, linearly onto its two
/// neighbouring steps.
void add_point_mass(Vector& m, double h, double tau, double weight) {
    const double u = tau / h;
    const auto k = static_cast<std::size_t>(u);
    const double f = u - static_cast<double>(k);
    m[k] += weight * (1.0 - f);
    m[k + 1] += weight * f;
}

/// Linear interpolation of `table` at fractional index u >= 0; `beyond`
/// past its last entry.
double interpolate(const Vector& table, double u, double beyond) {
    if (!(u < static_cast<double>(table.size() - 1))) return beyond;
    const auto k = static_cast<std::size_t>(u);
    return table[k] + (u - static_cast<double>(k)) * (table[k + 1] - table[k]);
}

/// The Malthusian rate rho (per renewal step) of the renewal kernel g:
/// the root of sum_j g[j] exp(-rho j) = 1. g has mass 2 and g[0] = 0, so
/// Newton's method from rho = 0 climbs monotonically to the root.
double malthusian_rate(const Vector& g) {
    double rho = 0.0;
    for (int iteration = 0; iteration < 100; ++iteration) {
        double excess = -1.0;
        double slope = 0.0;
        for (std::size_t j = 1; j < g.size(); ++j) {
            if (g[j] == 0.0) continue;
            const double term = g[j] * std::exp(-rho * static_cast<double>(j));
            excess += term;
            slope -= term * static_cast<double>(j);
        }
        const double step = excess / slope;
        rho -= step;
        if (!(std::abs(step) > 1e-15 * rho)) break;
    }
    return rho;
}

}  // namespace

Kernel_grid build_kernel(const Cell_cycle_config& config, const Volume_model& volume_model,
                         const Vector& times, const Kernel_build_options& options) {
    check_request("build_kernel", times, options.n_bins);
    config.validate();
    const double mean_cycle = config.mean_cycle_minutes;
    const double span_cycles = times.back() / mean_cycle;
    if (span_cycles > max_kernel_span_cycles) {
        throw std::invalid_argument(
            "build_kernel: time span " + format_number(times.back()) + " min is " +
            format_number(span_cycles) + " mean cycles of " + format_number(mean_cycle) +
            " min, above the cap of " + format_number(max_kernel_span_cycles) + " cycles");
    }

    // Two traced halves: the renewal solve for the division rate, then the
    // density passes that turn it into rows.
    std::optional<telemetry::Trace_span> renewal_span(std::in_place, "population.kernel.renewal",
                                                      "population");

    // Every division makes an SW daughter, which divides after T, and an
    // ST daughter, which divides after T (1 - s), with fresh draws of
    // s = phi_sst and T. On renewal steps of h, g holds the law of those
    // two lifetimes; D0 holds the divisions of the initial cells, a
    // synchronized swarmer isolate.
    const Quadrature s_q =
        truncated_normal_quadrature(config.mu_sst, config.sigma_sst(), phi_sst_min, phi_sst_max);
    const double t_lo = cycle_min_factor * mean_cycle;
    const double t_hi = cycle_max_factor * mean_cycle;
    const Quadrature t_q =
        truncated_normal_quadrature(mean_cycle, config.sigma_cycle(), t_lo, t_hi);
    const double h = mean_cycle / renewal_steps_per_cycle;
    const auto window = static_cast<std::size_t>(std::ceil(t_hi / h)) + 3;
    const auto steps = static_cast<std::size_t>(times.back() / h) + 2;

    Vector g(window, 0.0);
    for (std::size_t j = 0; j < t_q.nodes.size(); ++j) {
        add_point_mass(g, h, t_q.nodes[j], t_q.weights[j]);
        for (std::size_t i = 0; i < s_q.nodes.size(); ++i) {
            add_point_mass(g, h, t_q.nodes[j] * (1.0 - s_q.nodes[i]),
                           t_q.weights[j] * s_q.weights[i]);
        }
    }

    // P(T <= tau) of the continuous cycle-time law at each step.
    Vector cycle_cdf(window);
    const double sigma_t = config.sigma_cycle();
    const double below = sigma_t > 0.0 ? gaussian_cdf((t_lo - mean_cycle) / sigma_t) : 0.0;
    const double inside = sigma_t > 0.0 ? gaussian_cdf((t_hi - mean_cycle) / sigma_t) - below : 1.0;
    for (std::size_t k = 0; k < window; ++k) {
        const double tau = static_cast<double>(k) * h;
        cycle_cdf[k] =
            sigma_t > 0.0
                ? std::clamp((gaussian_cdf((tau - mean_cycle) / sigma_t) - below) / inside, 0.0, 1.0)
                : (tau >= std::clamp(mean_cycle, t_lo, t_hi) ? 1.0 : 0.0);
    }
    const auto cdf = [&](double tau) { return interpolate(cycle_cdf, tau / h, 1.0); };

    // d holds the hat masses of D0: phi0 ~ U(0, s), so the initial cells
    // divide uniformly on [T (1 - s), T].
    Vector d(std::max(steps, window), 0.0);
    for (std::size_t j = 0; j < t_q.nodes.size(); ++j) {
        for (std::size_t i = 0; i < s_q.nodes.size(); ++i) {
            add_uniform(d, h, t_q.nodes[j] * (1.0 - s_q.nodes[i]), t_q.nodes[j],
                        t_q.weights[j] * s_q.weights[i]);
        }
    }
    for (std::size_t k = 1; k < window; ++k) d[k] += d[k - 1];
    d.resize(steps);

    // D = D0 + D * g grows like exp(rho tau / h); solve for the rescaled
    // D exp(-rho tau / h), which stays bounded over any span. The common
    // factor exp(rho t / h) of a row cancels when the row is normalized.
    // g is exactly zero outside [g_first, g_end), which the convolution
    // skips: those steps would only add zeros.
    const double rho = malthusian_rate(g);
    std::size_t g_first = 1;
    while (g[g_first] == 0.0) ++g_first;
    std::size_t g_end = window;
    while (g[g_end - 1] == 0.0) --g_end;
    for (std::size_t j = g_first; j < g_end; ++j) g[j] *= std::exp(-rho * static_cast<double>(j));
    for (std::size_t k = 0; k < std::min(steps, window); ++k) {
        d[k] *= std::exp(-rho * static_cast<double>(k));
    }
    for (std::size_t k = 0; k < steps; ++k) {
        const double dk = d[k];
        if (dk == 0.0) continue;
        const std::size_t end = std::min(g_end, steps - k);
        for (std::size_t j = g_first; j < end; ++j) d[k + j] += dk * g[j];
    }

    // born[k]: the divisions up to step k, the integral of the (rescaled,
    // piecewise linear) division rate over [0, k h].
    Vector born(steps, 0.0);
    for (std::size_t k = 1; k < steps; ++k) born[k] = born[k - 1] + 0.5 * (d[k - 1] + d[k]);
    renewal_span.reset();
    const telemetry::Trace_span density_span("population.kernel.density", "population");

    // The density on n_sub sub-cells [p, p + 1] / n_sub of phase, each
    // bin averaging its own; phi_p = (p + 1/2) / n_sub is the centre of
    // sub-cell p, and x_k = k / n_sub, k <= n_sub, its edges. Rows are
    // made in passes of up to `rows` times, so that each v(phi_p, s) is
    // evaluated once per pass while the per-time tables stay within
    // grid_values_per_pass values.
    const std::size_t n_bins = options.n_bins;
    const std::size_t n_sub = n_bins * sub_cells_per_bin;
    const std::size_t grid = n_sub + 1;
    const double sub_width = 1.0 / static_cast<double>(n_sub);
    const auto sub_point = [&](std::size_t p) { return (static_cast<double>(p) + 0.5) * sub_width; };
    const std::size_t rows = std::clamp<std::size_t>(grid_values_per_pass / grid, 1, times.size());

    // Sums over s that no time changes: volume[p] = sum_s w_s v(phi_p, s);
    // for the s above phi_p, swarming[p] sums w_s v(phi_p, s) / s, and
    // for the rest settled[p] does. The first pass fills them.
    Vector volume(n_sub, 0.0);
    Vector swarming(n_sub, 0.0);
    Vector settled(n_sub, 0.0);
    Vector v(n_sub);
    // Per time of a pass: f[p], the mean over sub-cell p of F(x, t) =
    // sum_T w_T T D(t - x T), the phase-x density of the cells one
    // division made (SW daughters at phase x, ST daughters at s + x),
    // from the divisions between t - x_(p+1) T and t - x_p T, so that no
    // division is missed however narrow its peak; older[k] =
    // P(T < t / x_k), the share of initial swarmers at phase x_k + s that
    // started below s; and the sub-cell sums over s of the ST daughters
    // and of those initial swarmers.
    Vector f(rows * n_sub);
    Vector older(rows * grid);
    Vector stalked(rows * n_sub);
    Vector initial(rows * n_sub);
    Matrix q(times.size(), n_bins, 0.0);
    for (std::size_t pass = 0; pass < times.size(); pass += rows) {
        const std::size_t count = std::min(rows, times.size() - pass);
        std::fill(f.begin(), f.end(), 0.0);
        std::fill(stalked.begin(), stalked.end(), 0.0);
        std::fill(initial.begin(), initial.end(), 0.0);
        for (std::size_t r = 0; r < count; ++r) {
            const double t = times[pass + r];
            double* row = &f[r * n_sub];
            for (std::size_t j = 0; j < t_q.nodes.size(); ++j) {
                const double cycle = t_q.nodes[j];
                const double scale = t_q.weights[j] * static_cast<double>(n_sub);
                const double ratio = std::exp(-rho * cycle * sub_width / h);
                const double step = cycle * sub_width / h;
                double factor = std::exp(-0.5 * rho * cycle * sub_width / h);
                double later = interpolate(born, t / h, born.back());
                for (std::size_t p = 0; p < n_sub && later > 0.0; ++p, factor *= ratio) {
                    const double u = t / h - static_cast<double>(p + 1) * step;
                    const double earlier = u > 0.0 ? interpolate(born, u, born.back()) : 0.0;
                    row[p] += scale * factor * (later - earlier);
                    later = earlier;
                }
            }
            older[r * grid] = t > 0.0 ? 1.0 : 0.0;
            for (std::size_t k = 1; k < grid; ++k) {
                older[r * grid + k] = cdf(t / (static_cast<double>(k) * sub_width));
            }
        }
        for (std::size_t i = 0; i < s_q.nodes.size(); ++i) {
            const double s = s_q.nodes[i];
            for (std::size_t p = 0; p < n_sub; ++p) {
                v[p] = s_q.weights[i] * volume_model.relative_volume(sub_point(p), s);
            }
            if (pass == 0) {
                for (std::size_t p = 0; p < n_sub; ++p) {
                    volume[p] += v[p];
                    (sub_point(p) < s ? swarming[p] : settled[p]) += v[p] / s;
                }
            }
            // Sub-cell p shifted by s = (whole + part) / n_sub covers
            // `part` of f's sub-cell p - whole - 1 and the rest of
            // p - whole; for p >= first, x = phi_p - s lies `lift` of a
            // grid step past x_(p - first).
            const double shift = s * static_cast<double>(n_sub);
            const auto whole = static_cast<std::size_t>(shift);
            const double part = shift - static_cast<double>(whole);
            const double start = std::max(std::ceil(shift - 0.5), 0.0);
            const auto first = static_cast<std::size_t>(start);
            const double lift = start + 0.5 - shift;
            for (std::size_t r = 0; r < count; ++r) {
                const double* fr = &f[r * n_sub];
                double* out = &stalked[r * n_sub];
                if (whole < n_sub) out[whole] += v[whole] * (1.0 - part) * fr[0];
                for (std::size_t p = whole + 1; p < n_sub; ++p) {
                    const std::size_t c = p - whole;
                    out[p] += v[p] * (fr[c] + part * (fr[c - 1] - fr[c]));
                }
                const double* o = &older[r * grid];
                out = &initial[r * n_sub];
                for (std::size_t p = first; p < n_sub; ++p) {
                    const std::size_t k = p - first;
                    out[p] += v[p] / s * (o[k] + lift * (o[k + 1] - o[k]));
                }
            }
        }

        for (std::size_t r = 0; r < count; ++r) {
            const std::size_t m = pass + r;
            const double t = times[m];
            const double* fr = &f[r * n_sub];
            // Initial cells that have not divided yet, in the same
            // rescaled units: phi0 = phi - t / T uniform on [0, s), so the
            // T in [t / phi, t / (phi - s)).
            const double initial_scale = std::exp(-rho * t / h);
            for (std::size_t p = 0; p < n_sub; ++p) {
                const double younger = cdf(t / sub_point(p));
                const double unborn =
                    initial[r * n_sub + p] + swarming[p] - younger * (swarming[p] + settled[p]);
                q(m, p / sub_cells_per_bin) +=
                    volume[p] * fr[p] + stalked[r * n_sub + p] + initial_scale * unborn;
            }
            double mass = 0.0;
            for (std::size_t b = 0; b < n_bins; ++b) mass += q(m, b);
            const double norm = 1.0 / (mass / static_cast<double>(n_bins));
            for (std::size_t b = 0; b < n_bins; ++b) q(m, b) *= norm;
        }
    }

    Vector centers(n_bins);
    for (std::size_t b = 0; b < n_bins; ++b) {
        centers[b] = (static_cast<double>(b) + 0.5) / static_cast<double>(n_bins);
    }
    return Kernel_grid(times, std::move(centers), std::move(q));
}

Kernel_grid simulate_kernel(const Cell_cycle_config& config, const Volume_model& volume_model,
                            const Vector& times, const Kernel_build_options& options) {
    check_request("simulate_kernel", times, options.n_bins);
    if (options.n_cells == 0) {
        throw std::invalid_argument("simulate_kernel: n_cells must be positive");
    }
    // Before anything allocates.
    if (options.n_cells > max_kernel_cells) {
        throw std::invalid_argument("simulate_kernel: n_cells " +
                                    std::to_string(options.n_cells) + " exceeds the cap of " +
                                    std::to_string(max_kernel_cells) + " cells");
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
            throw std::logic_error("simulate_kernel: snapshot bin centers diverged at t=" +
                                   std::to_string(times[m]));
        }
    }
    return Kernel_grid(times, centers, std::move(q));
}

}  // namespace cellsync

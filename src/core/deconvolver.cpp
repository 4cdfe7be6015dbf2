#include "core/deconvolver.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "numerics/kkt_factorization.h"
#include "numerics/linear_solve.h"

namespace cellsync {

Estimator_objective estimator_objective(const Matrix& ktwk, const Vector& ktwg,
                                        const Matrix& penalty, double lambda) {
    Estimator_objective out;
    out.hessian = 2.0 * (ktwk + lambda * penalty);
    for (std::size_t i = 0; i < out.hessian.rows(); ++i) {
        out.hessian(i, i) += 2.0 * estimator_ridge;
    }
    out.gradient.assign(ktwg.size(), 0.0);
    for (std::size_t i = 0; i < ktwg.size(); ++i) out.gradient[i] = -2.0 * ktwg[i];
    return out;
}

Reduced_objective reduced_estimator_objective(const Reduced_objective& blocks,
                                              const Reduced_objective& penalty, double lambda) {
    const std::size_t nz = blocks.gradient.size();
    if (blocks.hessian.rows() != nz || blocks.hessian.cols() != nz ||
        penalty.hessian.rows() != nz || penalty.hessian.cols() != nz ||
        penalty.gradient.size() != nz) {
        throw std::invalid_argument("reduced_estimator_objective: block shape mismatch");
    }
    Reduced_objective out = blocks;
    for (std::size_t i = 0; i < nz; ++i) {
        for (std::size_t j = 0; j < nz; ++j) out.hessian(i, j) += lambda * penalty.hessian(i, j);
        out.gradient[i] += lambda * penalty.gradient[i];
    }
    return out;
}

Single_cell_estimate::Single_cell_estimate(std::shared_ptr<const Natural_spline_basis> basis,
                                           Vector alpha)
    : basis_(std::move(basis)), alpha_(std::move(alpha)) {
    if (!basis_) throw std::invalid_argument("Single_cell_estimate: null basis");
    if (alpha_.size() != basis_->size()) {
        throw std::invalid_argument("Single_cell_estimate: coefficient count mismatch");
    }
}

double Single_cell_estimate::operator()(double phi) const {
    return basis_->expand(alpha_, std::clamp(phi, 0.0, 1.0));
}

double Single_cell_estimate::derivative(double phi) const {
    return basis_->expand_derivative(alpha_, std::clamp(phi, 0.0, 1.0));
}

Vector Single_cell_estimate::sample(const Vector& phi_grid) const {
    return basis_->expand_on(alpha_, phi_grid);
}

Vector Single_cell_estimate::sample_time(const Vector& t_minutes, double cycle_minutes) const {
    if (cycle_minutes <= 0.0) {
        throw std::invalid_argument("Single_cell_estimate: cycle time must be positive");
    }
    Vector out(t_minutes.size());
    for (std::size_t i = 0; i < t_minutes.size(); ++i) {
        out[i] = (*this)(t_minutes[i] / cycle_minutes);
    }
    return out;
}

Deconvolver::Deconvolver(std::shared_ptr<const Natural_spline_basis> basis,
                         const Kernel_grid& kernel, const Cell_cycle_config& config)
    : artifacts_(make_design_artifacts(std::move(basis), kernel, config)) {}

Deconvolver::Deconvolver(std::shared_ptr<const Design_artifacts> artifacts)
    : artifacts_(std::move(artifacts)) {
    if (!artifacts_) throw std::invalid_argument("Deconvolver: null artifacts");
}

void Deconvolver::check_series(const Measurement_series& series) const {
    series.validate();
    const Vector& times = artifacts_->times;
    if (series.size() != times.size()) {
        throw std::invalid_argument("Deconvolver: series length differs from kernel time grid");
    }
    for (std::size_t m = 0; m < times.size(); ++m) {
        if (std::abs(series.times[m] - times[m]) > 1e-9 * std::max(1.0, std::abs(times[m]))) {
            throw std::invalid_argument(
                "Deconvolver: measurement times must match the kernel time grid");
        }
    }
}

Single_cell_estimate Deconvolver::package(Vector alpha, const Measurement_series& series,
                                          double lambda) const {
    Single_cell_estimate est(artifacts_->basis, std::move(alpha));
    est.lambda = lambda;
    est.fitted = artifacts_->kernel_matrix * est.coefficients();
    const Vector w = series.weights();
    double chi2 = 0.0;
    for (std::size_t m = 0; m < series.size(); ++m) {
        const double r = series.values[m] - est.fitted[m];
        chi2 += w[m] * r * r;
    }
    est.chi_squared = chi2;
    est.roughness = dot(est.coefficients(), artifacts_->penalty * est.coefficients());
    est.objective = chi2 + lambda * est.roughness;
    return est;
}

Single_cell_estimate Deconvolver::estimate(const Measurement_series& series,
                                           const Deconvolution_options& options) const {
    check_series(series);
    std::vector<std::size_t> all(series.size());
    for (std::size_t m = 0; m < all.size(); ++m) all[m] = m;
    return estimate_on_rows(series, all, options);
}

Single_cell_estimate Deconvolver::estimate_on_rows(const Measurement_series& series,
                                                   const std::vector<std::size_t>& rows,
                                                   const Deconvolution_options& options) const {
    series.validate();
    if (options.lambda < 0.0) throw std::invalid_argument("Deconvolver: lambda must be >= 0");
    if (rows.empty()) throw std::invalid_argument("Deconvolver: empty row subset");
    {
        std::set<std::size_t> unique(rows.begin(), rows.end());
        if (unique.size() != rows.size() || *unique.rbegin() >= series.size()) {
            throw std::invalid_argument("Deconvolver: bad row subset");
        }
    }
    if (series.size() != artifacts_->times.size()) {
        throw std::invalid_argument("Deconvolver: series length differs from kernel time grid");
    }

    const Matrix& kernel = artifacts_->kernel_matrix;
    const Vector w_full = series.weights();

    // Normal-equation blocks over the selected rows, accumulated straight
    // off the shared kernel with no k_sub copy.
    Vector g_sub(rows.size());
    Vector w_sub(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        g_sub[r] = series.values[rows[r]];
        w_sub[r] = w_full[rows[r]];
    }
    const Qp_result result =
        solve_blocks(weighted_gram_rows(kernel, rows, w_sub),
                     weighted_transposed_times_rows(kernel, rows, w_sub, g_sub), options);
    Single_cell_estimate est = package(result.x, series, options.lambda);
    est.qp_iterations = result.iterations;
    est.active_constraints = result.active_set.size();
    return est;
}

Reduced_objective Deconvolver::reduce_blocks(const Matrix& ktwk, const Vector& ktwg) const {
    const Estimator_objective objective =
        estimator_objective(ktwk, ktwg, artifacts_->penalty, 0.0);
    return artifacts_->constraint_prep->reduce_objective(objective.hessian, objective.gradient);
}

Qp_result Deconvolver::solve_reduced(const Reduced_objective& blocks,
                                     const Deconvolution_options& options) const {
    check_constraint_geometry(*artifacts_, options.constraints);
    // The dual (Goldfarb-Idnani) solver: no feasible start needed and
    // robust on the dense, near-degenerate positivity grid.
    return solve_qp_dual_prepared(
        reduced_estimator_objective(blocks, artifacts_->reduced_penalty, options.lambda),
        *artifacts_->constraint_prep);
}

Qp_result Deconvolver::solve_blocks(const Matrix& ktwk, const Vector& ktwg,
                                    const Deconvolution_options& options) const {
    return solve_reduced(reduce_blocks(ktwk, ktwg), options);
}

Single_cell_estimate Deconvolver::estimate_unconstrained(const Measurement_series& series,
                                                         double lambda) const {
    check_series(series);
    if (lambda < 0.0) throw std::invalid_argument("Deconvolver: lambda must be >= 0");
    const Vector w = series.weights();

    // Normal equations (K'WK + lambda Omega + ridge I) alpha = K'W G through
    // the cached-block KKT object (Cholesky, LDLT on the semi-definite
    // corner).
    Kkt_factorization kkt(weighted_gram(artifacts_->kernel_matrix, w), artifacts_->penalty);
    kkt.factorize(lambda, estimator_ridge);
    const Vector rhs = transposed_times(artifacts_->kernel_matrix, hadamard(w, series.values));
    Vector alpha = kkt.solve(scaled(rhs, -1.0));
    return package(std::move(alpha), series, lambda);
}

Matrix Deconvolver::hat_matrix(const Measurement_series& series, double lambda) const {
    check_series(series);
    if (lambda < 0.0) throw std::invalid_argument("Deconvolver: lambda must be >= 0");
    const std::size_t n = artifacts_->basis->size();
    const std::size_t m = series.size();
    const Vector w = series.weights();

    // Whitened design: Kw = W^{1/2} K; A = Kw (Kw'Kw + lambda Omega)^-1 Kw'.
    Matrix kw(m, n);
    for (std::size_t r = 0; r < m; ++r) {
        const double sw = std::sqrt(w[r]);
        for (std::size_t i = 0; i < n; ++i) kw(r, i) = sw * artifacts_->kernel_matrix(r, i);
    }
    Matrix normal = gram(kw) + lambda * artifacts_->penalty;
    for (std::size_t i = 0; i < n; ++i) normal(i, i) += estimator_ridge;
    const Matrix inv_t_kwt = lu_solve(normal, kw.transposed());  // n x m
    return kw * inv_t_kwt;
}

}  // namespace cellsync

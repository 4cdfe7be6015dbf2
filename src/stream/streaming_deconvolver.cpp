#include "stream/streaming_deconvolver.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/telemetry.h"
#include "core/trace.h"
#include "population/synchrony.h"

namespace cellsync {

void Stream_convergence::validate() const {
    if (!(coefficient_tol >= 0.0)) {
        throw std::invalid_argument("Stream_convergence: coefficient_tol must be >= 0");
    }
    if (!(score_tol >= 0.0)) {
        throw std::invalid_argument("Stream_convergence: score_tol must be >= 0");
    }
    if (stable_updates == 0) {
        throw std::invalid_argument("Stream_convergence: stable_updates must be positive");
    }
    if (score_points < 2) {
        throw std::invalid_argument("Stream_convergence: score_points must be >= 2");
    }
}

Streaming_deconvolver::Streaming_deconvolver(
    std::shared_ptr<const Design_artifacts> artifacts, std::string label,
    const Stream_options& options)
    : artifacts_(std::move(artifacts)), label_(std::move(label)), options_(options) {
    if (!artifacts_) throw std::invalid_argument("Streaming_deconvolver: null artifacts");
    if (options_.lambda < 0.0) {
        throw std::invalid_argument("Streaming_deconvolver: lambda must be >= 0");
    }
    options_.convergence.validate();
    const std::size_t n = artifacts_->basis->size();
    gram_ = Matrix(n, n);
    ktwg_.assign(n, 0.0);

    // Seed the reduced state with the objective of the still-empty
    // normal-equation state: H0 = 2 (lambda Omega + ridge I), g0 = 0.
    const Estimator_objective empty =
        estimator_objective(gram_, ktwg_, artifacts_->penalty, options_.lambda);
    Reduced_objective reduced =
        artifacts_->constraint_prep->reduce_objective(empty.hessian, empty.gradient);
    reduced_hessian_ = std::move(reduced.hessian);
    reduced_gradient_ = std::move(reduced.gradient);

    // Circularly-open scoring grid (phi = 1 aliases phi = 0 and must not
    // be double-counted), coarse by default — see Stream_convergence. The
    // design matrix on it turns each append's profile sampling into one
    // small mat-vec instead of per-point basis evaluation.
    score_phi_ = linspace(0.0, 1.0, options_.convergence.score_points + 1);
    score_phi_.pop_back();
    score_design_ = artifacts_->basis->design_matrix(score_phi_);
}

const Single_cell_estimate& Streaming_deconvolver::current() const {
    if (!estimate_.has_value()) {
        throw std::logic_error("Streaming_deconvolver: no timepoint appended yet");
    }
    return *estimate_;
}

Measurement_series Streaming_deconvolver::observed_series() const {
    Measurement_series series;
    series.label = label_;
    series.times.assign(artifacts_->times.begin(),
                        artifacts_->times.begin() + static_cast<std::ptrdiff_t>(observed_));
    series.values = values_;
    series.sigmas = sigmas_;
    return series;
}

const Single_cell_estimate& Streaming_deconvolver::append(double time, double value,
                                                          double sigma) {
    if (complete()) {
        throw std::logic_error("Streaming_deconvolver: stream '" + label_ +
                               "' already holds the complete series");
    }
    const Vector& times = artifacts_->times;
    const std::size_t m = observed_;
    if (std::abs(time - times[m]) > 1e-9 * std::max(1.0, std::abs(times[m]))) {
        throw std::invalid_argument(
            "Streaming_deconvolver: stream '" + label_ + "' expected the measurement at t=" +
            std::to_string(times[m]) + " (grid row " + std::to_string(m) + "), got t=" +
            std::to_string(time));
    }
    if (!std::isfinite(value)) {
        throw std::invalid_argument("Streaming_deconvolver: non-finite value for '" +
                                    label_ + "'");
    }
    if (!valid_sigma(sigma)) {
        throw std::invalid_argument("Streaming_deconvolver: stream '" + label_ + "' at t=" +
                                    std::to_string(time) +
                                    ": sigma must be positive with a finite weight 1/sigma^2");
    }

    // Rank-one update of the normal-equation state, accumulated in exactly
    // the order weighted_gram / transposed_times would have used over the
    // full prefix, so the assembled blocks stay bit-identical to a
    // from-scratch build (the basis of the final-estimate bit-identity
    // guarantee). Snapshots make a failed solve side-effect free:
    // floating-point subtraction would not restore the old bits.
    const Matrix gram_before = gram_;
    const Vector ktwg_before = ktwg_;
    const Matrix reduced_hessian_before = reduced_hessian_;
    const Vector reduced_gradient_before = reduced_gradient_;
    const Vector row = artifacts_->kernel_matrix.row(m);
    const std::size_t n = row.size();
    const double w = 1.0 / (sigma * sigma);
    for (std::size_t i = 0; i < n; ++i) {
        const double t = w * row[i];
        for (std::size_t j = i; j < n; ++j) {
            gram_(i, j) += t * row[j];
            gram_(j, i) = gram_(i, j);
        }
    }
    const double wg = w * value;
    for (std::size_t j = 0; j < n; ++j) ktwg_[j] += row[j] * wg;

    // The same rank-one step in the reduced space: with kr = Z'k,
    // delta Hr = 2 w kr kr' and delta gr = 2 w (k'x0 - G_m) kr.
    const Qp_constraint_prep& prep = *artifacts_->constraint_prep;
    const std::size_t nz = prep.z_basis().cols();
    if (nz > 0) {
        const Vector kr = transposed_times(prep.z_basis(), row);
        for (std::size_t i = 0; i < nz; ++i) {
            const double wi = 2.0 * w * kr[i];
            for (std::size_t j = 0; j < nz; ++j) reduced_hessian_(i, j) += wi * kr[j];
        }
        const double c = 2.0 * w * (dot(row, prep.x_particular()) - value);
        if (c != 0.0) axpy(c, kr, reduced_gradient_);
    }

    values_.push_back(value);
    sigmas_.push_back(sigma);
    weights_.push_back(w);
    ++observed_;

    const bool tracing = telemetry::Trace_recorder::instance().enabled();
    const telemetry::Trace_span append_span(
        "stream.append", "stream",
        tracing ? telemetry::args_join(
                      telemetry::arg("gene", label_),
                      telemetry::arg("observed", static_cast<std::int64_t>(observed_)))
                : std::string());
    const telemetry::Stopwatch update_timer;
    try {
        solve_and_package();
    } catch (...) {
        gram_ = gram_before;
        ktwg_ = ktwg_before;
        reduced_hessian_ = reduced_hessian_before;
        reduced_gradient_ = reduced_gradient_before;
        values_.pop_back();
        sigmas_.pop_back();
        weights_.pop_back();
        --observed_;
        throw;
    }
    static telemetry::Histogram& append_us = telemetry::histogram("stream.append_us");
    append_us.record(update_timer.elapsed_us());
    return *estimate_;
}

void Streaming_deconvolver::solve_and_package() {
    const Qp_constraint_prep& prep = *artifacts_->constraint_prep;
    Qp_result result;
    if (complete()) {
        // The solve that completes the series assembles its objective
        // through the same estimator_objective as
        // Deconvolver::estimate_on_rows and runs the identical prepared
        // path, so the final estimate's bits depend only on the
        // accumulated state.
        const Estimator_objective objective =
            estimator_objective(gram_, ktwg_, artifacts_->penalty, options_.lambda);
        result = solve_qp_dual_prepared(objective.hessian, objective.gradient, prep);
    } else if (prep.fully_determined()) {
        // The equalities pin the solution; nothing varies with the data.
        result.x = prep.x_particular();
        result.converged = true;
        result.iterations = 1;
    } else {
        // Mid-stream: solve directly on the incrementally maintained
        // reduced problem.
        result = solve_qp_dual_reduced(reduced_hessian_, reduced_gradient_,
                                       prep.reduced_inequality(), prep.reduced_ineq_rhs());
        result.x = prep.z_basis() * result.x + prep.x_particular();
    }

    Single_cell_estimate est(artifacts_->basis, result.x);
    est.lambda = options_.lambda;
    est.fitted = artifacts_->kernel_matrix * est.coefficients();
    double chi2 = 0.0;
    for (std::size_t m = 0; m < observed_; ++m) {
        const double r = values_[m] - est.fitted[m];
        chi2 += weights_[m] * r * r;
    }
    est.chi_squared = chi2;
    est.roughness = dot(est.coefficients(), artifacts_->penalty * est.coefficients());
    est.objective = chi2 + options_.lambda * est.roughness;
    est.qp_iterations = result.iterations;
    est.active_constraints = result.active_set.size();

    // Convergence bookkeeping against the previous estimate.
    double score = 0.0;
    try {
        score = profile_order_parameter(score_phi_, score_design_ * est.coefficients());
    } catch (const std::invalid_argument&) {
        score = 0.0;  // no positive mass: treat as fully unlocalized
    }
    if (previous_alpha_.empty()) {
        last_coefficient_delta_ = std::numeric_limits<double>::infinity();
        last_score_delta_ = std::numeric_limits<double>::infinity();
    } else {
        const double scale = std::max(1.0, norm_inf(est.coefficients()));
        last_coefficient_delta_ = norm_inf(est.coefficients() - previous_alpha_) / scale;
        last_score_delta_ = std::abs(score - order_parameter_);
    }
    const Stream_convergence& conv = options_.convergence;
    if (last_coefficient_delta_ <= conv.coefficient_tol &&
        last_score_delta_ <= conv.score_tol) {
        ++stable_count_;
    } else {
        stable_count_ = 0;
    }
    converged_ = observed_ >= conv.min_observed && stable_count_ >= conv.stable_updates;

    previous_alpha_ = est.coefficients();
    order_parameter_ = score;
    estimate_ = std::move(est);
    ++stats_.updates;
    ++stats_.cold_solves;
    static telemetry::Counter& updates = telemetry::counter("stream.updates");
    updates.add();
}

}  // namespace cellsync

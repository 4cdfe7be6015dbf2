#include "stream/streaming_deconvolver.h"

#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/telemetry.h"
#include "core/trace.h"

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
}

// Circularly-open scoring grid (phi = 1 aliases phi = 0 and must not be
// double-counted). The design matrix on it turns each append's profile
// sampling into one small mat-vec instead of per-point basis evaluation,
// and the phase table its score into sums, with no sin or cos per append.
struct Streaming_deconvolver::Score_grid {
    /// Coarser than the 201-point output grid on purpose: the score only
    /// feeds the convergence delta, and sampling the profile is a large
    /// share of the per-append cost.
    static constexpr std::size_t points = 64;
    Matrix design;
    Phase_table phases;
};

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

    // Seed the reduced state with the objective of the still-empty
    // normal-equation state: H0 = 2 (lambda Omega + ridge I), g0 = 0.
    reduced_ = reduced_estimator_objective(
        Deconvolver(artifacts_).reduce_blocks(Matrix(n, n), Vector(n, 0.0)),
        artifacts_->reduced_penalty, options_.lambda);
    next_ = reduced_;

    Vector score_phi = linspace(0.0, 1.0, Score_grid::points + 1);
    score_phi.pop_back();
    score_grid_ = std::make_shared<const Score_grid>(
        Score_grid{artifacts_->basis->design_matrix(score_phi), Phase_table(score_phi)});
}

Streaming_deconvolver::Streaming_deconvolver(const Streaming_deconvolver& seed,
                                             std::string label)
    : Streaming_deconvolver(seed) {
    label_ = std::move(label);
    // Room for the whole series, so a session's appends never reallocate.
    const std::size_t m = artifacts_->times.size();
    values_.reserve(m);
    sigmas_.reserve(m);
    weights_.reserve(m);
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

    const double w = 1.0 / (sigma * sigma);
    const bool completes = m + 1 == times.size();
    if (!completes) update_reduced(m, value, w);
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
        package(completes ? solve_complete_series()
                          : solve_qp_dual_prepared(next_, *artifacts_->constraint_prep));
    } catch (...) {
        values_.pop_back();
        sigmas_.pop_back();
        weights_.pop_back();
        --observed_;
        throw;
    }
    if (!completes) std::swap(reduced_, next_);
    static telemetry::Histogram& append_us = telemetry::histogram("stream.append_us");
    append_us.record(update_timer.elapsed_us());
    return *estimate_;
}

void Streaming_deconvolver::update_reduced(std::size_t m, double value, double w) {
    // With kr = Z'k for the kernel row k appended, delta Hr = 2 w kr kr'
    // and delta gr = 2 w (k'x0 - G_m) kr.
    const Qp_constraint_prep& prep = *artifacts_->constraint_prep;
    const std::size_t nz = prep.z_basis().cols();
    if (nz == 0) return;
    const Vector row = artifacts_->kernel_matrix.row(m);
    const Vector kr = transposed_times(prep.z_basis(), row);
    for (std::size_t i = 0; i < nz; ++i) {
        const double wi = 2.0 * w * kr[i];
        for (std::size_t j = 0; j < nz; ++j) {
            next_.hessian(i, j) = reduced_.hessian(i, j) + wi * kr[j];
        }
    }
    const double c = 2.0 * w * (dot(row, prep.x_particular()) - value);
    for (std::size_t i = 0; i < nz; ++i) {
        next_.gradient[i] = c != 0.0 ? reduced_.gradient[i] + c * kr[i] : reduced_.gradient[i];
    }
}

Qp_result Streaming_deconvolver::solve_complete_series() const {
    // Deconvolver::estimate on the complete series: the normal-equation
    // blocks over every kernel row, accumulated straight off the kernel
    // from the stored weights and values, then solve_blocks.
    std::vector<std::size_t> rows(observed_);
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    const Matrix& kernel = artifacts_->kernel_matrix;
    Deconvolution_options options;
    options.lambda = options_.lambda;
    options.constraints = artifacts_->constraint_options;
    return Deconvolver(artifacts_).solve_blocks(
        weighted_gram_rows(kernel, rows, weights_),
        weighted_transposed_times_rows(kernel, rows, weights_, values_), options);
}

void Streaming_deconvolver::package(Qp_result result) {
    Single_cell_estimate est(artifacts_->basis, std::move(result.x));
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

    // Convergence bookkeeping against the previous estimate. A profile
    // with no positive mass scores 0: fully unlocalized.
    const double score =
        score_grid_->phases.order_parameter(score_grid_->design * est.coefficients())
            .value_or(0.0);
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

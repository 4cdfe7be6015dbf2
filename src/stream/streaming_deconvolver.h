// Incremental per-gene deconvolution over a growing measurement prefix.
//
// The batch estimator (core/deconvolver.h) solves one constrained QP per
// gene from a complete time course. A monitoring workload delivers the
// same course one timepoint at a time; re-solving from scratch on every
// arrival rebuilds the weighted normal equations over all observed rows
// and runs the dual active-set iteration cold. The streaming estimator
// keeps the gene's normal-equation state — the Gram block
// sum_m w_m k_m k_m' and the right-hand side sum_m w_m G_m k_m, plus
// their projections onto the constraint preparation's equality null
// space — and on each appended measurement performs a rank-one update
// plus a Goldfarb-Idnani re-solve directly on the reduced blocks
// (solve_qp_dual_reduced), the same dual iteration the batch path runs.
//
// Bit-identity contract: the accumulation order of the incremental state
// mirrors weighted_gram / transposed_times exactly, and the solve on the
// final timepoint goes through the identical cold prepared path the
// batch estimator uses, so once the stream has seen the complete series
// the estimate equals Deconvolver::estimate on that series bit for bit
// (same lambda, same design artifacts). Asserted by
// tests/streaming_deconvolver_test.cpp and bench/perf_streaming.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/deconvolver.h"
#include "core/design.h"

namespace cellsync {

/// Stabilization thresholds: an estimate is converged once both deltas
/// stay below their tolerances for `stable_updates` consecutive appends
/// (and at least `min_observed` timepoints have been seen). Convergence
/// is advisory — callers may stop early, the stream keeps accepting
/// appends either way — and un-latches if a later timepoint moves the
/// estimate again.
struct Stream_convergence {
    double coefficient_tol = 1e-3;   ///< relative inf-norm coefficient delta
    double score_tol = 1e-3;         ///< synchrony order-parameter delta
    std::size_t stable_updates = 2;  ///< consecutive qualifying appends
    std::size_t min_observed = 4;    ///< appends before convergence can trigger
    /// Circularly-open phase samples used for the order-parameter score.
    /// Coarser than the 200-point reporting grid on purpose: the score
    /// only feeds the convergence delta, and sampling the profile is a
    /// large share of the per-append cost.
    std::size_t score_points = 64;

    /// Throws std::invalid_argument for a negative or NaN tolerance (a
    /// delta is an absolute value, so it could never qualify),
    /// stable_updates == 0, or fewer than 2 score_points.
    void validate() const;
};

/// Per-stream estimation controls. The smoothness weight is fixed for
/// the stream's lifetime (cross-validation needs held-out rows of a
/// complete series; batch-select lambda first, then stream with it).
struct Stream_options {
    double lambda = 1e-3;  ///< smoothness weight (paper Eq 5)
    Stream_convergence convergence;
};

/// How each append's QP was solved. Every append runs the one cold dual
/// path, so warm_accepts stays 0 and cold_solves equals updates; both
/// fields remain only because the end-to-end benchmark's replay reads
/// them.
struct Stream_solve_stats {
    std::size_t updates = 0;       ///< appends processed
    std::size_t warm_accepts = 0;  ///< always 0: there is no warm path
    std::size_t cold_solves = 0;   ///< equals updates
};

/// Incremental estimator for one gene against a shared design.
///
/// Appends must follow the design's kernel time grid in order: the m-th
/// append carries the measurement at artifacts->times[m]. Not thread-safe
/// per instance; distinct streams are independent (the shared artifacts
/// are immutable), which is what Stream_session exploits to fan appends
/// over a worker pool.
class Streaming_deconvolver {
  public:
    /// Throws std::invalid_argument on null artifacts, negative lambda, or
    /// invalid convergence thresholds.
    Streaming_deconvolver(std::shared_ptr<const Design_artifacts> artifacts,
                          std::string label, const Stream_options& options = {});

    const std::string& label() const { return label_; }
    const Stream_options& options() const { return options_; }
    const std::shared_ptr<const Design_artifacts>& artifacts() const { return artifacts_; }

    /// Timepoints appended so far.
    std::size_t observed() const { return observed_; }

    /// True once every kernel-grid timepoint has been appended.
    bool complete() const { return observed_ == artifacts_->times.size(); }

    /// Append the measurement at the next kernel-grid time and re-solve.
    /// `time` must match artifacts->times[observed()] (same tolerance as
    /// the batch estimator's series check); sigma must pass valid_sigma
    /// and value must be finite. Returns the updated estimate. Throws
    /// std::invalid_argument on a mismatched time or invalid measurement,
    /// std::logic_error when the stream is already complete, and
    /// propagates QP failures as std::runtime_error (the stream state is
    /// rolled back so the append can be retried or abandoned).
    const Single_cell_estimate& append(double time, double value, double sigma = 1.0);

    /// Latest estimate; throws std::logic_error before the first append.
    const Single_cell_estimate& current() const;
    bool has_estimate() const { return estimate_.has_value(); }

    /// Convergence state after the most recent append.
    bool converged() const { return converged_; }
    double last_coefficient_delta() const { return last_coefficient_delta_; }
    double last_score_delta() const { return last_score_delta_; }
    /// Order parameter of the current profile (0 when it has no positive
    /// mass).
    double order_parameter() const { return order_parameter_; }

    const Stream_solve_stats& stats() const { return stats_; }

    /// The measurements appended so far, as a series (prefix of the grid).
    Measurement_series observed_series() const;

  private:
    void solve_and_package();

    std::shared_ptr<const Design_artifacts> artifacts_;
    std::string label_;
    Stream_options options_;

    // Incremental normal-equation state over the observed prefix, kept in
    // exactly weighted_gram / transposed_times accumulation order so the
    // assembled Hessian and gradient are bit-identical to a from-scratch
    // build over the same rows.
    Matrix gram_;   // sum_m w_m k_m k_m'
    Vector ktwg_;   // sum_m k_m (w_m G_m)
    // The same state projected onto the constraint preparation's equality
    // null space (x = x0 + Z y), also rank-one updated: mid-stream solves
    // run directly on the reduced problem, skipping the O(n^2 nz)
    // reduction the prepared path performs per solve. Only the final
    // (complete-series) solve re-reduces from gram_ via the cold prepared
    // path, which is what pins the bit-identity guarantee.
    Matrix reduced_hessian_;   // Z' (2 (G + lambda Omega + ridge I)) Z
    Vector reduced_gradient_;  // Z' (H x0 + g)
    std::size_t observed_ = 0;
    Vector values_;   // observed measurements, grid order
    Vector sigmas_;   // their standard deviations
    Vector weights_;  // 1 / sigma^2, grid order

    std::optional<Single_cell_estimate> estimate_;
    Vector previous_alpha_;
    double order_parameter_ = 0.0;
    double last_coefficient_delta_ = 0.0;
    double last_score_delta_ = 0.0;
    std::size_t stable_count_ = 0;
    bool converged_ = false;
    Stream_solve_stats stats_;
    Vector score_phi_;           // circularly-open scoring grid (see .cpp)
    Matrix score_design_;        // basis design on score_phi_: scoring is one mat-vec
};

}  // namespace cellsync

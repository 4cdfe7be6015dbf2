// Incremental per-gene deconvolution over a growing measurement prefix.
//
// The batch estimator (core/deconvolver.h) solves one constrained QP per
// gene from a complete time course. A monitoring workload delivers the
// same course one timepoint at a time; re-solving from scratch on every
// arrival rebuilds the weighted normal equations over all observed rows
// and runs the dual active-set iteration cold. A stream instead keeps the
// reduced objective of its observed prefix — the weighted normal
// equations projected onto the constraint preparation's equality null
// space — and on each appended measurement performs a rank-one update of
// it plus a Goldfarb-Idnani re-solve directly on the reduced blocks
// (solve_qp_dual_prepared), the same dual iteration the batch path runs.
// Besides that objective a stream holds only its observed values,
// sigmas and weights and its latest estimate; the score grid is shared
// by every stream on a session.
//
// Bit-identity contract: the append that completes the series builds its
// normal-equation blocks from the stored weights and values with the
// functions Deconvolver::estimate uses (weighted_gram_rows /
// weighted_transposed_times_rows over every kernel row) and solves them
// with Deconvolver::solve_blocks, so once the stream has seen the
// complete series the estimate equals Deconvolver::estimate on that
// series bit for bit (same lambda, same design artifacts): both run one
// code path on the same inputs. Asserted by
// tests/streaming_deconvolver_test.cpp and bench/perf_streaming.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/deconvolver.h"
#include "core/design.h"
#include "population/synchrony.h"

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

    /// Throws std::invalid_argument for a negative or NaN tolerance (a
    /// delta is an absolute value, so it could never qualify) or
    /// stable_updates == 0.
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

    /// A copy of `seed`, state and all, under a new label; the copy shares
    /// the seed's score grid. Stream_session opens each stream as a copy
    /// of one fresh stream, so the state every fresh stream on a design
    /// starts from is built once per session.
    Streaming_deconvolver(const Streaming_deconvolver& seed, std::string label);

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
    struct Score_grid;

    /// The QP of the complete series, solved as Deconvolver::estimate
    /// solves it.
    Qp_result solve_complete_series() const;
    /// Writes the reduced objective after appending the measurement
    /// `value` with weight `w` at grid row `m` into next_.
    void update_reduced(std::size_t m, double value, double w);
    void package(Qp_result result);

    std::shared_ptr<const Design_artifacts> artifacts_;
    std::string label_;
    Stream_options options_;

    // The reduced objective of the observed prefix on the constraint
    // preparation's equality null space (x = x0 + Z y):
    // Z' (2 (K'WK + lambda Omega + ridge I)) Z and Z' (H x0 + g), rank-one
    // updated per append. Mid-stream solves run directly on it, with no
    // reduction per solve; the completing append does not read it.
    Reduced_objective reduced_;
    // Spare of the same shape: an append writes the updated objective
    // here and swaps it into reduced_ only once its solve succeeds, so a
    // failed solve leaves reduced_ bit for bit as it was.
    Reduced_objective next_;
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
    // Scoring on the circularly-open score grid (see .cpp), built once by
    // the stream a session copies and shared read-only by every copy.
    std::shared_ptr<const Score_grid> score_grid_;
};

}  // namespace cellsync

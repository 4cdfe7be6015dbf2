// The deconvolution estimator — the paper's core contribution.
//
// Given population measurements G(t_m), the population kernel Q(phi, t), and a
// spline basis for the unknown single-cell profile, the estimator minimizes
//
//   C(lambda) = sum_m (G(t_m) - Ghat(t_m))^2 / sigma_m^2
//             + lambda * integral f''(phi)^2 dphi              (paper Eq 5)
//
// over basis coefficients alpha, subject to positivity, RNA conservation
// across division, and transcription-rate continuity (paper Secs 2.3, 3.2).
// The problem is a convex QP solved by the prepared dual active-set path
// (numerics/qp_solver.h); all gene-independent precomputation lives in a
// shared Design_artifacts (core/design.h).
#pragma once

#include <memory>

#include "core/design.h"
#include "io/measurement.h"
#include "population/kernel_builder.h"
#include "spline/spline_basis.h"

namespace cellsync {

/// Estimation options.
struct Deconvolution_options {
    double lambda = 1e-3;  ///< smoothness weight (paper Eq 5)
    /// The design's geometry: a solve under another throws. Kept only
    /// because e2ebench/replay.cpp reads it.
    Constraint_options constraints;
};

/// Tiny Tikhonov term added to every normal-equation system the
/// estimator solves (constrained QP, unconstrained estimate, hat matrix,
/// GCV). Batch and streaming estimates agree bit for bit because both
/// assemble their QP through Deconvolver::solve_blocks with this one value.
inline constexpr double estimator_ridge = 1e-9;

/// The estimator's QP objective 0.5 a'Ha + g'a over spline coefficients.
struct Estimator_objective {
    Matrix hessian;   ///< H = 2 (K'WK + lambda Omega + estimator_ridge I)
    Vector gradient;  ///< g = -2 K'WG
};

/// Assemble the QP objective from the weighted normal-equation blocks
/// K'WK (`ktwk`, n x n) and K'WG (`ktwg`, length n) and the penalty Gram
/// Omega. The one definition of the estimator's Hessian and gradient.
Estimator_objective estimator_objective(const Matrix& ktwk, const Vector& ktwg,
                                        const Matrix& penalty, double lambda);

/// The estimator objective reduced onto a constraint preparation's equality
/// null space (x = x0 + Z y) is affine in lambda:
///     Hr(lambda) = A + lambda P,   gr(lambda) = b + lambda p.
/// `blocks` is (A, b), estimator_objective at lambda = 0 reduced once per
/// set of data blocks (Deconvolver::reduce_blocks); `penalty` is (P, p),
/// the design's Design_artifacts::reduced_penalty. This forms one lambda's
/// objective in O(nz^2): the one place every constrained estimate, CV fit
/// and completing stream solve assembles the QP it solves. Throws
/// std::invalid_argument on a shape mismatch.
Reduced_objective reduced_estimator_objective(const Reduced_objective& blocks,
                                              const Reduced_objective& penalty, double lambda);

/// The recovered single-cell expression profile f(phi) with fit
/// diagnostics. The estimate is a callable function of phase.
class Single_cell_estimate {
  public:
    Single_cell_estimate(std::shared_ptr<const Natural_spline_basis> basis, Vector alpha);

    /// f(phi).
    double operator()(double phi) const;

    /// f'(phi).
    double derivative(double phi) const;

    /// Sample f on a phase grid.
    Vector sample(const Vector& phi_grid) const;

    /// Expression mapped to "simulated time": f(t / cycle_minutes), the
    /// scaling used for the paper's Figure 5 bottom panel.
    Vector sample_time(const Vector& t_minutes, double cycle_minutes) const;

    const Vector& coefficients() const { return alpha_; }
    const Natural_spline_basis& basis() const { return *basis_; }

    // -- fit diagnostics (filled by the Deconvolver) --
    double lambda = 0.0;          ///< smoothness weight used
    double chi_squared = 0.0;     ///< weighted data misfit at the optimum
    double roughness = 0.0;       ///< integral f''^2 at the optimum
    double objective = 0.0;       ///< chi_squared + lambda * roughness
    Vector fitted;                ///< Ghat(t_m) at the measurement times
    std::size_t qp_iterations = 0;///< active-set iterations (0 = unconstrained path)
    std::size_t active_constraints = 0;  ///< binding positivity constraints

  private:
    std::shared_ptr<const Natural_spline_basis> basis_;
    Vector alpha_;
};

/// Deconvolution engine bound to one kernel and one basis.
///
/// The measurement series passed to estimate() must sample exactly the
/// kernel's time grid (that is how the paper's pipeline operates: the
/// kernel is built at the experiment's sampling times).
///
/// All gene-independent state lives in an immutable Design_artifacts that
/// can be shared across Deconvolver instances, the experiment runner, the
/// streaming session, and threads. The design fixes the constraint
/// geometry: every constrained solve runs on its constraint blocks and
/// their QP reduction, and other options.constraints are an error.
class Deconvolver {
  public:
    /// Build fresh artifacts for the default constraint geometry.
    /// Throws std::invalid_argument on a null basis.
    Deconvolver(std::shared_ptr<const Natural_spline_basis> basis, const Kernel_grid& kernel,
                const Cell_cycle_config& config);

    /// Bind to artifacts precomputed elsewhere (experiment runner, CLI,
    /// tests).
    explicit Deconvolver(std::shared_ptr<const Design_artifacts> artifacts);

    /// Kernel matrix K(m, i) = integral Q(phi, t_m) psi_i(phi) dphi.
    const Matrix& kernel_matrix() const { return artifacts_->kernel_matrix; }

    /// Penalty Gram matrix Omega.
    const Matrix& penalty() const { return artifacts_->penalty; }

    /// Kernel time grid (the required measurement times).
    const Vector& times() const { return artifacts_->times; }

    const Natural_spline_basis& basis() const { return *artifacts_->basis; }
    const Cell_cycle_config& config() const { return artifacts_->config; }

    /// The shared design-level precomputation.
    const std::shared_ptr<const Design_artifacts>& artifacts() const { return artifacts_; }

    /// Full constrained estimate (the paper's method).
    /// Throws std::invalid_argument if the series does not match the kernel
    /// times or options.constraints differ from the design's; propagates
    /// QP failures as std::runtime_error.
    Single_cell_estimate estimate(const Measurement_series& series,
                                  const Deconvolution_options& options = {}) const;

    /// Unconstrained ridge estimate (smoothness only) — the baseline the
    /// constraint ablation compares against, and the estimator underlying
    /// GCV lambda selection.
    Single_cell_estimate estimate_unconstrained(const Measurement_series& series,
                                                double lambda) const;

    /// Constrained estimate restricted to a subset of measurement rows
    /// (estimate() runs it on every row). `rows` indexes into the kernel
    /// time grid; duplicates are rejected.
    Single_cell_estimate estimate_on_rows(const Measurement_series& series,
                                          const std::vector<std::size_t>& rows,
                                          const Deconvolution_options& options) const;

    /// The lambda-free half (A, b) of the reduced objective (see
    /// reduced_estimator_objective) for normal-equation blocks K'WK
    /// (`ktwk`, n x n) and K'WG (`ktwg`, length n) on the design's
    /// constraint preparation. The k-fold CV sweep reduces each fold's
    /// blocks once for the whole lambda grid. Throws std::invalid_argument
    /// on a shape mismatch.
    Reduced_objective reduce_blocks(const Matrix& ktwk, const Vector& ktwg) const;

    /// The constrained QP at options.lambda over reduce_blocks' output:
    /// forms the reduced objective (reduced_estimator_objective), solves
    /// it (solve_qp_dual_prepared) and returns the optimum as spline
    /// coefficients, with the reduced problem's objective. Every solve
    /// that takes Deconvolution_options (estimates, CV fits and a stream's
    /// completing solve) passes through here, and it first throws
    /// std::invalid_argument when options.constraints differ from the
    /// design's; a stream's mid-stream solves run on the design's
    /// preparation directly. Propagates QP failures as std::runtime_error.
    Qp_result solve_reduced(const Reduced_objective& blocks,
                            const Deconvolution_options& options) const;

    /// solve_reduced(reduce_blocks(ktwk, ktwg), options): the solve behind
    /// estimate_on_rows and a stream's completing solve. The k-fold CV
    /// sweep calls the same two halves, so all of them agree bit for bit
    /// on equal blocks.
    Qp_result solve_blocks(const Matrix& ktwk, const Vector& ktwg,
                           const Deconvolution_options& options) const;

    /// Hat (influence) matrix A(lambda) of the unconstrained estimator in
    /// whitened measurement space; tr(A) is the effective dof used by GCV.
    Matrix hat_matrix(const Measurement_series& series, double lambda) const;

  private:
    void check_series(const Measurement_series& series) const;
    Single_cell_estimate package(Vector alpha, const Measurement_series& series,
                                 double lambda) const;

    std::shared_ptr<const Design_artifacts> artifacts_;
};

}  // namespace cellsync

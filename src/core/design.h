// Shared per-design precomputation for the deconvolution estimator.
//
// Everything the estimator derives from the (basis, kernel, constraint)
// triple — the kernel matrix K, the roughness penalty Omega, the physical
// constraint blocks, and the constraint-geometry reduction used by the QP
// — is independent of the gene being estimated. The seed implementation
// re-derived all of it for every gene, every CV fold, and every bootstrap
// replicate; Design_artifacts computes it exactly once and is shared
// immutably across genes, lambda grid points, replicates, and threads.
#pragma once

#include <memory>

#include "biology/cell_cycle.h"
#include "core/constraints.h"
#include "numerics/qp_solver.h"
#include "population/kernel_builder.h"
#include "spline/spline_basis.h"

namespace cellsync {

/// Immutable design-level precomputation. Construct via
/// make_design_artifacts(); share via std::shared_ptr — nothing in here
/// depends on the measurement values, so concurrent readers are safe.
struct Design_artifacts {
    std::shared_ptr<const Natural_spline_basis> basis;
    Cell_cycle_config config;
    Vector times;          ///< kernel time grid (required measurement times)
    Matrix kernel_matrix;  ///< K(m, i) = integral Q(phi, t_m) psi_i(phi) dphi
    Matrix penalty;        ///< roughness Gram matrix Omega

    Constraint_options constraint_options;  ///< geometry the blocks were built for
    Constraint_set constraints;             ///< equality + positivity blocks
    /// Equality null-space reduction + reduced inequality rows, shared by
    /// every constrained solve against this design.
    std::shared_ptr<const Qp_constraint_prep> constraint_prep;
    /// The penalty's share of every reduced estimator objective, per unit
    /// lambda: 2 Omega (the lambda coefficient of estimator_objective's
    /// Hessian) reduced onto constraint_prep, Z'(2 Omega)Z and
    /// Z'(2 Omega x0). See reduced_estimator_objective (core/deconvolver.h).
    Reduced_objective reduced_penalty;
};

/// Build the artifacts for one (basis, kernel, config, constraints) tuple:
/// every constrained solve on the design runs under `constraint_options`
/// (e2ebench/replay.cpp compiles against this signature). Throws
/// std::invalid_argument on a null basis or invalid config.
std::shared_ptr<const Design_artifacts> make_design_artifacts(
    std::shared_ptr<const Natural_spline_basis> basis, const Kernel_grid& kernel,
    const Cell_cycle_config& config, const Constraint_options& constraint_options = {});

/// Throws std::invalid_argument, naming both geometries, unless
/// `constraints` == design.constraint_options: a solve under another
/// geometry needs a design built for it.
void check_constraint_geometry(const Design_artifacts& design,
                               const Constraint_options& constraints);

}  // namespace cellsync

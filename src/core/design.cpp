#include "core/design.h"

#include <stdexcept>

namespace cellsync {

namespace {

/// The constraint-dependent fields of `artifacts`, from its basis, config
/// and penalty.
void build_constraint_geometry(Design_artifacts& artifacts,
                               const Constraint_options& constraint_options) {
    const std::size_t n = artifacts.basis->size();
    artifacts.constraint_options = constraint_options;
    artifacts.constraints = build_constraints(*artifacts.basis, artifacts.config, constraint_options);
    artifacts.constraint_prep = std::make_shared<const Qp_constraint_prep>(
        n, artifacts.constraints.equality, artifacts.constraints.equality_rhs,
        artifacts.constraints.inequality, artifacts.constraints.inequality_rhs);
    artifacts.reduced_penalty =
        artifacts.constraint_prep->reduce_objective(2.0 * artifacts.penalty, Vector(n, 0.0));
}

}  // namespace

std::shared_ptr<const Design_artifacts> make_design_artifacts(
    std::shared_ptr<const Natural_spline_basis> basis, const Kernel_grid& kernel,
    const Cell_cycle_config& config, const Constraint_options& constraint_options) {
    if (!basis) throw std::invalid_argument("make_design_artifacts: null basis");
    config.validate();

    auto artifacts = std::make_shared<Design_artifacts>();
    artifacts->basis = std::move(basis);
    artifacts->config = config;
    artifacts->times = kernel.times();
    artifacts->kernel_matrix = kernel.basis_matrix(*artifacts->basis);
    artifacts->penalty = artifacts->basis->penalty_matrix();
    build_constraint_geometry(*artifacts, constraint_options);
    return artifacts;
}

Design_artifacts with_constraints(const Design_artifacts& design,
                                  const Constraint_options& constraint_options) {
    Design_artifacts out = design;
    build_constraint_geometry(out, constraint_options);
    return out;
}

}  // namespace cellsync

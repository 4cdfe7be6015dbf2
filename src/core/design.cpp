#include "core/design.h"

#include <stdexcept>

namespace cellsync {

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
    artifacts->constraint_options = constraint_options;
    artifacts->constraints = build_constraints(*artifacts->basis, config, constraint_options);
    artifacts->constraint_prep = std::make_shared<const Qp_constraint_prep>(
        artifacts->basis->size(), artifacts->constraints.equality,
        artifacts->constraints.equality_rhs, artifacts->constraints.inequality,
        artifacts->constraints.inequality_rhs);
    return artifacts;
}

}  // namespace cellsync

#include "core/design.h"

#include <stdexcept>
#include <string>

namespace cellsync {

namespace {

/// "{positivity on N points, conservation, rate continuity}", listing
/// only the constraints `c` enforces, as operator== compares them.
std::string describe(const Constraint_options& c) {
    std::string out;
    const auto add = [&out](const std::string& part) { out += (out.empty() ? "" : ", ") + part; };
    if (c.positivity) add("positivity on " + std::to_string(c.positivity_points) + " points");
    if (c.conservation) add("conservation");
    if (c.rate_continuity) add("rate continuity");
    return "{" + (out.empty() ? std::string("no constraints") : out) + "}";
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
    const std::size_t n = artifacts->basis->size();
    artifacts->constraint_options = constraint_options;
    artifacts->constraints = build_constraints(*artifacts->basis, config, constraint_options);
    artifacts->constraint_prep = std::make_shared<const Qp_constraint_prep>(
        n, artifacts->constraints.equality, artifacts->constraints.equality_rhs,
        artifacts->constraints.inequality, artifacts->constraints.inequality_rhs);
    artifacts->reduced_penalty =
        artifacts->constraint_prep->reduce_objective(2.0 * artifacts->penalty, Vector(n, 0.0));
    return artifacts;
}

void check_constraint_geometry(const Design_artifacts& design,
                               const Constraint_options& constraints) {
    if (constraints == design.constraint_options) return;
    throw std::invalid_argument("Deconvolver: constraint geometry " + describe(constraints) +
                                " differs from the design's " +
                                describe(design.constraint_options) +
                                "; build a design for it with make_design_artifacts");
}

}  // namespace cellsync

#include "core/experiment_runner.h"

#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>

#include "core/batch.h"
#include "core/telemetry.h"
#include "core/trace.h"
#include "core/worker_pool.h"
#include "spline/spline_basis.h"

namespace cellsync {

namespace {

/// Condition names as used downstream: an empty name defaults to its
/// positional "conditionN" label.
std::string resolved_condition_name(const Experiment_condition& condition, std::size_t index) {
    return condition.name.empty() ? ("condition" + std::to_string(index)) : condition.name;
}

void validate_spec(const Experiment_spec& spec) {
    if (spec.conditions.empty()) {
        throw std::invalid_argument("run_experiment: no conditions");
    }
    // Duplicate names would silently merge two conditions under one label:
    // the second would overwrite the first's warm-start lambdas and the
    // caller could not tell their results apart. Reject them up front.
    for (std::size_t a = 0; a < spec.conditions.size(); ++a) {
        const std::string name_a = resolved_condition_name(spec.conditions[a], a);
        for (std::size_t b = a + 1; b < spec.conditions.size(); ++b) {
            if (name_a == resolved_condition_name(spec.conditions[b], b)) {
                throw std::invalid_argument(
                    "run_experiment: duplicate condition name '" + name_a +
                    "' (conditions " + std::to_string(a) + " and " + std::to_string(b) +
                    "); give each condition a distinct name");
            }
        }
    }
    Natural_spline_basis::validate_knot_count(spec.basis_size);
    for (std::size_t c = 0; c < spec.conditions.size(); ++c) {
        const Experiment_condition& condition = spec.conditions[c];
        if (condition.panel.empty()) {
            throw std::invalid_argument("run_experiment: condition '" +
                                        resolved_condition_name(condition, c) +
                                        "' has an empty panel");
        }
        const Vector& times = condition.panel.front().times;
        for (const Measurement_series& series : condition.panel) {
            series.validate();
            if (series.times != times) {
                throw std::invalid_argument(
                    "run_experiment: series '" + series.label + "' of condition '" +
                    resolved_condition_name(condition, c) +
                    "' is not on the condition's time grid");
            }
        }
    }
}

/// Log-spaced grid of `points` lambdas centered (in log space) on
/// `center`, spanning +/- `decades`.
Vector warm_grid(double center, std::size_t points, double decades) {
    return default_lambda_grid(points, center * std::pow(10.0, -decades),
                               center * std::pow(10.0, decades));
}

/// Per-gene warm-started lambda grids for condition `c`: narrowed around
/// each gene's selection in the most recent condition where it succeeded
/// (empty grid = fall back to the shared grid).
std::vector<Vector> warm_grids_for(const Experiment_spec& spec, std::size_t c,
                                   const std::map<std::string, double>& previous_lambda) {
    const Experiment_condition& condition = spec.conditions[c];
    std::vector<Vector> grids(condition.panel.size());
    if (spec.batch.select_lambda && c > 0) {
        for (std::size_t g = 0; g < condition.panel.size(); ++g) {
            const auto it = previous_lambda.find(condition.panel[g].label);
            if (it != previous_lambda.end()) {
                grids[g] = warm_grid(it->second, spec.warm_grid_points,
                                     spec.warm_grid_decades);
            }
        }
    }
    return grids;
}

/// Record the condition's selected lambdas (feeding later conditions'
/// warm starts) and collect the per-gene scores of the solve tasks
/// (`scores`, panel order; empty for a failed gene or one without
/// positive mass) into the condition's synchrony list and means.
void score_condition(Condition_result& out,
                     const std::vector<std::optional<Profile_scores>>& scores,
                     std::map<std::string, double>& previous_lambda) {
    // Once per condition: the experiment-level progress counters.
    static telemetry::Counter& conditions_done = telemetry::counter("experiment.conditions_done");
    static telemetry::Counter& genes_done = telemetry::counter("experiment.genes_done");
    conditions_done.add();
    genes_done.add(out.genes.size());

    for (std::size_t g = 0; g < out.genes.size(); ++g) {
        const Batch_entry& entry = out.genes[g];
        if (entry.estimate.has_value()) previous_lambda[entry.label] = entry.lambda;
        if (scores[g].has_value()) out.synchrony.push_back({*scores[g], entry.label});
    }
    if (!out.synchrony.empty()) {
        for (const Gene_synchrony& s : out.synchrony) {
            out.mean_order_parameter += s.order_parameter;
            out.mean_entropy += s.entropy;
        }
        const double n = static_cast<double>(out.synchrony.size());
        out.mean_order_parameter /= n;
        out.mean_entropy /= n;
    }
}

/// The whole run as flat batches on one Worker_pool:
///
///   1. `kernels`: every condition's kernel through the cache (conditions
///      sharing a key share one resolution);
///   2. `designs`: one design per distinct kernel (the cache key covers
///      the full cell-cycle config, so an identical grid pointer implies
///      an identical design), with its basis design matrix on the output
///      grid;
///   3. per condition, in order, `solve:<condition>` (one task per gene:
///      solve, sample on the output grid, score), then the warm-start
///      hand-off on this thread.
///
/// Each gene's inputs are those of a condition-by-condition loop, so the
/// results do not depend on the thread count. A failed kernel ends the
/// run after the first batch, before any gene is solved.
Experiment_result run_batches(const Experiment_spec& spec, const Volume_model& volume_model,
                              Kernel_cache& cache, Worker_pool& pool) {
    const std::size_t n = spec.conditions.size();
    Experiment_result result;
    result.conditions.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
        result.conditions[c].name = resolved_condition_name(spec.conditions[c], c);
    }

    pool.parallel_for("kernels", n, [&](std::size_t c) {
        const Experiment_condition& condition = spec.conditions[c];
        result.conditions[c].kernel = cache.get_or_build(
            condition.cell_cycle, volume_model, condition.panel.front().times, spec.kernel);
    });

    // design_of[c] indexes condition c's design; first_user[d] is the
    // first condition on design d's kernel.
    std::map<const Kernel_grid*, std::size_t> design_of_kernel;
    std::vector<std::size_t> design_of(n);
    std::vector<std::size_t> first_user;
    for (std::size_t c = 0; c < n; ++c) {
        const auto [it, added] =
            design_of_kernel.emplace(result.conditions[c].kernel.get(), first_user.size());
        if (added) first_user.push_back(c);
        design_of[c] = it->second;
    }
    const Vector output_phi = experiment_output_phi();
    const Profile_scorer score_output(output_phi);
    std::vector<std::shared_ptr<const Design_artifacts>> designs(first_user.size());
    // One design matrix per design samples every profile: each entry sums
    // over the basis in Natural_spline_basis::expand's order, so the
    // values match sample() bit for bit.
    std::vector<Matrix> output_designs(first_user.size());
    pool.parallel_for("designs", designs.size(), [&](std::size_t d) {
        const std::size_t c = first_user[d];
        designs[d] = make_design_artifacts(
            std::make_shared<Natural_spline_basis>(spec.basis_size),
            *result.conditions[c].kernel, spec.conditions[c].cell_cycle,
            spec.batch.deconvolution.constraints);
        output_designs[d] = designs[d]->basis->design_matrix(output_phi);
    });

    std::map<std::string, double> previous_lambda;
    for (std::size_t c = 0; c < n; ++c) {
        const Experiment_condition& condition = spec.conditions[c];
        Condition_result& out = result.conditions[c];
        const std::shared_ptr<const Design_artifacts>& design = designs[design_of[c]];
        const Matrix& output_design = output_designs[design_of[c]];
        const Deconvolver deconvolver(design);
        const Batch_options resolved = resolve_batch_options(*design, spec.batch);
        const std::vector<Vector> grids = warm_grids_for(spec, c, previous_lambda);
        const std::size_t genes = condition.panel.size();
        out.genes.resize(genes);
        out.profiles.resize(genes);
        std::vector<std::optional<Profile_scores>> scores(genes);
        pool.parallel_for("solve:" + out.name, genes, [&](std::size_t g) {
            const Vector& grid = grids[g].empty() ? resolved.lambda_grid : grids[g];
            out.genes[g] = deconvolve_one(deconvolver, condition.panel[g], grid, resolved);
            if (!out.genes[g].estimate.has_value()) return;
            out.profiles[g] = output_design * out.genes[g].estimate->coefficients();
            try {
                scores[g] = score_output(out.profiles[g]);
            } catch (const std::invalid_argument&) {
                // no positive mass: synchrony is undefined, skip
            }
        });
        const telemetry::Trace_span score_span("score:" + out.name, "experiment");
        score_condition(out, scores, previous_lambda);
    }
    return result;
}

}  // namespace

Vector experiment_output_phi() { return linspace(0.0, 1.0, 201); }

Experiment_result run_experiment(const Experiment_spec& spec,
                                 const Volume_model& volume_model, Kernel_cache& cache,
                                 Worker_pool& pool) {
    validate_spec(spec);
    const Kernel_cache_stats before = cache.stats();
    Experiment_result result = run_batches(spec, volume_model, cache, pool);
    result.cache_stats = cache.stats() - before;
    return result;
}

Experiment_result run_experiment(const Experiment_spec& spec,
                                 const Volume_model& volume_model, Kernel_cache& cache) {
    Worker_pool pool(spec.threads);
    return run_experiment(spec, volume_model, cache, pool);
}

Experiment_result run_experiment(const Experiment_spec& spec,
                                 const Volume_model& volume_model) {
    Kernel_cache cache;
    return run_experiment(spec, volume_model, cache);
}

}  // namespace cellsync

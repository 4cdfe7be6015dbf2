#include "core/experiment_runner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>

#include "core/batch.h"
#include "core/task_graph.h"
#include "core/telemetry.h"
#include "core/worker_pool.h"
#include "numerics/fnv.h"
#include "population/synchrony.h"
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
    if (spec.basis_size < Natural_spline_basis::min_knots) {
        throw std::invalid_argument("run_experiment: basis_size too small");
    }
    for (const Experiment_condition& condition : spec.conditions) {
        if (condition.panel.empty()) {
            throw std::invalid_argument("run_experiment: condition '" + condition.name +
                                        "' has an empty panel");
        }
        const Vector& times = condition.panel.front().times;
        for (const Measurement_series& series : condition.panel) {
            series.validate();
            if (series.times != times) {
                throw std::invalid_argument(
                    "run_experiment: series '" + series.label + "' of condition '" +
                    condition.name + "' is not on the condition's time grid");
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

/// Profiles are scored on the first 200 points of the standard 201-point
/// output grid — phi = 0, 0.005, ..., 0.995. Dropping the phi = 1 sample
/// keeps the grid circularly open (phi = 0 and 1 are the same angle and
/// must not be double-counted), and using the output grid's own points
/// lets `cellsync_deconvolve report` reproduce these scores exactly from
/// a saved profile CSV.
Vector make_score_phi() {
    Vector score_phi = linspace(0.0, 1.0, 201);
    score_phi.pop_back();
    return score_phi;
}

/// Per-gene warm-started lambda grids for condition `c`: narrowed around
/// each gene's selection in the most recent condition where it succeeded
/// (empty grid = fall back to the shared grid).
std::vector<Vector> warm_grids_for(const Experiment_spec& spec, std::size_t c,
                                   const std::map<std::string, double>& previous_lambda) {
    const Experiment_condition& condition = spec.conditions[c];
    std::vector<Vector> grids(condition.panel.size());
    if (spec.warm_start_lambda && spec.batch.select_lambda && c > 0) {
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
/// warm starts) and score every successful profile's synchrony. Every
/// gene of the condition is expanded in `basis`.
void score_condition(Condition_result& out, const Basis& basis, const Vector& score_phi,
                     std::map<std::string, double>& previous_lambda) {
    // Once per condition: the experiment-level progress counters.
    static telemetry::Counter& conditions_done = telemetry::counter("experiment.conditions_done");
    static telemetry::Counter& genes_done = telemetry::counter("experiment.genes_done");
    conditions_done.add();
    genes_done.add(out.genes.size());

    for (const Batch_entry& entry : out.genes) {
        if (entry.estimate.has_value()) previous_lambda[entry.label] = entry.lambda;
    }

    // One design matrix samples every profile: each entry sums over the
    // basis in Basis::expand's order, so the values match sample() bit for
    // bit.
    const Matrix score_design = basis.design_matrix(score_phi);
    for (const Batch_entry& entry : out.genes) {
        if (!entry.estimate.has_value()) continue;
        const Vector values = score_design * entry.estimate->coefficients();
        Gene_synchrony scores;
        scores.label = entry.label;
        try {
            scores.order_parameter = profile_order_parameter(score_phi, values);
            scores.entropy = profile_entropy(values);
        } catch (const std::invalid_argument&) {
            continue;  // no positive mass: synchrony is undefined, skip
        }
        const auto peak = std::max_element(values.begin(), values.end());
        scores.peak_phi = score_phi[static_cast<std::size_t>(peak - values.begin())];
        out.synchrony.push_back(std::move(scores));
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

/// The whole run as one Task_graph, executed by one Worker_pool. Per
/// condition c —
///
///   kernel_c ──► prep_c ──► solve_c (one task per gene) ──► score_c
///                  ▲                                           │
///                  └──────────── score_{c-1} ◄─────────────────┘
///
/// Every kernel node is a root, so kernel simulation of condition k+1 runs
/// while condition k's solves drain; kernel nodes of conditions sharing a
/// key share one resolution through the cache. The prep/score chain hands
/// the warm-start state from condition to condition, so each gene's inputs
/// are those of a condition-by-condition loop whatever the thread count
/// or the order in which kernels finish.
Experiment_result run_graph(const Experiment_spec& spec, const Volume_model& volume_model,
                            Kernel_cache& cache) {
    const std::size_t n = spec.conditions.size();
    const Vector score_phi = make_score_phi();

    Experiment_result result;
    result.conditions.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
        result.conditions[c].name = resolved_condition_name(spec.conditions[c], c);
    }

    /// Solve inputs produced by prep_c, consumed by solve_c's gene tasks.
    struct Condition_work {
        std::shared_ptr<const Deconvolver> deconvolver;
        Batch_options resolved;
        std::vector<Vector> grids;
    };
    std::vector<Condition_work> work(n);
    std::map<std::string, double> previous_lambda;
    // Conditions resolving to the same cached kernel share one design (the
    // cache key covers the full cell-cycle config, so an identical grid
    // pointer implies an identical design). Only prep nodes touch the map,
    // and those are chained, so no synchronization is needed.
    std::map<const Kernel_grid*, std::shared_ptr<const Design_artifacts>> designs;

    Task_graph graph;
    std::vector<Task_graph::Node_id> kernel_nodes(n);
    std::vector<Task_graph::Node_id> score_nodes(n);
    // Kernel nodes first: they get threads first when several nodes are
    // ready, which is right — they are the long poles being hidden.
    for (std::size_t c = 0; c < n; ++c) {
        kernel_nodes[c] = graph.add_node(
            "kernel:" + result.conditions[c].name, 1,
            [&spec, &result, &volume_model, &cache, c](std::size_t) {
                const Experiment_condition& condition = spec.conditions[c];
                result.conditions[c].kernel =
                    cache.get_or_build(condition.cell_cycle, volume_model,
                                       condition.panel.front().times, spec.kernel);
            });
    }
    for (std::size_t c = 0; c < n; ++c) {
        std::vector<Task_graph::Node_id> prep_deps = {kernel_nodes[c]};
        if (c > 0) prep_deps.push_back(score_nodes[c - 1]);
        const Task_graph::Node_id prep = graph.add_node(
            "prep:" + result.conditions[c].name, 1,
            [&spec, &result, &work, &designs, &previous_lambda, c](std::size_t) {
                Condition_result& out = result.conditions[c];
                std::shared_ptr<const Design_artifacts>& design =
                    designs[out.kernel.get()];
                if (!design) {
                    design = make_design_artifacts(
                        std::make_shared<Natural_spline_basis>(spec.basis_size),
                        *out.kernel, spec.conditions[c].cell_cycle,
                        spec.batch.deconvolution.constraints);
                }
                work[c].deconvolver = std::make_shared<const Deconvolver>(design);
                work[c].resolved = resolve_batch_options(*design, spec.batch);
                work[c].grids = warm_grids_for(spec, c, previous_lambda);
                out.genes.resize(spec.conditions[c].panel.size());
            },
            std::move(prep_deps));
        const Task_graph::Node_id solve = graph.add_node(
            "solve:" + result.conditions[c].name, spec.conditions[c].panel.size(),
            [&spec, &result, &work, c](std::size_t g) {
                const Condition_work& w = work[c];
                const Vector& grid =
                    w.grids[g].empty() ? w.resolved.lambda_grid : w.grids[g];
                result.conditions[c].genes[g] = deconvolve_one(
                    *w.deconvolver, spec.conditions[c].panel[g], grid, w.resolved);
            },
            {prep});
        score_nodes[c] = graph.add_node(
            "score:" + result.conditions[c].name, 1,
            [&result, &work, &score_phi, &previous_lambda, c](std::size_t) {
                score_condition(result.conditions[c], work[c].deconvolver->basis(), score_phi,
                                previous_lambda);
            },
            {solve});
    }

    Worker_pool pool(spec.threads);
    pool.run(graph);
    return result;
}

/// FNV-1a 64-bit over a gene label — the shard assignment hash.
std::uint64_t label_hash(const std::string& label) { return fnv1a64(label); }

}  // namespace

Experiment_result run_experiment(const Experiment_spec& spec,
                                 const Volume_model& volume_model, Kernel_cache& cache) {
    validate_spec(spec);
    const Kernel_cache_stats before = cache.stats();
    Experiment_result result = run_graph(spec, volume_model, cache);
    result.cache_stats = cache.stats() - before;
    return result;
}

Experiment_result run_experiment(const Experiment_spec& spec,
                                 const Volume_model& volume_model) {
    Kernel_cache cache;
    return run_experiment(spec, volume_model, cache);
}

Experiment_spec shard_experiment(const Experiment_spec& spec, std::size_t shards,
                                 std::size_t shard_index) {
    if (shards == 0) {
        throw std::invalid_argument("shard_experiment: shards must be >= 1");
    }
    if (shard_index >= shards) {
        throw std::invalid_argument("shard_experiment: shard_index " +
                                    std::to_string(shard_index) + " out of range for " +
                                    std::to_string(shards) + " shards");
    }
    // Tag this process's metrics with its shard assignment so merged
    // dashboards can tell shard streams apart.
    telemetry::gauge("experiment.shard_count").set(static_cast<double>(shards));
    telemetry::gauge("experiment.shard_index").set(static_cast<double>(shard_index));
    if (shards == 1) return spec;
    Experiment_spec out = spec;
    out.conditions.clear();
    for (std::size_t c = 0; c < spec.conditions.size(); ++c) {
        const Experiment_condition& condition = spec.conditions[c];
        Experiment_condition kept = condition;
        // Pin the unsharded run's resolved name: dropping a fully
        // filtered condition shifts positions, and a positional
        // "conditionN" label that differed between shards would let
        // merge-results silently combine two different conditions.
        kept.name = resolved_condition_name(condition, c);
        kept.panel.clear();
        for (const Measurement_series& series : condition.panel) {
            if (label_hash(series.label) % shards == shard_index) {
                kept.panel.push_back(series);
            }
        }
        if (!kept.panel.empty()) out.conditions.push_back(std::move(kept));
    }
    return out;
}

}  // namespace cellsync

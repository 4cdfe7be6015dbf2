// Multi-condition, multi-gene time-course experiments.
//
// The paper's deliverable is a synchronized single-cell time course
// recovered from asynchronous population data; a real study produces many
// such datasets at once — several growth conditions or strains, each with
// a gene panel sampled on its own time grid. The experiment runner is the
// orchestration layer for that workload: per condition it obtains the
// kernel through a Kernel_cache (the build is skipped whenever the
// (config, volume model, times, bins) tuple was seen before, in memory or
// on disk), fans every (condition x gene) solve over one shared
// Design_artifacts per kernel, warm-starts lambda selection from the
// previous condition's per-gene choices, and samples and scores each
// reconstructed profile (order parameter / entropy) on the output grid.
//
// The run is three flat phases on one Worker_pool: every condition's
// kernel in one batch (conditions sharing a cache key share one
// resolution), one design per distinct kernel in a second, then the
// conditions in order, each one batch of per-gene tasks (solve, sample,
// score) followed by the warm-start hand-off.
//
// Results are deterministic for a fixed spec: identical whether kernels
// were built or served from cache, and for any thread count.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/worker_pool.h"
#include "population/kernel_cache.h"
#include "population/synchrony.h"

namespace cellsync {

/// One experimental condition: an organism/protocol configuration plus the
/// gene panel measured under it. All series of the panel must share one
/// time grid (that grid is what the condition's kernel is built at).
struct Experiment_condition {
    std::string name;
    Cell_cycle_config cell_cycle;
    std::vector<Measurement_series> panel;
};

/// Complete description of a multi-condition experiment.
struct Experiment_spec {
    std::vector<Experiment_condition> conditions;
    Kernel_build_options kernel;  ///< kernel controls (n_bins) shared by all conditions
    std::size_t basis_size = 18;  ///< Nc natural-spline knots
    /// Deconvolution, lambda grid and CV controls; an empty grid
    /// searches default_lambda_grid() (15 points on 1e-7 .. 1e1).
    Batch_options batch;
    std::size_t threads = 0;      ///< worker parallelism (0 = hardware)
    /// Lambda selection in condition c > 0 narrows each gene's grid to
    /// `warm_grid_points` lambdas spanning +/- `warm_grid_decades` around
    /// the same gene's selection in the most recent condition where it
    /// succeeded (adjacent conditions share biology, so the optimal
    /// smoothness rarely moves far); a gene with no successful earlier
    /// condition uses the full grid. Deterministic: the warm grid depends
    /// only on previous results, never on cache state.
    static constexpr std::size_t warm_grid_points = 7;
    static constexpr double warm_grid_decades = 1.0;
};

/// Synchrony scores of one reconstructed profile (score_profile in
/// population/synchrony.h).
struct Gene_synchrony : Profile_scores {
    std::string label;
};

/// The phase grid every profile is sampled and scored on: 201 points on
/// [0, 1], the grid of the profile CSVs of `run` and `stream`, so
/// `report` reproduces the scores from a saved CSV.
Vector experiment_output_phi();

/// Everything produced for one condition.
struct Condition_result {
    std::string name;
    std::shared_ptr<const Kernel_grid> kernel;
    std::vector<Batch_entry> genes;  ///< per-gene estimates / errors, panel order
    /// Each gene's profile on experiment_output_phi(), panel order: the
    /// basis design matrix on that grid times the coefficients (bit for
    /// bit Single_cell_estimate::sample). Empty for a failed gene.
    std::vector<Vector> profiles;
    /// Scores for the successful genes whose clamped profile has positive
    /// mass, in panel order.
    std::vector<Gene_synchrony> synchrony;
    double mean_order_parameter = 0.0;  ///< mean over `synchrony`
    double mean_entropy = 0.0;
};

/// Whole-experiment outcome.
struct Experiment_result {
    std::vector<Condition_result> conditions;
    /// Cache activity attributable to this run: the runner snapshots the
    /// cache's counters on entry and reports the difference, so reusing
    /// one long-lived cache across runs never inflates a run's numbers.
    Kernel_cache_stats cache_stats;
};

/// Run the experiment on `pool`, resolving kernels through `cache`
/// (spec.threads is not read: the pool sets the parallelism). Throws
/// std::invalid_argument for an empty experiment, an empty panel, a
/// panel whose series disagree on the time grid, or duplicate condition
/// names (after empty names resolve to their positional "conditionN"
/// label — duplicates would merge two conditions' results and warm-start
/// lambdas under one label); per-gene estimation failures are reported
/// in the corresponding Batch_entry::error instead of aborting. A kernel
/// that cannot be resolved ends the run with its error (the first one, if
/// several fail) before any gene is solved. Each gene's solve, sampling
/// and scoring run as one task of the condition's `solve:<condition>`
/// batch.
Experiment_result run_experiment(const Experiment_spec& spec,
                                 const Volume_model& volume_model, Kernel_cache& cache,
                                 Worker_pool& pool);

/// The same run on a pool of spec.threads.
Experiment_result run_experiment(const Experiment_spec& spec,
                                 const Volume_model& volume_model, Kernel_cache& cache);

/// Convenience overload with an ephemeral in-memory cache (conditions
/// sharing a configuration still share one kernel build within the run).
Experiment_result run_experiment(const Experiment_spec& spec,
                                 const Volume_model& volume_model);

}  // namespace cellsync

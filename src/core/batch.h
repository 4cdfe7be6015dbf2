// Batch deconvolution of multiple genes against one shared kernel.
//
// The paper applies the method to "a set of Caulobacter genes involved in
// regulating the cell cycle": the kernel Q(phi, t) is a property of the
// population, not the gene, so one kernel serves every series sampled
// at the same times. This module defines the per-gene unit of work; the
// experiment runner (core/experiment_runner.h) runs one per gene, each
// condition's genes as one worker-pool batch.
#pragma once

#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "core/cross_validation.h"
#include "core/deconvolver.h"

namespace cellsync {

/// Per-gene outcome of a batch run.
struct Batch_entry {
    std::string label;
    std::optional<Single_cell_estimate> estimate;  ///< empty if the gene failed
    double lambda = 0.0;
    /// Failure reason when estimate is empty, in the form
    /// "gene '<label>' [<exception type>]: <message>" so a panel report
    /// pinpoints both the series and the failure class.
    std::string error;
};

/// Batch controls.
struct Batch_options {
    Deconvolution_options deconvolution;
    Vector lambda_grid;         ///< empty -> default_lambda_grid()
    std::size_t cv_folds = 5;
    bool select_lambda = true;  ///< per-gene CV; else deconvolution.lambda
    std::uint64_t cv_seed = 77; ///< fold-shuffle seed (per gene, thread-invariant)
};

/// Demangled (where the ABI allows) dynamic type name of an exception —
/// the `[<exception type>]` part of a labeled task error. Shared by the
/// batch runner and the streaming session so every per-gene failure is
/// reported in the same format.
std::string exception_type_name(const std::exception& e);

/// "gene '<label>' [<exception type>]: <message>" — the uniform labeled
/// failure string stored in Batch_entry::error and Stream_update::error.
std::string labeled_task_error(const std::string& label, const std::exception& e);

/// Normalize batch options: resolve an empty lambda_grid to
/// default_lambda_grid(). The design is not read; the signature stays
/// because e2ebench/replay.cpp calls it. The constraint geometry passes
/// through, so options naming another geometry than the design's make
/// each deconvolve_one report the geometry error. The experiment runner
/// normalizes through this before spawning per-gene tasks.
Batch_options resolve_batch_options(const Design_artifacts& artifacts,
                                    const Batch_options& options);

/// Deconvolve one series: per-gene lambda CV (when enabled, through
/// best_lambda_kfold) plus the constrained estimate. Series that fail
/// validation or estimation are reported in the entry's `error` instead of
/// throwing, so one bad gene never aborts a panel. `lambda_grid` must
/// already be resolved (non-empty).
Batch_entry deconvolve_one(const Deconvolver& deconvolver, const Measurement_series& series,
                           const Vector& lambda_grid, const Batch_options& options);

/// Phase of maximal expression per successful gene — the quantity used to
/// order cell-cycle-regulated genes into a transcriptional program.
struct Peak_summary {
    std::string label;
    double peak_phi = 0.0;
    double peak_value = 0.0;
};

/// Extract peak phases from a batch result (skips failed entries),
/// sorted by peak phase ascending.
std::vector<Peak_summary> peak_ordering(const std::vector<Batch_entry>& batch,
                                        std::size_t grid_points = 201);

}  // namespace cellsync

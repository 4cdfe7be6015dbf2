// High-level convenience pipeline: kernel construction + lambda selection
// + constrained deconvolution in one call.
//
// Examples and benches use this entry point; power users compose the
// pieces (build_kernel / Deconvolver / select_lambda_*) directly.
#pragma once

#include <memory>
#include <optional>

#include "core/cross_validation.h"
#include "core/deconvolver.h"
#include "spline/spline_basis.h"

namespace cellsync {

/// End-to-end pipeline configuration.
struct Pipeline_config {
    Cell_cycle_config cell_cycle;          ///< organism model (defaults: Caulobacter)
    Kernel_build_options kernel;           ///< Monte-Carlo kernel controls
    std::size_t basis_size = 18;           ///< Nc natural-spline knots
    Deconvolution_options deconvolution;   ///< constraints, fallback lambda
    bool select_lambda = true;             ///< run k-fold CV over lambda_grid
    std::size_t cv_folds = 5;
    Vector lambda_grid;                    ///< empty -> default_lambda_grid()
};

/// Everything the pipeline produced.
struct Pipeline_result {
    std::shared_ptr<Natural_spline_basis> basis;
    std::unique_ptr<Deconvolver> deconvolver;
    Single_cell_estimate estimate;
    std::optional<Lambda_selection> lambda_selection;
};

/// Deconvolve a measurement series sampled at `series.times`. The kernel
/// is simulated at exactly those times with the given volume model.
/// Throws std::invalid_argument for invalid config or series.
Pipeline_result deconvolve_series(const Measurement_series& series,
                                  const Pipeline_config& config,
                                  const Volume_model& volume_model);

}  // namespace cellsync

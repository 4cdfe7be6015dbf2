#include "core/batch.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <typeinfo>

#if defined(__GNUG__)
#include <cxxabi.h>
#endif

namespace cellsync {

std::string exception_type_name(const std::exception& e) {
    const char* raw = typeid(e).name();
#if defined(__GNUG__)
    int status = 0;
    char* demangled = abi::__cxa_demangle(raw, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
        std::string out(demangled);
        std::free(demangled);
        return out;
    }
#endif
    return raw;
}

std::string labeled_task_error(const std::string& label, const std::exception& e) {
    const std::string shown = label.empty() ? "<unlabeled>" : label;
    return "gene '" + shown + "' [" + exception_type_name(e) + "]: " + e.what();
}

Batch_options resolve_batch_options(const Design_artifacts& /*artifacts*/,
                                    const Batch_options& options) {
    Batch_options resolved = options;
    if (resolved.lambda_grid.empty()) resolved.lambda_grid = default_lambda_grid();
    return resolved;
}

Batch_entry deconvolve_one(const Deconvolver& deconvolver, const Measurement_series& series,
                           const Vector& lambda_grid, const Batch_options& options) {
    Batch_entry entry;
    entry.label = series.label;
    try {
        Deconvolution_options deconv = options.deconvolution;
        if (options.select_lambda) {
            deconv.lambda = best_lambda_kfold(deconvolver, series, deconv, lambda_grid,
                                              options.cv_folds, options.cv_seed);
        }
        entry.estimate = deconvolver.estimate(series, deconv);
        entry.lambda = deconv.lambda;
    } catch (const std::exception& e) {
        entry.error = labeled_task_error(entry.label, e);
    }
    return entry;
}

std::vector<Peak_summary> peak_ordering(const std::vector<Batch_entry>& batch,
                                        std::size_t grid_points) {
    if (grid_points < 3) throw std::invalid_argument("peak_ordering: grid too small");
    std::vector<Peak_summary> peaks;
    for (const Batch_entry& entry : batch) {
        if (!entry.estimate.has_value()) continue;
        Peak_summary summary;
        summary.label = entry.label;
        for (std::size_t i = 0; i < grid_points; ++i) {
            const double phi =
                static_cast<double>(i) / static_cast<double>(grid_points - 1);
            const double v = (*entry.estimate)(phi);
            if (v > summary.peak_value) {
                summary.peak_value = v;
                summary.peak_phi = phi;
            }
        }
        peaks.push_back(std::move(summary));
    }
    std::sort(peaks.begin(), peaks.end(),
              [](const Peak_summary& a, const Peak_summary& b) {
                  return a.peak_phi < b.peak_phi;
              });
    return peaks;
}

}  // namespace cellsync

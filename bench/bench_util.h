// Shared helpers for the figure-reproduction and ablation benches.
//
// Every bench binary regenerates one of the paper's evaluation artifacts.
// They share the experiment defaults (sampling times, kernel size, basis)
// so ablations differ from the figure baselines in exactly one knob.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cross_validation.h"
#include "core/forward_model.h"
#include "core/telemetry.h"
#include "numerics/statistics.h"
#include "spline/spline_basis.h"

namespace cellsync::bench {

/// The bench harnesses time through the runtime's one clock seam
/// (telemetry::Clock) rather than hand-rolled std::chrono readers, so
/// the repo lint can ban raw clock access everywhere else.
using Stopwatch = telemetry::Stopwatch;

/// Machine-readable bench output: each harness collects named metrics and
/// writes one BENCH_<name>.json per run, so the performance trajectory can
/// be tracked across PRs (the human-readable stdout report is unchanged).
class Bench_json {
  public:
    explicit Bench_json(std::string name) : name_(std::move(name)) {}

    const std::string& name() const { return name_; }

    void add(const std::string& key, double value) {
        char buffer[64];
        std::snprintf(buffer, sizeof(buffer), "%.12g", value);
        fields_.emplace_back(key, buffer);
    }

    void add_string(const std::string& key, const std::string& value) {
        fields_.emplace_back(key, "\"" + escape(value) + "\"");
    }

    /// Write BENCH_<name>.json into `directory`; returns false (and keeps
    /// going) on I/O failure so a read-only CWD never sinks a bench run.
    bool write(const std::string& directory = ".") const {
        const std::string path = directory + "/BENCH_" + name_ + ".json";
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "bench: could not write %s\n", path.c_str());
            return false;
        }
        out << "{\n  \"bench\": \"" << escape(name_) << "\"";
        for (const auto& [key, value] : fields_) {
            out << ",\n  \"" << escape(key) << "\": " << value;
        }
        out << "\n}\n";
        return static_cast<bool>(out);
    }

  private:
    static std::string escape(const std::string& s) {
        std::string out;
        out.reserve(s.size());
        for (char c : s) {
            if (c == '"' || c == '\\') out.push_back('\\');
            if (static_cast<unsigned char>(c) < 0x20) {
                out += ' ';
                continue;
            }
            out.push_back(c);
        }
        return out;
    }

    std::string name_;
    std::vector<std::pair<std::string, std::string>> fields_;
};

/// Experiment defaults shared by the figure benches.
struct Experiment_defaults {
    Cell_cycle_config cell_cycle;                  ///< Caulobacter paper model
    Vector times = linspace(0.0, 180.0, 13);       ///< 15-min microarray-style sampling
    std::size_t kernel_bins = 200;
    std::size_t basis_size = 18;
    Vector lambda_grid = default_lambda_grid(13, 1e-7, 1e0);
    std::size_t cv_folds = 5;
};

/// Build the default kernel for the experiment.
inline Kernel_grid default_kernel(const Experiment_defaults& defaults,
                                  const Volume_model& volume) {
    Kernel_build_options options;
    options.n_bins = defaults.kernel_bins;
    return build_kernel(defaults.cell_cycle, volume, defaults.times, options);
}

/// A Monte-Carlo kernel for the experiment from `cells` cells and `seed`:
/// data generated through it and deconvolved with default_kernel meet
/// a kernel other than the one that made them.
inline Kernel_grid simulated_kernel(const Experiment_defaults& defaults,
                                    const Cell_cycle_config& config,
                                    const Volume_model& volume, std::size_t cells,
                                    std::uint64_t seed) {
    Kernel_build_options options;
    options.n_cells = cells;
    options.n_bins = defaults.kernel_bins;
    options.seed = seed;
    return simulate_kernel(config, volume, defaults.times, options);
}

/// Deconvolve with CV-selected lambda; returns the estimate.
inline Single_cell_estimate deconvolve_cv(const Deconvolver& deconvolver,
                                          const Measurement_series& data,
                                          const Experiment_defaults& defaults,
                                          Deconvolution_options options = {}) {
    const Lambda_selection sel = select_lambda_kfold(deconvolver, data, options,
                                                     defaults.lambda_grid, defaults.cv_folds);
    options.lambda = sel.best_lambda;
    return deconvolver.estimate(data, options);
}

/// Recovery score of an estimate against the known truth on an interior
/// phase grid (the endpoints are fundamentally under-determined).
struct Recovery_score {
    double correlation = 0.0;
    double nrmse = 0.0;
    double rmse = 0.0;
};

inline Recovery_score score_recovery(const Single_cell_estimate& estimate,
                                     const std::function<double(double)>& truth,
                                     std::size_t points = 47) {
    const Vector grid = linspace(0.04, 0.96, points);
    Vector recovered(grid.size()), expected(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        recovered[i] = estimate(grid[i]);
        expected[i] = truth(grid[i]);
    }
    Recovery_score score;
    score.correlation = pearson_correlation(recovered, expected);
    score.nrmse = nrmse(recovered, expected);
    score.rmse = rmse(recovered, expected);
    return score;
}

/// Print a standard bench header.
inline void print_header(const std::string& id, const std::string& description) {
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", id.c_str(), description.c_str());
    std::printf("==============================================================\n");
}

}  // namespace cellsync::bench

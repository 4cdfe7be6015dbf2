#include "core/cross_validation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/telemetry.h"
#include "numerics/kkt_factorization.h"

namespace cellsync {

Vector default_lambda_grid(std::size_t count, double lo, double hi) {
    if (count < 2) throw std::invalid_argument("default_lambda_grid: need at least 2 points");
    if (!(lo > 0.0 && hi > lo)) {
        throw std::invalid_argument("default_lambda_grid: need 0 < lo < hi");
    }
    Vector grid(count);
    const double step = (std::log10(hi) - std::log10(lo)) / static_cast<double>(count - 1);
    for (std::size_t i = 0; i < count; ++i) {
        grid[i] = std::pow(10.0, std::log10(lo) + step * static_cast<double>(i));
    }
    return grid;
}

std::vector<std::size_t> kfold_permutation(std::size_t count, std::uint64_t seed) {
    std::vector<std::size_t> perm(count);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    Rng rng(seed);
    std::shuffle(perm.begin(), perm.end(), rng.engine());
    return perm;
}

namespace {

/// What both k-fold searches share: the fold assignment, fixed across the
/// lambda grid for a fair sweep, and each fold's normal-equation blocks.
/// Those do not depend on lambda, so they are built and reduced once per
/// gene; each grid point then only adds lambda times the design's reduced
/// penalty.
struct Kfold_setup {
    struct Fold {
        std::vector<std::size_t> test;
        Reduced_objective blocks;  ///< lambda-free half of the reduced objective
    };
    Vector weights;
    std::vector<Fold> folds;
};

Kfold_setup kfold_setup(const Deconvolver& deconvolver, const Measurement_series& series,
                        const Deconvolution_options& base_options, const Vector& lambda_grid,
                        std::size_t folds, std::uint64_t seed) {
    series.validate();
    if (lambda_grid.empty()) throw std::invalid_argument("select_lambda_kfold: empty grid");
    if (folds < 2) throw std::invalid_argument("select_lambda_kfold: need at least 2 folds");
    const std::size_t m = series.size();
    // With m >= 3 some fold keeps >= 2 training rows; below that no fit
    // runs and every score would be a meaningless 0.
    if (m < 3) {
        throw std::invalid_argument(
            "select_lambda_kfold: need at least 3 measurements for k-fold CV, got " +
            std::to_string(m));
    }
    if (m != deconvolver.times().size()) {
        throw std::invalid_argument("Deconvolver: series length differs from kernel time grid");
    }
    for (const double lambda : lambda_grid) {
        if (lambda < 0.0) throw std::invalid_argument("Deconvolver: lambda must be >= 0");
    }
    check_constraint_geometry(*deconvolver.artifacts(), base_options.constraints);
    folds = std::min(folds, m);

    const std::vector<std::size_t> perm = kfold_permutation(m, seed);
    Kfold_setup setup;
    setup.weights = series.weights();
    const Matrix& kernel = deconvolver.kernel_matrix();
    for (std::size_t fold = 0; fold < folds; ++fold) {
        std::vector<std::size_t> train, test;
        for (std::size_t p = 0; p < m; ++p) {
            (p % folds == fold ? test : train).push_back(perm[p]);
        }
        if (train.size() < 2) continue;
        Vector g_train(train.size());
        Vector w_train(train.size());
        for (std::size_t r = 0; r < train.size(); ++r) {
            g_train[r] = series.values[train[r]];
            w_train[r] = setup.weights[train[r]];
        }
        setup.folds.push_back(
            {std::move(test),
             deconvolver.reduce_blocks(
                 weighted_gram_rows(kernel, train, w_train),
                 weighted_transposed_times_rows(kernel, train, w_train, g_train))});
    }
    return setup;
}

/// `running` plus the weighted held-out squared error of fold `fold` under
/// the fit at `options.lambda`, added row by row. Throws
/// std::runtime_error when the fit fails.
double add_fold_error(double running, const Deconvolver& deconvolver,
                      const Measurement_series& series, const Kfold_setup& setup,
                      std::size_t fold, const Deconvolution_options& options) {
    const Kfold_setup::Fold& held_out = setup.folds[fold];
    const Qp_result fit = deconvolver.solve_reduced(held_out.blocks, options);
    for (const std::size_t idx : held_out.test) {
        const double r = series.values[idx] - row_dot(deconvolver.kernel_matrix(), idx, fit.x);
        running += setup.weights[idx] * r * r;
    }
    return running;
}

/// Once per gene: the fits a search solved and the ones it did not need
/// (ruled out by the bound, or left after a lambda's fit failed).
void record_fits(std::size_t fits, std::size_t grid_fits) {
    static telemetry::Counter& solved = telemetry::counter("cv.fits");
    static telemetry::Counter& skipped = telemetry::counter("cv.fits_skipped");
    solved.add(fits);
    skipped.add(grid_fits - fits);
}

}  // namespace

Lambda_selection select_lambda_kfold(const Deconvolver& deconvolver,
                                     const Measurement_series& series,
                                     const Deconvolution_options& base_options,
                                     const Vector& lambda_grid, std::size_t folds,
                                     std::uint64_t seed) {
    const Kfold_setup setup =
        kfold_setup(deconvolver, series, base_options, lambda_grid, folds, seed);

    Lambda_selection sel;
    sel.method = "kfold";
    sel.lambdas = lambda_grid;
    sel.scores.assign(lambda_grid.size(), 0.0);
    Deconvolution_options options = base_options;
    std::size_t fits = 0;
    for (std::size_t li = 0; li < lambda_grid.size(); ++li) {
        options.lambda = lambda_grid[li];
        double score = 0.0;
        try {
            for (std::size_t fold = 0; fold < setup.folds.size(); ++fold) {
                ++fits;
                score = add_fold_error(score, deconvolver, series, setup, fold, options);
            }
            sel.scores[li] = score / static_cast<double>(series.size());
        } catch (const std::runtime_error&) {
            // A lambda that breaks the QP is disqualified.
            sel.scores[li] = std::numeric_limits<double>::infinity();
        }
    }
    record_fits(fits, lambda_grid.size() * setup.folds.size());

    const auto best = std::min_element(sel.scores.begin(), sel.scores.end());
    sel.best_lambda = sel.lambdas[static_cast<std::size_t>(best - sel.scores.begin())];
    return sel;
}

double best_lambda_kfold(const Deconvolver& deconvolver, const Measurement_series& series,
                         const Deconvolution_options& base_options, const Vector& lambda_grid,
                         std::size_t folds, std::uint64_t seed) {
    const Kfold_setup setup =
        kfold_setup(deconvolver, series, base_options, lambda_grid, folds, seed);
    Deconvolution_options options = base_options;
    std::size_t fits = 0;
    const std::size_t best = best_kfold_index(
        lambda_grid.size(), setup.folds.size(), series.size(),
        [&](std::size_t point, std::size_t fold, double running) {
            ++fits;
            options.lambda = lambda_grid[point];
            return add_fold_error(running, deconvolver, series, setup, fold, options);
        });
    record_fits(fits, lambda_grid.size() * setup.folds.size());
    return lambda_grid[best];
}

std::size_t best_kfold_index(std::size_t points, std::size_t folds, std::size_t measurements,
                             const Kfold_fold_scorer& add_fold) {
    if (points == 0) throw std::invalid_argument("best_kfold_index: empty grid");
    const double m = static_cast<double>(measurements);

    // Point 0, then centre, centre - 1, centre + 1, centre - 2, ...
    const std::size_t centre = points / 2;
    std::vector<std::size_t> order{0};
    for (std::size_t d = 0; d < points; ++d) {
        if (d < centre) order.push_back(centre - d);
        if (d > 0 && centre + d < points) order.push_back(centre + d);
    }

    // A fold adds a non-negative error, which never lowers a
    // round-to-nearest sum, and dividing by m is monotone. So a point whose
    // running / m already exceeds a full score would end strictly above
    // it and cannot be the first minimum. The divided values are compared,
    // not the sums: a larger sum can still divide to the best score and
    // then win on the lower index. Point 0 runs in full, as best_score is
    // +inf until it is scored.
    std::size_t best = 0;
    double best_score = std::numeric_limits<double>::infinity();
    for (const std::size_t point : order) {
        double score = 0.0;
        bool dropped = false;
        try {
            double running = 0.0;
            for (std::size_t fold = 0; fold < folds && !dropped; ++fold) {
                running = add_fold(point, fold, running);
                dropped = running / m > best_score;
            }
            score = running / m;
        } catch (const std::runtime_error&) {
            score = std::numeric_limits<double>::infinity();  // a failed fit disqualifies
        }
        if (dropped) continue;
        // std::min_element keeps a NaN first element: nothing compares less.
        if (point == 0 && std::isnan(score)) return 0;
        if (score < best_score || (score == best_score && point < best)) {
            best = point;
            best_score = score;
        }
    }
    return best;
}

Lambda_selection select_lambda_gcv(const Deconvolver& deconvolver,
                                   const Measurement_series& series,
                                   const Vector& lambda_grid) {
    series.validate();
    if (lambda_grid.empty()) throw std::invalid_argument("select_lambda_gcv: empty grid");
    const std::size_t m = series.size();
    const std::size_t n = deconvolver.basis().size();
    const Vector w = series.weights();

    // Whitened design Kw = W^{1/2} K and data z = W^{1/2} G.
    Matrix kw(m, n);
    Vector z(m);
    for (std::size_t i = 0; i < m; ++i) {
        const double sw = std::sqrt(w[i]);
        for (std::size_t j = 0; j < n; ++j) kw(i, j) = sw * deconvolver.kernel_matrix()(i, j);
        z[i] = sw * series.values[i];
    }

    // One cached KKT object sweeps the grid: the Gram and penalty blocks
    // are assembled once, each lambda refactors in place.
    Kkt_factorization kkt(gram(kw), deconvolver.penalty());

    Lambda_selection sel;
    sel.method = "gcv";
    sel.lambdas = lambda_grid;
    sel.scores.assign(lambda_grid.size(), 0.0);

    for (std::size_t li = 0; li < lambda_grid.size(); ++li) {
        kkt.factorize(lambda_grid[li], estimator_ridge);
        // tr(A) = sum_i kw_i' (Kw'Kw + lambda Omega)^-1 kw_i and
        // fitted = Kw (normal)^-1 Kw' z without forming the hat matrix.
        double trace = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
            const Vector row = kw.row(i);
            trace += dot(row, kkt.solve(scaled(row, -1.0)));
        }
        const Vector fitted = kw * kkt.solve(scaled(transposed_times(kw, z), -1.0));
        double rss = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
            const double r = z[i] - fitted[i];
            rss += r * r;
        }
        const double denom = static_cast<double>(m) - trace;
        sel.scores[li] = denom > 1e-9
                             ? static_cast<double>(m) * rss / (denom * denom)
                             : std::numeric_limits<double>::infinity();
    }

    const auto best = std::min_element(sel.scores.begin(), sel.scores.end());
    sel.best_lambda = sel.lambdas[static_cast<std::size_t>(best - sel.scores.begin())];
    return sel;
}

}  // namespace cellsync

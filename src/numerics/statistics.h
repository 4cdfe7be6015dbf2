// Descriptive statistics and error metrics for validating simulations and
// scoring deconvolution accuracy (RMSE / correlation between the recovered
// f(phi) and the known single-cell truth in Figures 2-3).
#pragma once

#include "numerics/vector_ops.h"

namespace cellsync {

/// Arithmetic mean; throws std::invalid_argument on empty input.
double mean(const Vector& v);

/// Unbiased sample variance (n-1 denominator); needs >= 2 samples.
double variance(const Vector& v);

/// Sample standard deviation.
double stddev(const Vector& v);

/// Coefficient of variation stddev/mean; throws if mean == 0.
double coefficient_of_variation(const Vector& v);

/// Linearly interpolated quantile, q in [0,1]; throws on empty input or
/// q outside [0,1].
double quantile(Vector v, double q);

/// quantile() of input already sorted ascending: reading several
/// quantiles of one sample sorts it once.
double quantile_sorted(const Vector& sorted, double q);

/// Median (q = 0.5 quantile).
double median(Vector v);

/// Pearson correlation; throws if either side has zero variance.
double pearson_correlation(const Vector& a, const Vector& b);

/// Root-mean-square error between two equal-length series.
double rmse(const Vector& a, const Vector& b);

/// RMSE normalized by the range (max-min) of the reference series `ref`;
/// throws if the reference is constant.
double nrmse(const Vector& estimate, const Vector& ref);

/// Mean absolute error.
double mae(const Vector& a, const Vector& b);

/// Maximum absolute deviation.
double max_abs_error(const Vector& a, const Vector& b);

/// Simple histogram of values into `bins` equal-width bins over [lo, hi).
/// Out-of-range values are dropped. Returns counts per bin.
std::vector<std::size_t> histogram(const Vector& v, double lo, double hi, std::size_t bins);

}  // namespace cellsync

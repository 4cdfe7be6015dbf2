#include "numerics/statistics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cellsync {

double mean(const Vector& v) {
    if (v.empty()) throw std::invalid_argument("mean: empty input");
    return sum(v) / static_cast<double>(v.size());
}

double variance(const Vector& v) {
    if (v.size() < 2) throw std::invalid_argument("variance: need at least 2 samples");
    const double m = mean(v);
    double s = 0.0;
    for (double x : v) s += (x - m) * (x - m);
    return s / static_cast<double>(v.size() - 1);
}

double stddev(const Vector& v) { return std::sqrt(variance(v)); }

double coefficient_of_variation(const Vector& v) {
    const double m = mean(v);
    if (m == 0.0) throw std::invalid_argument("coefficient_of_variation: zero mean");
    return stddev(v) / std::abs(m);
}

double quantile(Vector v, double q) {
    std::sort(v.begin(), v.end());
    return quantile_sorted(v, q);
}

double quantile_sorted(const Vector& sorted, double q) {
    if (sorted.empty()) throw std::invalid_argument("quantile: empty input");
    if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("quantile: q outside [0,1]");
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(Vector v) { return quantile(std::move(v), 0.5); }

double pearson_correlation(const Vector& a, const Vector& b) {
    if (a.size() != b.size()) throw std::invalid_argument("pearson_correlation: size mismatch");
    if (a.size() < 2) throw std::invalid_argument("pearson_correlation: need at least 2 samples");
    const double ma = mean(a);
    const double mb = mean(b);
    double sab = 0.0, saa = 0.0, sbb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double da = a[i] - ma;
        const double db = b[i] - mb;
        sab += da * db;
        saa += da * da;
        sbb += db * db;
    }
    if (saa == 0.0 || sbb == 0.0) {
        throw std::invalid_argument("pearson_correlation: zero-variance input");
    }
    return sab / std::sqrt(saa * sbb);
}

double rmse(const Vector& a, const Vector& b) {
    if (a.size() != b.size()) throw std::invalid_argument("rmse: size mismatch");
    if (a.empty()) throw std::invalid_argument("rmse: empty input");
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
    return std::sqrt(s / static_cast<double>(a.size()));
}

double nrmse(const Vector& estimate, const Vector& ref) {
    const auto [mn, mx] = std::minmax_element(ref.begin(), ref.end());
    if (ref.empty() || *mx == *mn) throw std::invalid_argument("nrmse: constant reference");
    return rmse(estimate, ref) / (*mx - *mn);
}

double mae(const Vector& a, const Vector& b) {
    if (a.size() != b.size()) throw std::invalid_argument("mae: size mismatch");
    if (a.empty()) throw std::invalid_argument("mae: empty input");
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += std::abs(a[i] - b[i]);
    return s / static_cast<double>(a.size());
}

double max_abs_error(const Vector& a, const Vector& b) {
    if (a.size() != b.size()) throw std::invalid_argument("max_abs_error: size mismatch");
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

std::vector<std::size_t> histogram(const Vector& v, double lo, double hi, std::size_t bins) {
    if (bins == 0) throw std::invalid_argument("histogram: bins must be positive");
    if (!(lo < hi)) throw std::invalid_argument("histogram: need lo < hi");
    std::vector<std::size_t> counts(bins, 0);
    const double w = (hi - lo) / static_cast<double>(bins);
    for (double x : v) {
        if (x < lo || x >= hi) continue;
        auto b = static_cast<std::size_t>((x - lo) / w);
        if (b >= bins) b = bins - 1;  // guard right-edge rounding
        ++counts[b];
    }
    return counts;
}

}  // namespace cellsync

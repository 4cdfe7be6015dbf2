#include "numerics/statistics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace cellsync {
namespace {

TEST(Statistics, MeanAndVariance) {
    const Vector v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_DOUBLE_EQ(mean(v), 5.0);
    EXPECT_NEAR(variance(v), 32.0 / 7.0, 1e-12);
}

TEST(Statistics, EmptyAndShortInputsThrow) {
    EXPECT_THROW(mean({}), std::invalid_argument);
    EXPECT_THROW(variance({1.0}), std::invalid_argument);
    EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
}

TEST(Statistics, CoefficientOfVariation) {
    const Vector v{9.0, 10.0, 11.0};
    EXPECT_NEAR(coefficient_of_variation(v), 1.0 / 10.0, 1e-12);
    EXPECT_THROW(coefficient_of_variation({-1.0, 1.0}), std::invalid_argument);
}

TEST(Statistics, QuantileInterpolates) {
    const Vector v{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
    EXPECT_THROW(quantile(v, 1.5), std::invalid_argument);
}

TEST(Statistics, SortedQuantileMatchesQuantileBitForBit) {
    // Duplicates and both zeros: the sorted form must read the same
    // interpolation quantile() computes after its own sort.
    const Vector v{0.7, -0.0, 3.25, 0.0, -1.5, 0.7, 1e-300, -0.0, 2.0, 0.7, -1.5};
    Vector sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.0, 0.05, 0.5, 0.95, 1.0}) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(quantile_sorted(sorted, q)),
                  std::bit_cast<std::uint64_t>(quantile(v, q)))
            << "q = " << q;
    }
    EXPECT_THROW(quantile_sorted({}, 0.5), std::invalid_argument);
    EXPECT_THROW(quantile_sorted(sorted, -0.1), std::invalid_argument);
}

TEST(Statistics, MedianUnsortedInput) {
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Statistics, PearsonPerfectCorrelation) {
    const Vector a{1.0, 2.0, 3.0};
    EXPECT_NEAR(pearson_correlation(a, {2.0, 4.0, 6.0}), 1.0, 1e-12);
    EXPECT_NEAR(pearson_correlation(a, {6.0, 4.0, 2.0}), -1.0, 1e-12);
}

TEST(Statistics, PearsonRejectsDegenerateInput) {
    EXPECT_THROW(pearson_correlation({1.0, 1.0}, {1.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(pearson_correlation({1.0}, {1.0}), std::invalid_argument);
    EXPECT_THROW(pearson_correlation({1.0, 2.0}, {1.0}), std::invalid_argument);
}

TEST(Statistics, ErrorMetrics) {
    const Vector a{1.0, 2.0, 3.0};
    const Vector b{1.0, 2.0, 7.0};
    EXPECT_NEAR(rmse(a, b), 4.0 / std::sqrt(3.0), 1e-12);
    EXPECT_NEAR(mae(a, b), 4.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(max_abs_error(a, b), 4.0);
}

TEST(Statistics, NrmseNormalizesByReferenceRange) {
    const Vector ref{0.0, 10.0};
    const Vector est{1.0, 10.0};
    EXPECT_NEAR(nrmse(est, ref), (1.0 / std::sqrt(2.0)) / 10.0, 1e-12);
    EXPECT_THROW(nrmse(est, {5.0, 5.0}), std::invalid_argument);
}

TEST(Statistics, IdenticalSeriesHaveZeroError) {
    const Vector a{1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(rmse(a, a), 0.0);
    EXPECT_DOUBLE_EQ(mae(a, a), 0.0);
    EXPECT_DOUBLE_EQ(max_abs_error(a, a), 0.0);
}

TEST(Statistics, HistogramCountsAndDropsOutOfRange) {
    const Vector v{0.05, 0.15, 0.15, 0.95, -1.0, 2.0};
    const auto counts = histogram(v, 0.0, 1.0, 10);
    ASSERT_EQ(counts.size(), 10u);
    EXPECT_EQ(counts[0], 1u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(counts[9], 1u);
    std::size_t total = 0;
    for (auto c : counts) total += c;
    EXPECT_EQ(total, 4u);  // two values out of range
}

TEST(Statistics, HistogramRejectsBadArguments) {
    EXPECT_THROW(histogram({1.0}, 0.0, 1.0, 0), std::invalid_argument);
    EXPECT_THROW(histogram({1.0}, 1.0, 0.0, 4), std::invalid_argument);
}

}  // namespace
}  // namespace cellsync

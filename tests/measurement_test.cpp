#include "io/measurement.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace cellsync {
namespace {

Measurement_series good_series() {
    Measurement_series s;
    s.label = "test";
    s.times = {0.0, 15.0, 30.0};
    s.values = {1.0, 2.0, 3.0};
    s.sigmas = {0.1, 0.2, 0.4};
    return s;
}

TEST(MeasurementSeries, ValidSeriesPasses) {
    EXPECT_NO_THROW(good_series().validate());
    EXPECT_EQ(good_series().size(), 3u);
}

TEST(MeasurementSeries, LengthMismatchThrows) {
    Measurement_series s = good_series();
    s.values.pop_back();
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s = good_series();
    s.sigmas.push_back(1.0);
    EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(MeasurementSeries, NeedsAtLeastTwoPoints) {
    Measurement_series s;
    s.times = {0.0};
    s.values = {1.0};
    s.sigmas = {1.0};
    EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(MeasurementSeries, TimesMustAscend) {
    Measurement_series s = good_series();
    s.times = {0.0, 30.0, 15.0};
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s.times = {0.0, 15.0, 15.0};
    EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(MeasurementSeries, SigmasMustBePositive) {
    Measurement_series s = good_series();
    s.sigmas[1] = 0.0;
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s.sigmas[1] = -0.5;
    EXPECT_THROW(s.validate(), std::invalid_argument);
    // +inf has weight 0; 1e-170 is finite and positive, but its weight
    // 1/sigma^2 overflows to inf. The error names the row and time.
    s.sigmas[1] = std::numeric_limits<double>::infinity();
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s.sigmas[1] = 1e-170;
    try {
        s.validate();
        FAIL() << "expected a sigma error";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("row 1"), std::string::npos) << what;
        EXPECT_NE(what.find("t=15"), std::string::npos) << what;
    }
}

TEST(MeasurementSeries, ValidSigmaPredicate) {
    EXPECT_TRUE(valid_sigma(1.0));
    EXPECT_TRUE(valid_sigma(1e-150));
    EXPECT_TRUE(valid_sigma(1e150));
    EXPECT_FALSE(valid_sigma(0.0));
    EXPECT_FALSE(valid_sigma(-1.0));
    EXPECT_FALSE(valid_sigma(1e-170));
    EXPECT_FALSE(valid_sigma(1e170));
    EXPECT_FALSE(valid_sigma(std::numeric_limits<double>::infinity()));
    EXPECT_FALSE(valid_sigma(std::nan("")));
}

TEST(MeasurementSeries, NonFiniteValuesRejected) {
    Measurement_series s = good_series();
    s.values[0] = std::nan("");
    EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(MeasurementSeries, WeightsAreInverseVariance) {
    const Vector w = good_series().weights();
    EXPECT_NEAR(w[0], 100.0, 1e-9);
    EXPECT_NEAR(w[1], 25.0, 1e-9);
    EXPECT_NEAR(w[2], 6.25, 1e-9);
}

TEST(MeasurementSeries, WithUnitSigmaFactory) {
    const Measurement_series s =
        Measurement_series::with_unit_sigma("g", {0.0, 10.0}, {5.0, 6.0});
    EXPECT_EQ(s.label, "g");
    EXPECT_DOUBLE_EQ(s.sigmas[0], 1.0);
    EXPECT_DOUBLE_EQ(s.sigmas[1], 1.0);
    EXPECT_THROW(Measurement_series::with_unit_sigma("g", {10.0, 0.0}, {5.0, 6.0}),
                 std::invalid_argument);
}

}  // namespace
}  // namespace cellsync

// Regression tests for the repo-wide strict number-parsing policy
// (io/csv.h parse_strict_double / parse_strict_uint64) — the from_chars
// rules every number entering the system goes through: CSV fields,
// record logs, and (since the policy was extended to the CLI) every
// numeric cellsync_deconvolve flag.
// std::stod's silent prefix parse ("1.5junk" -> 1.5) and inf/nan
// acceptance are exactly the locale-/garbage-tolerant bug class PR 5
// removed from kernel_io; these tests pin the strict behavior at the
// library level, and tools/CMakeLists.txt pins the CLI's use of it
// end-to-end (cli_rejects_* ctest entries).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "io/csv.h"

namespace cellsync {
namespace {

TEST(StrictParseDouble, ParsesPlainAndSignedValues) {
    EXPECT_EQ(parse_strict_double("1.5"), 1.5);
    EXPECT_EQ(parse_strict_double("-2.25e3"), -2250.0);
    EXPECT_EQ(parse_strict_double("+0.5"), 0.5);  // leading '+' allowed, as in CSV
    EXPECT_EQ(parse_strict_double("0"), 0.0);
}

TEST(StrictParseDouble, RejectsTrailingGarbage) {
    // The exact bug class: std::stod("1.5junk") returns 1.5 and a CLI
    // built on it silently runs with a truncated flag value.
    EXPECT_THROW(parse_strict_double("1.5junk"), std::runtime_error);
    EXPECT_THROW(parse_strict_double("1.5 "), std::runtime_error);
    EXPECT_THROW(parse_strict_double(" 1.5"), std::runtime_error);
    EXPECT_THROW(parse_strict_double("1,5"), std::runtime_error);
    EXPECT_THROW(parse_strict_double(""), std::runtime_error);
    EXPECT_THROW(parse_strict_double("+"), std::runtime_error);
    EXPECT_THROW(parse_strict_double("+-1"), std::runtime_error);
}

TEST(StrictParseDouble, RejectsNonFinite) {
    for (const char* text : {"inf", "Inf", "INF", "-inf", "+inf", "nan", "NaN", "-nan"}) {
        EXPECT_THROW(parse_strict_double(text), std::runtime_error) << text;
    }
}

TEST(StrictParseDouble, RejectsOutOfRange) {
    EXPECT_THROW(parse_strict_double("1e999"), std::runtime_error);
    EXPECT_THROW(parse_strict_double("-1e999"), std::runtime_error);
}

TEST(StrictParseDouble, ErrorMessageNamesTheOffendingText) {
    try {
        parse_strict_double("1.5junk");
        FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("1.5junk"), std::string::npos) << e.what();
    }
}

TEST(StrictParseUint64, ParsesDecimalDigits) {
    EXPECT_EQ(parse_strict_uint64("0"), 0u);
    EXPECT_EQ(parse_strict_uint64("42"), 42u);
    EXPECT_EQ(parse_strict_uint64("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(StrictParseUint64, RejectsSignsGarbageAndOverflow) {
    // std::stoull("-1") wraps to 2^64-1 — a negative --threads or a
    // corrupted manifest byte count must fail loudly instead.
    EXPECT_THROW(parse_strict_uint64("-1"), std::runtime_error);
    EXPECT_THROW(parse_strict_uint64("+1"), std::runtime_error);
    EXPECT_THROW(parse_strict_uint64("12junk"), std::runtime_error);
    EXPECT_THROW(parse_strict_uint64("0x10"), std::runtime_error);
    EXPECT_THROW(parse_strict_uint64(" 1"), std::runtime_error);
    EXPECT_THROW(parse_strict_uint64(""), std::runtime_error);
    EXPECT_THROW(parse_strict_uint64("1.5"), std::runtime_error);
    EXPECT_THROW(parse_strict_uint64("18446744073709551616"), std::runtime_error);
}

TEST(StrictParseUint64, MatchesManifestFallbackExpectations) {
    // kernel_cache's manifest parser treats any throw as "malformed
    // manifest, rescan the directory": both failure kinds must throw
    // std::runtime_error (not some other type that would escape its
    // catch block).
    try {
        parse_strict_uint64("12\t34");
        FAIL() << "expected a throw";
    } catch (const std::runtime_error&) {
    }
}

}  // namespace
}  // namespace cellsync

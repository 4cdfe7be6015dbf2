#include "population/kernel_io.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace cellsync {
namespace {

Kernel_grid small_kernel() {
    Kernel_build_options options;
    options.n_bins = 50;
    return build_kernel(Cell_cycle_config{}, Smooth_volume_model{}, {0.0, 30.0, 60.0},
                        options);
}

TEST(KernelIo, RoundTripPreservesGrid) {
    const Kernel_grid original = small_kernel();
    std::ostringstream out;
    write_kernel(out, original);
    std::istringstream in(out.str());
    const Kernel_grid loaded = read_kernel(in);

    ASSERT_EQ(loaded.time_count(), original.time_count());
    ASSERT_EQ(loaded.bin_count(), original.bin_count());
    for (std::size_t m = 0; m < original.time_count(); ++m) {
        EXPECT_DOUBLE_EQ(loaded.times()[m], original.times()[m]);
        for (std::size_t b = 0; b < original.bin_count(); ++b) {
            EXPECT_DOUBLE_EQ(loaded.q()(m, b), original.q()(m, b));
        }
    }
}

TEST(KernelIo, RoundTrippedKernelProducesIdenticalTransforms) {
    const Kernel_grid original = small_kernel();
    std::ostringstream out;
    write_kernel(out, original);
    std::istringstream in(out.str());
    const Kernel_grid loaded = read_kernel(in);

    const auto profile = [](double phi) { return 1.0 + phi * (1.0 - phi); };
    const Vector g0 = original.apply(profile);
    const Vector g1 = loaded.apply(profile);
    for (std::size_t m = 0; m < g0.size(); ++m) EXPECT_DOUBLE_EQ(g0[m], g1[m]);
}

TEST(KernelIo, FileRoundTrip) {
    const Kernel_grid original = small_kernel();
    const std::string path = ::testing::TempDir() + "/cellsync_kernel_test.csv";
    write_kernel_file(path, original);
    const Kernel_grid loaded = read_kernel_file(path);
    EXPECT_EQ(loaded.bin_count(), original.bin_count());
    std::remove(path.c_str());
}

TEST(KernelIo, MissingPhiColumnRejected) {
    std::istringstream in("t0,t30\n1.0,1.0\n1.0,1.0\n");
    EXPECT_THROW(read_kernel(in), std::runtime_error);
}

TEST(KernelIo, BadTimeColumnNameRejected) {
    std::istringstream in("phi,zzz\n0.25,1.0\n0.75,1.0\n");
    EXPECT_THROW(read_kernel(in), std::runtime_error);
}

TEST(KernelIo, CorruptedDensityRejected) {
    // Row scaled by 2: no longer integrates to 1 -> Kernel_grid invariant.
    std::istringstream in("phi,t0\n0.25,2.0\n0.75,2.0\n");
    EXPECT_THROW(read_kernel(in), std::invalid_argument);
}

TEST(KernelIo, NoTimeColumnsRejected) {
    std::istringstream in("phi\n0.5\n");
    EXPECT_THROW(read_kernel(in), std::runtime_error);
}

TEST(KernelIo, MissingFileThrows) {
    EXPECT_THROW(read_kernel_file("/nonexistent/kernel.csv"), std::runtime_error);
}

// --- time column name parsing (regression: std::stod accepted trailing
// --- garbage and non-finite spellings) -------------------------------------

TEST(KernelIo, TimeColumnWithTrailingGarbageRejected) {
    // stod would parse 't1.5junk' as 1.5 and silently mislabel the slice.
    std::istringstream in("phi,t0,t1.5junk\n0.25,1.0,1.0\n0.75,1.0,1.0\n");
    EXPECT_THROW(read_kernel(in), std::runtime_error);
}

TEST(KernelIo, NonFiniteTimeColumnRejected) {
    std::istringstream inf_in("phi,tinf\n0.25,1.0\n0.75,1.0\n");
    EXPECT_THROW(read_kernel(inf_in), std::runtime_error);
    std::istringstream nan_in("phi,tnan\n0.25,1.0\n0.75,1.0\n");
    EXPECT_THROW(read_kernel(nan_in), std::runtime_error);
}

TEST(KernelIo, ScientificTimeColumnStillAccepted) {
    // Full-precision writes can emit exponent notation; it must keep
    // round-tripping under the stricter parser.
    std::istringstream in("phi,t1.5e2\n0.25,1.0\n0.75,1.0\n");
    const Kernel_grid kernel = read_kernel(in);
    EXPECT_DOUBLE_EQ(kernel.times()[0], 150.0);
}

// --- binary format ---------------------------------------------------------

TEST(KernelIo, BinaryRoundTripIsBitIdentical) {
    const Kernel_grid original = small_kernel();
    std::ostringstream out;
    write_kernel_binary(out, original);
    std::istringstream in(out.str());
    const Kernel_grid loaded = read_kernel_binary(in);

    ASSERT_EQ(loaded.time_count(), original.time_count());
    ASSERT_EQ(loaded.bin_count(), original.bin_count());
    for (std::size_t m = 0; m < original.time_count(); ++m) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.times()[m]),
                  std::bit_cast<std::uint64_t>(original.times()[m]));
        for (std::size_t b = 0; b < original.bin_count(); ++b) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.q()(m, b)),
                      std::bit_cast<std::uint64_t>(original.q()(m, b)));
        }
    }
    for (std::size_t b = 0; b < original.bin_count(); ++b) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.phi_centers()[b]),
                  std::bit_cast<std::uint64_t>(original.phi_centers()[b]));
    }
}

TEST(KernelIo, BinaryIsSmallerThanCsv) {
    const Kernel_grid original = small_kernel();
    std::ostringstream csv, binary;
    write_kernel(csv, original);
    write_kernel_binary(binary, original);
    EXPECT_LT(binary.str().size(), csv.str().size());
}

TEST(KernelIo, BinaryPreservesDenormalsAndNegativeZero) {
    // Two bins of width 0.5: row mass = 0.5 * (a + b), so values summing
    // to 2 hit unit mass exactly and bypass renormalization. A denormal
    // (or -0.0) plus 2.0 rounds to exactly 2.0, so these extreme bit
    // patterns survive Kernel_grid construction untouched — the round
    // trip must keep them, not collapse them to +0.0.
    const double denormal = std::numeric_limits<double>::denorm_min();
    Matrix q(2, 2);
    q(0, 0) = denormal;
    q(0, 1) = 2.0;
    q(1, 0) = -0.0;
    q(1, 1) = 2.0;
    const Kernel_grid original({0.0, 30.0}, {0.25, 0.75}, q);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(original.q()(0, 0)),
              std::bit_cast<std::uint64_t>(denormal));

    std::ostringstream out;
    write_kernel_binary(out, original);
    std::istringstream in(out.str());
    const Kernel_grid loaded = read_kernel_binary(in);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.q()(0, 0)),
              std::bit_cast<std::uint64_t>(denormal));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.q()(1, 0)),
              std::bit_cast<std::uint64_t>(-0.0));
    EXPECT_TRUE(std::signbit(loaded.q()(1, 0)));
}

TEST(KernelIo, BinaryRejectsBadMagic) {
    std::istringstream in("phi,t0\n0.25,2.0\n0.75,2.0\n");
    EXPECT_THROW(read_kernel_binary(in), std::runtime_error);
}

TEST(KernelIo, BinaryRejectsUnsupportedVersion) {
    const Kernel_grid original = small_kernel();
    std::ostringstream out;
    write_kernel_binary(out, original);
    std::string bytes = out.str();
    const auto v = bytes.find("-v1\n");
    ASSERT_NE(v, std::string::npos);
    bytes[v + 2] = '9';  // magic line of a future revision
    std::istringstream in(bytes);
    EXPECT_THROW(read_kernel_binary(in), std::runtime_error);
}

TEST(KernelIo, BinaryRejectsTruncation) {
    const Kernel_grid original = small_kernel();
    std::ostringstream out;
    write_kernel_binary(out, original);
    const std::string bytes = out.str();
    for (const std::size_t keep :
         {bytes.size() - 1, bytes.size() / 2, std::size_t{30}, std::size_t{8}}) {
        std::istringstream in(bytes.substr(0, keep));
        EXPECT_THROW(read_kernel_binary(in), std::runtime_error) << "kept " << keep;
    }
}

TEST(KernelIo, BinaryRejectsCorruptDimensionsBeforeAllocating) {
    const Kernel_grid original = small_kernel();
    std::ostringstream out;
    write_kernel_binary(out, original);
    const std::string bytes = out.str();
    const auto with_time_count = [&](std::uint32_t count) {
        std::string patched = bytes;
        for (int i = 0; i < 4; ++i) {  // u32 after the 23-byte magic + version
            patched[23 + 4 + i] = static_cast<char>((count >> (8 * i)) & 0xff);
        }
        return patched;
    };
    // Hugely implausible dims and dims merely too big for the file must
    // both be rejected up front — not by an OOM-scale allocation.
    for (const std::uint32_t count : {0xfffffffeu, 1000000u}) {
        std::istringstream in(with_time_count(count));
        EXPECT_THROW(read_kernel_binary(in), std::runtime_error) << count;
    }
}

TEST(KernelIo, BinaryRejectsChecksumMismatch) {
    const Kernel_grid original = small_kernel();
    std::ostringstream out;
    write_kernel_binary(out, original);
    std::string bytes = out.str();
    bytes[bytes.size() / 2] ^= 0x40;  // flip one payload bit
    std::istringstream in(bytes);
    EXPECT_THROW(read_kernel_binary(in), std::runtime_error);
}

TEST(KernelIo, FileRejectionsNameThePathAndKeepTheirType) {
    std::ostringstream out;
    write_kernel_binary(out, small_kernel());
    const std::string bytes = out.str();
    std::string corrupt = bytes;
    corrupt[corrupt.size() / 2] ^= 0x40;
    struct Case {
        std::string name;
        std::string content;
        bool invariant_violation;  ///< std::invalid_argument, else std::runtime_error
    };
    const Case cases[] = {
        {"truncated.bin", bytes.substr(0, bytes.size() / 2), false},
        {"corrupt.bin", corrupt, false},
        {"not_a_kernel.csv", "time,value\n0,1\n", false},
        {"unnormalized.csv", "phi,t0\n0.25,2.0\n0.75,2.0\n", true},
    };
    for (const Case& c : cases) {
        const std::string path = ::testing::TempDir() + "/cellsync_rejected_" + c.name;
        {
            std::ofstream file(path, std::ios::binary);
            file << c.content;
        }
        try {
            read_kernel_file(path);
            ADD_FAILURE() << c.name << " was accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_TRUE(c.invariant_violation) << c.name << ": " << e.what();
            EXPECT_NE(std::string(e.what()).find("'" + path + "'"), std::string::npos)
                << e.what();
        } catch (const std::runtime_error& e) {
            EXPECT_FALSE(c.invariant_violation) << c.name << ": " << e.what();
            EXPECT_NE(std::string(e.what()).find("'" + path + "'"), std::string::npos)
                << e.what();
        }
        std::remove(path.c_str());
    }
}

TEST(KernelIo, FileRoundTripAutoDetectsBothFormats) {
    const Kernel_grid original = small_kernel();
    const std::string csv_path = ::testing::TempDir() + "/cellsync_kernel_auto.csv";
    const std::string bin_path = ::testing::TempDir() + "/cellsync_kernel_auto.bin";
    write_kernel_file(csv_path, original, Kernel_format::csv);
    write_kernel_file(bin_path, original, Kernel_format::binary);

    Kernel_format detected = Kernel_format::binary;
    const Kernel_grid from_csv = read_kernel_file(csv_path, &detected);
    EXPECT_EQ(detected, Kernel_format::csv);
    const Kernel_grid from_bin = read_kernel_file(bin_path, &detected);
    EXPECT_EQ(detected, Kernel_format::binary);
    ASSERT_EQ(from_csv.bin_count(), original.bin_count());
    ASSERT_EQ(from_bin.bin_count(), original.bin_count());
    for (std::size_t m = 0; m < original.time_count(); ++m) {
        for (std::size_t b = 0; b < original.bin_count(); ++b) {
            EXPECT_EQ(from_bin.q()(m, b), original.q()(m, b));
            EXPECT_EQ(from_csv.q()(m, b), original.q()(m, b));
        }
    }
    std::remove(csv_path.c_str());
    std::remove(bin_path.c_str());
}

TEST(KernelIo, FormatNamesRoundTrip) {
    EXPECT_EQ(kernel_format_from_string("csv"), Kernel_format::csv);
    EXPECT_EQ(kernel_format_from_string("bin"), Kernel_format::binary);
    EXPECT_EQ(kernel_format_from_string("binary"), Kernel_format::binary);
    EXPECT_THROW(kernel_format_from_string("tsv"), std::invalid_argument);
    EXPECT_STREQ(to_string(Kernel_format::csv), "csv");
    EXPECT_STREQ(to_string(Kernel_format::binary), "binary");
}

// --- write durability (regression: a full disk produced a truncated file
// --- reported as success) --------------------------------------------------

TEST(KernelIo, WriteFailureIsReportedNotSwallowed) {
    if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
    const Kernel_grid original = small_kernel();
    // /dev/full opens fine but every flushed write fails with ENOSPC —
    // exactly the silent-truncation scenario.
    EXPECT_THROW(write_kernel_file("/dev/full", original, Kernel_format::csv),
                 std::runtime_error);
    EXPECT_THROW(write_kernel_file("/dev/full", original, Kernel_format::binary),
                 std::runtime_error);
}

}  // namespace
}  // namespace cellsync

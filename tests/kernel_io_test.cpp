#include "population/kernel_io.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "numerics/fnv.h"

namespace cellsync {
namespace {

Kernel_grid small_kernel(std::size_t bins = 50) {
    Kernel_build_options options;
    options.n_bins = bins;
    return build_kernel(Cell_cycle_config{}, Smooth_volume_model{}, {0.0, 30.0, 60.0},
                        options);
}

std::string encode(const Kernel_grid& kernel) {
    std::ostringstream out;
    write_kernel(out, kernel);
    return out.str();
}

Kernel_grid decode(const std::string& bytes) {
    std::istringstream in(bytes);
    return read_kernel(in);
}

// Byte offsets of the cellsync-kernel-bin-v1 sections: the 23-byte magic
// line, then u32 version, time count and bin count, then the axes.
constexpr std::size_t times_offset = 23 + 12;
std::size_t phi_offset(std::size_t time_count) { return times_offset + 8 * time_count; }
std::size_t values_offset(std::size_t time_count, std::size_t bin_count) {
    return phi_offset(time_count) + 8 * bin_count;
}

void patch_f64(std::string& bytes, std::size_t offset, double value) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) bytes[offset + i] = static_cast<char>((bits >> (8 * i)) & 0xff);
}

/// Recompute the trailing FNV-1a 64 checksum after a patch, so the file
/// reaches the checks behind it.
void reseal(std::string& bytes) {
    const std::uint64_t sum = fnv1a64(std::string_view(bytes).substr(0, bytes.size() - 8));
    for (int i = 0; i < 8; ++i) {
        bytes[bytes.size() - 8 + i] = static_cast<char>((sum >> (8 * i)) & 0xff);
    }
}

/// A written 2 x 2 kernel whose first row is scaled by 2: it no longer
/// integrates to 1, so only the Kernel_grid invariant rejects it.
std::string unnormalized_bytes() {
    std::string bytes = encode(Kernel_grid({0.0, 30.0}, {0.25, 0.75}, Matrix(2, 2, 1.0)));
    const std::size_t row0 = values_offset(2, 2) + 4;  // after one literal block header
    patch_f64(bytes, row0, 2.0);
    patch_f64(bytes, row0 + 8, 2.0);
    reseal(bytes);
    return bytes;
}

/// A written kernel whose last time is patched to `value`.
std::string last_time_bytes(double value) {
    const Kernel_grid kernel = small_kernel();
    std::string bytes = encode(kernel);
    patch_f64(bytes, phi_offset(kernel.time_count()) - 8, value);
    reseal(bytes);
    return bytes;
}

void expect_bit_identical(const Kernel_grid& loaded, const Kernel_grid& original) {
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

TEST(KernelIo, FileRoundTrip) {
    // The file is cellsync-kernel-bin-v1 whatever its extension.
    const Kernel_grid original = small_kernel();
    const std::string path = ::testing::TempDir() + "/cellsync_kernel_test.csv";
    write_kernel_file(path, original);
    std::ifstream file(path, std::ios::binary);
    const std::string written{std::istreambuf_iterator<char>(file), {}};
    EXPECT_EQ(written, encode(original));
    expect_bit_identical(read_kernel_file(path), original);
    std::remove(path.c_str());
}

TEST(KernelIo, CorruptedDensityRejected) {
    EXPECT_THROW(decode(unnormalized_bytes()), std::invalid_argument);
}

TEST(KernelIo, MissingFileThrows) {
    EXPECT_THROW(read_kernel_file("/nonexistent/kernel.bin"), std::runtime_error);
}

TEST(KernelIo, NonFiniteTimeColumnRejected) {
    // The checksum is valid, so only Kernel_grid's finite-times check
    // stands between a +inf or NaN time and the estimator.
    EXPECT_THROW(decode(last_time_bytes(std::numeric_limits<double>::infinity())),
                 std::invalid_argument);
    EXPECT_THROW(decode(last_time_bytes(std::numeric_limits<double>::quiet_NaN())),
                 std::invalid_argument);
}

TEST(KernelIo, BinaryRoundTripIsBitIdentical) {
    const Kernel_grid original = small_kernel();
    expect_bit_identical(decode(encode(original)), original);
}

TEST(KernelIo, WrittenBytesArePinned) {
    // One zero run and one literal block: 23 + 12 + 8 * 6 bytes of
    // header and axes, 4 + (4 + 48) of value blocks, 8 of checksum. A
    // change to these bytes would orphan every kernel already on disk.
    Matrix q(2, 4, 1.0);
    q(0, 0) = 0.0;
    q(0, 1) = 0.0;
    q(0, 2) = 2.0;
    q(0, 3) = 2.0;
    const std::string bytes =
        encode(Kernel_grid({0.0, 30.0}, {0.125, 0.375, 0.625, 0.875}, q));
    EXPECT_EQ(bytes.substr(0, 23), "cellsync-kernel-bin-v1\n");
    EXPECT_EQ(bytes.size(), 147u);
    EXPECT_EQ(fnv1a64(bytes), 0xe752780065db5fc4ull);
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

    const Kernel_grid loaded = decode(encode(original));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.q()(0, 0)),
              std::bit_cast<std::uint64_t>(denormal));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.q()(1, 0)),
              std::bit_cast<std::uint64_t>(-0.0));
    EXPECT_TRUE(std::signbit(loaded.q()(1, 0)));
}

TEST(KernelIo, BinaryRejectsBadMagic) {
    EXPECT_THROW(decode("phi,t0\n0.25,1.0\n0.75,1.0\n"), std::runtime_error);
}

TEST(KernelIo, BinaryRejectsUnsupportedVersion) {
    std::string bytes = encode(small_kernel());
    const auto v = bytes.find("-v1\n");
    ASSERT_NE(v, std::string::npos);
    bytes[v + 2] = '9';  // magic line of a future revision
    EXPECT_THROW(decode(bytes), std::runtime_error);
}

/// Runs the reader on `bytes`; a rejection must be one of the reader's
/// two documented exception types.
void expect_rejected(const std::string& bytes, const std::string& what) {
    try {
        decode(bytes);
        ADD_FAILURE() << what << " was accepted";
    } catch (const std::runtime_error&) {
    } catch (const std::invalid_argument&) {
    }
}

TEST(KernelIo, BinaryRejectsTruncation) {
    // Every proper prefix of a small kernel file (8 bins keep the
    // sanitizer build fast).
    const std::string bytes = encode(small_kernel(8));
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
        expect_rejected(bytes.substr(0, keep), "prefix of " + std::to_string(keep) + " bytes");
    }
}

TEST(KernelIo, BinaryRejectsCorruptDimensionsBeforeAllocating) {
    const std::string bytes = encode(small_kernel());
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
        EXPECT_THROW(decode(with_time_count(count)), std::runtime_error) << count;
    }
}

TEST(KernelIo, BinaryRejectsChecksumMismatch) {
    // Every single-bit flip of the same small file as the truncation test.
    const std::string bytes = encode(small_kernel(8));
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string flipped = bytes;
            flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
            expect_rejected(flipped, "flip of bit " + std::to_string(bit) + " in byte " +
                                         std::to_string(byte));
        }
    }
}

TEST(KernelIo, FileRejectionsNameThePathAndKeepTheirType) {
    const std::string bytes = encode(small_kernel());
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
        {"csv_kernel.csv", "phi,t0\n0.25,1.0\n0.75,1.0\n", false},
        {"unnormalized.bin", unnormalized_bytes(), true},
        {"infinite_time.bin", last_time_bytes(std::numeric_limits<double>::infinity()), true},
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

// --- write durability (regression: a full disk produced a truncated file
// --- reported as success) --------------------------------------------------

TEST(KernelIo, WriteFailureIsReportedNotSwallowed) {
    if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
    // /dev/full opens fine but every flushed write fails with ENOSPC —
    // exactly the silent-truncation scenario.
    EXPECT_THROW(write_kernel_file("/dev/full", small_kernel()), std::runtime_error);
}

}  // namespace
}  // namespace cellsync

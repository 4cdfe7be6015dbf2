#include "population/kernel_io.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "numerics/fnv.h"

namespace cellsync {

namespace {

// ---------------------------------------------------------------------------
// cellsync-kernel-bin-v1 layout primitives
// ---------------------------------------------------------------------------

/// Version-agnostic magic prefix: a future revision stays recognizably
/// a cellsync kernel and is rejected with a version message instead of
/// as a foreign file.
constexpr std::string_view magic_prefix = "cellsync-kernel-bin-";
/// Full magic line of the current version (23 bytes, newline included, so
/// `head -c 23 file` identifies a kernel from the shell).
constexpr std::string_view magic = "cellsync-kernel-bin-v1\n";
constexpr std::uint32_t format_version = 1;

/// Q-value blocks: a u32 header whose MSB marks a run of bitwise +0.0
/// values (no payload) and whose low 31 bits count values; literal blocks
/// are followed by that many little-endian doubles. Runs shorter than
/// this threshold are not worth the two block headers they would split.
constexpr std::uint32_t zero_run_flag = 0x80000000u;
constexpr std::size_t min_zero_run = 2;

void put_u32(std::string& out, std::uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
        out.push_back(static_cast<char>((value >> shift) & 0xff));
    }
}

void put_u64(std::string& out, std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
        out.push_back(static_cast<char>((value >> shift) & 0xff));
    }
}

void put_f64(std::string& out, double value) {
    put_u64(out, std::bit_cast<std::uint64_t>(value));
}

/// Bounds-checked little-endian reader over an in-memory image.
struct Binary_cursor {
    std::string_view bytes;
    std::size_t pos = 0;

    void need(std::size_t n, const char* what) const {
        if (bytes.size() - pos < n) {
            throw std::runtime_error(std::string("read_kernel: truncated file (") +
                                     what + ")");
        }
    }

    std::uint32_t u32(const char* what) {
        need(4, what);
        std::uint32_t value = 0;
        for (int shift = 0; shift < 32; shift += 8) {
            value |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[pos++]))
                     << shift;
        }
        return value;
    }

    std::uint64_t u64(const char* what) {
        need(8, what);
        std::uint64_t value = 0;
        for (int shift = 0; shift < 64; shift += 8) {
            value |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[pos++]))
                     << shift;
        }
        return value;
    }

    double f64(const char* what) { return std::bit_cast<double>(u64(what)); }

    /// Decode `count` contiguous doubles — a straight memcpy on
    /// little-endian hosts (x86/arm), byte-assembled elsewhere.
    void f64_array(double* out, std::size_t count, const char* what) {
        need(8 * count, what);
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(out, bytes.data() + pos, 8 * count);
            pos += 8 * count;
        } else {
            for (std::size_t k = 0; k < count; ++k) out[k] = f64(what);
        }
    }
};

std::string encode_kernel(const Kernel_grid& kernel) {
    const std::size_t time_count = kernel.time_count();
    const std::size_t bin_count = kernel.bin_count();
    const std::size_t values = time_count * bin_count;
    std::string out;
    out.reserve(magic.size() + 12 + 8 * (time_count + bin_count + values) + 8);

    out.append(magic);
    put_u32(out, format_version);
    put_u32(out, static_cast<std::uint32_t>(time_count));
    put_u32(out, static_cast<std::uint32_t>(bin_count));
    for (double t : kernel.times()) put_f64(out, t);
    for (double phi : kernel.phi_centers()) put_f64(out, phi);

    // Q values, time-major, as zero-run / literal blocks. Only the exact
    // +0.0 bit pattern compresses: -0.0 and denormals go through literal
    // blocks so the round trip stays bit-identical. Block order is the
    // matrix's row-major storage order, so the flat data() view is the
    // encode source as-is.
    const auto is_positive_zero = [](double v) {
        return std::bit_cast<std::uint64_t>(v) == 0;
    };
    const std::vector<double>& flat_q = kernel.q().data();
    const auto value_at = [&](std::size_t flat) { return flat_q[flat]; };
    constexpr std::size_t max_block = 0x7fffffffu;  // count lives in 31 bits
    std::size_t i = 0;
    while (i < values) {
        std::size_t zeros = 0;
        while (i + zeros < values && is_positive_zero(value_at(i + zeros))) ++zeros;
        if (zeros >= min_zero_run) {
            while (zeros > 0) {
                const std::size_t chunk = std::min(zeros, max_block);
                put_u32(out, zero_run_flag | static_cast<std::uint32_t>(chunk));
                i += chunk;
                zeros -= chunk;
            }
            continue;
        }
        // Literal run: up to the next compressible zero run (or the end).
        std::size_t end = i;
        while (end < values) {
            std::size_t ahead = 0;
            while (end + ahead < values && is_positive_zero(value_at(end + ahead))) ++ahead;
            if (ahead >= min_zero_run) break;
            end += ahead;                 // a short zero run folds into the literal
            if (end < values) ++end;      // ...along with the nonzero that ended it
        }
        while (i < end) {
            const std::size_t chunk = std::min(end - i, max_block);
            put_u32(out, static_cast<std::uint32_t>(chunk));
            for (std::size_t k = 0; k < chunk; ++k, ++i) put_f64(out, value_at(i));
        }
    }

    put_u64(out, fnv1a64(out));
    return out;
}

Kernel_grid decode_kernel(std::string_view bytes) {
    if (!bytes.starts_with(magic_prefix)) {
        throw std::runtime_error("read_kernel: bad magic (not a cellsync-kernel-bin-v1 file)");
    }
    if (!bytes.starts_with(magic)) {
        throw std::runtime_error("read_kernel: unrecognized format revision in magic line");
    }

    Binary_cursor cursor{bytes, magic.size()};
    const std::uint32_t version = cursor.u32("version");
    if (version != format_version) {
        throw std::runtime_error("read_kernel: unsupported version " +
                                 std::to_string(version) + " (this build reads version " +
                                 std::to_string(format_version) + ")");
    }
    const std::uint32_t time_count = cursor.u32("time count");
    const std::uint32_t bin_count = cursor.u32("bin count");
    if (time_count == 0 || bin_count == 0) {
        throw std::runtime_error("read_kernel: empty grid dimensions");
    }
    const std::uint64_t values =
        static_cast<std::uint64_t>(time_count) * static_cast<std::uint64_t>(bin_count);
    // Dimension sanity before anything is allocated from them: the
    // max_kernel_values cap build_kernel also applies, and — since the
    // axes are stored raw — the file must at least hold them plus one
    // value-block header and the checksum. Together these keep a corrupt
    // or crafted dims field from becoming a giant allocation.
    if (values > max_kernel_values) {
        throw std::runtime_error("read_kernel: implausible grid dimensions (" +
                                 std::to_string(time_count) + " x " +
                                 std::to_string(bin_count) + ")");
    }
    if (bytes.size() - cursor.pos <
        8ull * (static_cast<std::uint64_t>(time_count) + bin_count) + 4 + 8) {
        throw std::runtime_error("read_kernel: truncated file (too small for its dimensions)");
    }

    // Checksum before decoding the payload: a flipped byte anywhere in
    // the file (dims included) is reported as corruption, not as some
    // downstream shape or invariant error.
    if (bytes.size() < 8) throw std::runtime_error("read_kernel: truncated file");
    const std::string_view body = bytes.substr(0, bytes.size() - 8);
    Binary_cursor checksum_cursor{bytes, bytes.size() - 8};
    const std::uint64_t stored = checksum_cursor.u64("checksum");
    if (fnv1a64(body) != stored) {
        throw std::runtime_error("read_kernel: checksum mismatch (corrupt or torn file)");
    }

    Vector times(time_count);
    cursor.f64_array(times.data(), time_count, "times");
    Vector phi(bin_count);
    cursor.f64_array(phi.data(), bin_count, "phi centers");

    // Decode straight into the matrix's row-major storage: blocks are
    // encoded in storage order, so a literal block is one contiguous
    // copy and a zero run is already in place (Matrix zero-fills).
    Matrix q(time_count, bin_count);
    double* grid = &q(0, 0);
    std::uint64_t decoded = 0;
    while (decoded < values) {
        const std::uint32_t header = cursor.u32("block header");
        const std::uint64_t count = header & ~zero_run_flag;
        if (count == 0 || decoded + count > values) {
            throw std::runtime_error("read_kernel: malformed value block");
        }
        if (!(header & zero_run_flag)) {
            cursor.f64_array(grid + decoded, count, "values");
        }
        decoded += count;
    }
    if (cursor.pos != bytes.size() - 8) {
        throw std::runtime_error("read_kernel: trailing bytes after value blocks");
    }
    return Kernel_grid(std::move(times), std::move(phi), std::move(q));
}

std::string slurp(std::istream& in) {
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

}  // namespace

void write_kernel(std::ostream& out, const Kernel_grid& kernel) {
    const std::string encoded = encode_kernel(kernel);
    out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
}

void write_kernel_file(const std::string& path, const Kernel_grid& kernel) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("write_kernel_file: cannot open '" + path + "'");
    write_kernel(out, kernel);
    // A full disk fails the buffered writes only at flush time; without
    // this check a truncated kernel would be reported as success.
    out.flush();
    if (!out) {
        throw std::runtime_error("write_kernel_file: write failed for '" + path +
                                 "' (disk full?)");
    }
}

Kernel_grid read_kernel(std::istream& in) { return decode_kernel(slurp(in)); }

Kernel_grid read_kernel_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("read_kernel_file: cannot open '" + path + "'");
    // Every rejection names the file and keeps its exception type.
    const std::string where = "read_kernel_file: '" + path + "': ";
    try {
        return read_kernel(in);
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(where + e.what());
    } catch (const std::runtime_error& e) {
        throw std::runtime_error(where + e.what());
    }
}

}  // namespace cellsync

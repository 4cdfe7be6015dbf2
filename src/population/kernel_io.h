// Kernel serialization: save/load the discretized Q(phi, t) grid.
//
// Kernel construction is the expensive stage of a run on a cold cache;
// persisting the grid lets a lab build it once per organism/protocol and
// reuse the kernel across gene panels and sessions.
// Two formats round-trip the grid bit-exactly:
//
//  * CSV (interchange): first column `phi`, one further column per time
//    slice named `t<minutes>`, doubles at full precision. Human-readable
//    and spreadsheet-friendly, but several times larger and much slower
//    to parse than the binary layout.
//  * Binary (`cellsync-kernel-bin-v1`, the cache's storage format):
//    a 23-byte magic line naming the format, a little-endian u32 version,
//    u32 time and bin counts, the time and phi-center doubles, the Q
//    values as zero-run-compressed little-endian doubles (synchronized
//    populations leave many phase bins exactly zero), and a trailing
//    FNV-1a 64 checksum of everything before it. Only the +0.0 bit
//    pattern is run-length encoded, so denormals and negative zeros
//    survive bit-exactly.
//
// Readers auto-detect the format from the magic prefix; all Kernel_grid
// invariants are re-validated on load either way.
#pragma once

#include <iosfwd>
#include <string>

#include "population/kernel_builder.h"

namespace cellsync {

/// On-disk kernel encodings (see the header comment for the layouts).
enum class Kernel_format {
    csv,     ///< interchange: `phi` + `t<minutes>` columns, full precision
    binary,  ///< cellsync-kernel-bin-v1: checksummed little-endian doubles
};

/// "csv" or "binary".
const char* to_string(Kernel_format format);

/// Parse a format name: "csv", "bin", or "binary". Throws
/// std::invalid_argument on anything else.
Kernel_format kernel_format_from_string(const std::string& name);

/// Write the kernel grid as CSV.
void write_kernel(std::ostream& out, const Kernel_grid& kernel);

/// Write the kernel grid in the cellsync-kernel-bin-v1 layout.
void write_kernel_binary(std::ostream& out, const Kernel_grid& kernel);

/// Write to a file in the requested format. Throws std::runtime_error on
/// open failure, and — after flushing — on any write failure, so a full
/// disk surfaces as an error instead of a silently truncated file.
void write_kernel_file(const std::string& path, const Kernel_grid& kernel,
                       Kernel_format format = Kernel_format::csv);

/// Parse a kernel grid from CSV. Throws std::runtime_error on malformed
/// input (including time column names that are not fully-consumed finite
/// numbers) and std::invalid_argument if the parsed grid violates the
/// Kernel_grid invariants (row normalization, ascending grids).
Kernel_grid read_kernel(std::istream& in);

/// Parse a cellsync-kernel-bin-v1 stream. Throws std::runtime_error on a
/// bad magic, unsupported version, truncation, or checksum mismatch, and
/// std::invalid_argument on Kernel_grid invariant violations.
Kernel_grid read_kernel_binary(std::istream& in);

/// Parse either format, auto-detected from the magic prefix. If
/// `detected` is non-null it receives the format that was found.
Kernel_grid read_kernel_auto(std::istream& in, Kernel_format* detected = nullptr);

/// Read from a file with format auto-detection; throws std::runtime_error
/// on open failure plus the per-format parse errors above, each of the
/// same type with the path prefixed to its message.
Kernel_grid read_kernel_file(const std::string& path, Kernel_format* detected = nullptr);

}  // namespace cellsync

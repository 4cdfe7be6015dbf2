// Kernel serialization: save/load the discretized Q(phi, t) grid.
//
// Kernel construction is the expensive stage of a run on a cold cache;
// persisting the grid lets a lab build it once per organism/protocol and
// reuse the kernel across gene panels and sessions. There is one format,
// `cellsync-kernel-bin-v1` (the kernel cache's storage format too), and
// it round-trips the grid bit-exactly:
//
//   a 23-byte magic line naming the format, a little-endian u32 version,
//   u32 time and bin counts, the time and phi-center doubles, the Q
//   values as zero-run-compressed little-endian doubles (synchronized
//   populations leave many phase bins exactly zero), and a trailing
//   FNV-1a 64 checksum of everything before it. Only the +0.0 bit
//   pattern is run-length encoded, so denormals and negative zeros
//   survive bit-exactly.
//
// Every Kernel_grid invariant is re-validated on load.
#pragma once

#include <iosfwd>
#include <string>

#include "population/kernel_builder.h"

namespace cellsync {

/// Write the kernel grid in the cellsync-kernel-bin-v1 layout.
void write_kernel(std::ostream& out, const Kernel_grid& kernel);

/// Parse a cellsync-kernel-bin-v1 stream. Throws std::runtime_error on a
/// bad magic, unsupported version, truncation, or checksum mismatch, and
/// std::invalid_argument on Kernel_grid invariant violations.
Kernel_grid read_kernel(std::istream& in);

/// Write to a file. Throws std::runtime_error on open failure, and —
/// after flushing — on any write failure, so a full disk surfaces as an
/// error instead of a silently truncated file.
void write_kernel_file(const std::string& path, const Kernel_grid& kernel);

/// Read from a file; throws std::runtime_error on open failure plus the
/// parse errors of read_kernel, each of the same type with the path
/// prefixed to its message.
Kernel_grid read_kernel_file(const std::string& path);

}  // namespace cellsync

// CSV reading and writing for numeric tables.
//
// Format: first row is the header (column names), subsequent rows are
// numeric values. Separator is ','; leading/trailing whitespace around
// fields is ignored; blank lines and lines starting with '#' are skipped.
// This covers the expression-data files the method consumes (the
// "wire data parsing manually" part of the reproduction).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "io/table.h"

namespace cellsync {

/// Parse CSV text from a stream. Throws std::runtime_error with the line
/// number on ragged rows, non-numeric fields, or an empty header.
Table read_csv(std::istream& in);

/// Parse CSV text from a string.
Table read_csv_string(const std::string& text);

/// Read a CSV file. Throws std::runtime_error if the file cannot be
/// opened, plus the parse errors above.
Table read_csv_file(const std::string& path);

/// Split one CSV line into trimmed fields (',' separator; a trailing ','
/// yields a final empty field) — the exact field semantics of read_csv,
/// shared with the incremental record reader (io/stream_records.h).
std::vector<std::string> csv_split_fields(std::string_view line);

/// The same split with no copies: stores the first fields.size() trimmed
/// fields of `line` as views into it and returns how many fields the line
/// has, which may be more than it stored.
std::size_t csv_split_fields(std::string_view line, std::span<std::string_view> fields);

/// Parse one numeric CSV field under read_csv's rules: optional leading
/// '+', finite values only. Throws std::runtime_error naming
/// `line_number` and quoting the field on malformed or non-finite input.
double csv_parse_field(std::string_view field, std::size_t line_number);

/// The repo-wide number-parsing policy (std::from_chars, whole-string,
/// optional leading '+', finite only), outside a CSV context: the same
/// rules as csv_parse_field but with errors that name the offending
/// text instead of a line number. This — not std::stod/strtod/atof,
/// which silently accept garbage suffixes ("1.5junk" parses as 1.5),
/// locale-dependent separators, and inf/nan — is how every number
/// enters the system; tools/cellsync_lint enforces it mechanically.
/// Throws std::runtime_error on violation.
double parse_strict_double(const std::string& text);

/// Unsigned-integer counterpart of parse_strict_double: whole-string
/// decimal digits only (no sign, no whitespace, no 0x), so "-1" fails
/// instead of wrapping to 2^64-1 the way std::stoull parses it. Throws
/// std::runtime_error naming the offending text.
std::uint64_t parse_strict_uint64(const std::string& text);

/// Write a table as CSV (header + rows, '\n' line endings, max precision).
/// Rows are formatted and written in blocks of csv_block_rows(table).
void write_csv(std::ostream& out, const Table& table);

/// The header line write_csv writes: the column names joined by ',',
/// then '\n'.
std::string csv_header(const Table& table);

/// Append rows [begin, end) of `table` to `out` as CSV text: exactly the
/// bytes write_csv writes for those rows, each value as printf's %.17g.
/// Blocks of rows may be formatted independently (on several threads)
/// and concatenated in order. Throws std::out_of_range if end exceeds
/// the row count or begin exceeds end.
void append_csv_rows(std::string& out, const Table& table, std::size_t begin,
                     std::size_t end);

/// Rows per block when a table is formatted in blocks of about 4,096
/// cells: the table's rows split evenly into ceil(cells / 4096) blocks.
/// A table of at most 4,096 cells is one block; at least 1.
std::size_t csv_block_rows(const Table& table);

/// Write a table to a file. Throws std::runtime_error on open failure
/// and — after flushing — on any write failure, so a full disk surfaces
/// as an error instead of a silently truncated file.
void write_csv_file(const std::string& path, const Table& table);

}  // namespace cellsync

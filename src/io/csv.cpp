#include "io/csv.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace cellsync {

namespace {

std::string_view trim_view(std::string_view s) {
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string_view::npos) return {};
    const auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

std::string trim(std::string_view s) { return std::string(trim_view(s)); }

/// Calls field(view) on each trimmed field of `line` in order: one per ','
/// plus one, so a trailing ',' yields a final empty field; an empty line
/// has none.
template <typename Field>
void for_each_field(std::string_view line, Field field) {
    if (line.empty()) return;
    for (std::size_t begin = 0;;) {
        const std::size_t comma = line.find(',', begin);
        field(trim_view(line.substr(begin, comma - begin)));
        if (comma == std::string_view::npos) return;
        begin = comma + 1;
    }
}

}  // namespace

std::vector<std::string> csv_split_fields(std::string_view line) {
    std::vector<std::string> fields;
    for_each_field(line, [&](std::string_view field) { fields.emplace_back(field); });
    return fields;
}

std::size_t csv_split_fields(std::string_view line, std::span<std::string_view> fields) {
    std::size_t count = 0;
    for_each_field(line, [&](std::string_view field) {
        if (count < fields.size()) fields[count] = field;
        ++count;
    });
    return count;
}

namespace {

/// How a strict double parse can fail; `ok` means a finite value landed.
enum class Number_error { ok, out_of_range, malformed, non_finite };

Number_error parse_double_core(std::string_view field, double& value) {
    value = 0.0;
    const char* first = field.data();
    const char* last = field.data() + field.size();
    // std::from_chars, unlike strtod, rejects an explicit '+' sign; accept
    // it here (only when it actually prefixes a mantissa or an inf/nan
    // spelling, so "+" and "+-1" still fail below while "+inf" reaches the
    // dedicated non-finite rejection).
    if (first != last && *first == '+' && first + 1 != last &&
        (std::isdigit(static_cast<unsigned char>(first[1])) || first[1] == '.' ||
         first[1] == 'i' || first[1] == 'I' || first[1] == 'n' || first[1] == 'N')) {
        ++first;
    }
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec == std::errc::result_out_of_range) return Number_error::out_of_range;
    if (ec != std::errc() || ptr != last) return Number_error::malformed;
    // from_chars happily parses "inf"/"nan" spellings; measurements must be
    // finite, so reject them with a message naming the policy.
    if (!std::isfinite(value)) return Number_error::non_finite;
    return Number_error::ok;
}

}  // namespace

double csv_parse_field(std::string_view field, std::size_t line_number) {
    double value = 0.0;
    switch (parse_double_core(field, value)) {
        case Number_error::ok:
            return value;
        case Number_error::out_of_range:
            throw std::runtime_error("CSV line " + std::to_string(line_number) +
                                     ": field '" + std::string(field) +
                                     "' is out of double range");
        case Number_error::non_finite:
            throw std::runtime_error("CSV line " + std::to_string(line_number) +
                                     ": non-finite field '" + std::string(field) +
                                     "' (inf/nan are not valid values)");
        case Number_error::malformed:
            break;
    }
    throw std::runtime_error("CSV line " + std::to_string(line_number) +
                             ": non-numeric field '" + std::string(field) + "'");
}

double parse_strict_double(const std::string& text) {
    double value = 0.0;
    switch (parse_double_core(text, value)) {
        case Number_error::ok:
            return value;
        case Number_error::out_of_range:
            throw std::runtime_error("value '" + text + "' is out of double range");
        case Number_error::non_finite:
            throw std::runtime_error("non-finite value '" + text +
                                     "' (inf/nan are not valid here)");
        case Number_error::malformed:
            break;
    }
    throw std::runtime_error("non-numeric value '" + text +
                             "' (whole value must parse; no trailing text)");
}

std::uint64_t parse_strict_uint64(const std::string& text) {
    std::uint64_t value = 0;
    const char* first = text.data();
    const char* last = text.data() + text.size();
    // No '+' allowance here: flag values and manifest counters are plain
    // decimal; from_chars already rejects signs, whitespace, and hex.
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec == std::errc::result_out_of_range) {
        throw std::runtime_error("value '" + text + "' is out of unsigned 64-bit range");
    }
    if (ec != std::errc() || ptr != last || first == last) {
        throw std::runtime_error("non-numeric value '" + text +
                                 "' (expected an unsigned integer)");
    }
    return value;
}

Table read_csv(std::istream& in) {
    std::string line;
    std::size_t line_number = 0;

    // Header.
    std::vector<std::string> header;
    while (std::getline(in, line)) {
        ++line_number;
        const std::string t = trim(line);
        if (t.empty() || t.front() == '#') continue;
        header = csv_split_fields(t);
        break;
    }
    if (header.empty()) throw std::runtime_error("CSV: empty or missing header");
    for (const std::string& name : header) {
        if (name.empty()) throw std::runtime_error("CSV: empty column name in header");
    }

    std::vector<Vector> columns(header.size());
    while (std::getline(in, line)) {
        ++line_number;
        const std::string t = trim(line);
        if (t.empty() || t.front() == '#') continue;
        const std::vector<std::string> fields = csv_split_fields(t);
        if (fields.size() != header.size()) {
            throw std::runtime_error("CSV line " + std::to_string(line_number) + ": expected " +
                                     std::to_string(header.size()) + " fields, got " +
                                     std::to_string(fields.size()));
        }
        for (std::size_t c = 0; c < fields.size(); ++c) {
            columns[c].push_back(csv_parse_field(fields[c], line_number));
        }
    }

    Table table;
    for (std::size_t c = 0; c < header.size(); ++c) {
        table.add_column(header[c], std::move(columns[c]));
    }
    return table;
}

Table read_csv_string(const std::string& text) {
    std::istringstream in(text);
    return read_csv(in);
}

Table read_csv_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("CSV: cannot open '" + path + "'");
    return read_csv(in);
}

void write_csv(std::ostream& out, const Table& table) {
    out << csv_header(table);
    const std::size_t rows = table.row_count();
    const std::size_t block = csv_block_rows(table);
    std::string text;
    for (std::size_t begin = 0; begin < rows; begin += block) {
        text.clear();
        append_csv_rows(text, table, begin, std::min(rows, begin + block));
        out << text;
    }
}

std::string csv_header(const Table& table) {
    std::string header;
    for (std::size_t c = 0; c < table.column_count(); ++c) {
        if (c) header += ',';
        header += table.names()[c];
    }
    header += '\n';
    return header;
}

void append_csv_rows(std::string& out, const Table& table, std::size_t begin,
                     std::size_t end) {
    if (begin > end || end > table.row_count()) {
        throw std::out_of_range("append_csv_rows: rows [" + std::to_string(begin) + ", " +
                                std::to_string(end) + ") of a " +
                                std::to_string(table.row_count()) + "-row table");
    }
    std::vector<const double*> columns;
    for (std::size_t c = 0; c < table.column_count(); ++c) {
        columns.push_back(table.column(c).data());
    }
    // Room for the longest %.17g text (24 characters) and its separator
    // per value, so a block is one allocation.
    out.reserve(out.size() + (end - begin) * columns.size() * 25);
    // to_chars(general, 17) writes the bytes of an ostream at
    // setprecision(17) (printf's %.17g), without the stream's per-value
    // locale and formatting overhead.
    char buffer[32];
    for (std::size_t r = begin; r < end; ++r) {
        for (std::size_t c = 0; c < columns.size(); ++c) {
            if (c) out += ',';
            const auto result = std::to_chars(buffer, buffer + sizeof(buffer), columns[c][r],
                                              std::chars_format::general, 17);
            out.append(buffer, result.ptr);
        }
        out += '\n';
    }
}

std::size_t csv_block_rows(const Table& table) {
    constexpr std::size_t block_cells = 4096;
    const std::size_t rows = table.row_count();
    const std::size_t blocks =
        std::max<std::size_t>(1, (rows * table.column_count() + block_cells - 1) / block_cells);
    return std::max<std::size_t>(1, (rows + blocks - 1) / blocks);
}

void write_csv_file(const std::string& path, const Table& table) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("CSV: cannot open '" + path + "' for writing");
    write_csv(out, table);
    // A full disk fails the buffered writes only at flush time; without
    // this check a truncated table would be reported as success.
    out.flush();
    if (!out) {
        throw std::runtime_error("CSV: write failed for '" + path + "' (disk full?)");
    }
}

}  // namespace cellsync

#include "io/csv.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace cellsync {

namespace {

std::string trim(const std::string& s) {
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos) return "";
    const auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

}  // namespace

std::vector<std::string> csv_split_fields(const std::string& line) {
    std::vector<std::string> fields;
    std::string field;
    std::istringstream ss(line);
    while (std::getline(ss, field, ',')) fields.push_back(trim(field));
    if (!line.empty() && line.back() == ',') fields.push_back("");
    return fields;
}

namespace {

/// How a strict double parse can fail; `ok` means a finite value landed.
enum class Number_error { ok, out_of_range, malformed, non_finite };

Number_error parse_double_core(const std::string& field, double& value) {
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

double csv_parse_field(const std::string& field, std::size_t line_number) {
    double value = 0.0;
    switch (parse_double_core(field, value)) {
        case Number_error::ok:
            return value;
        case Number_error::out_of_range:
            throw std::runtime_error("CSV line " + std::to_string(line_number) +
                                     ": field '" + field + "' is out of double range");
        case Number_error::non_finite:
            throw std::runtime_error("CSV line " + std::to_string(line_number) +
                                     ": non-finite field '" + field +
                                     "' (inf/nan are not valid values)");
        case Number_error::malformed:
            break;
    }
    throw std::runtime_error("CSV line " + std::to_string(line_number) +
                             ": non-numeric field '" + field + "'");
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
    for (std::size_t c = 0; c < table.column_count(); ++c) {
        out << (c ? "," : "") << table.names()[c];
    }
    out << '\n';
    // to_chars(general, 17) writes the bytes of an ostream at
    // setprecision(17) (printf's %.17g), without the stream's per-value
    // locale and formatting overhead.
    std::string line;
    char buffer[32];
    for (std::size_t r = 0; r < table.row_count(); ++r) {
        line.clear();
        for (std::size_t c = 0; c < table.column_count(); ++c) {
            if (c) line += ',';
            const auto result = std::to_chars(buffer, buffer + sizeof(buffer),
                                              table.column(c)[r], std::chars_format::general, 17);
            line.append(buffer, result.ptr);
        }
        line += '\n';
        out << line;
    }
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

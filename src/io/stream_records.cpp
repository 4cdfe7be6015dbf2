#include "io/stream_records.h"

#include <array>
#include <istream>
#include <stdexcept>
#include <string_view>

#include "io/csv.h"
#include "io/measurement.h"

namespace cellsync {

namespace {

std::string_view trim_line(std::string_view s) {
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string_view::npos) return {};
    const auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

/// Columns a header can name: time, gene, value and sigma, each once.
constexpr std::size_t max_columns = 4;

}  // namespace

Record_stream::Record_stream(std::istream& in) : in_(in) {
    std::vector<std::string> header;
    while (std::getline(in_, line_)) {
        ++line_number_;
        const std::string_view t = trim_line(line_);
        if (t.empty() || t.front() == '#') continue;
        header = csv_split_fields(t);
        break;
    }
    if (header.empty()) {
        throw std::runtime_error("record stream: empty or missing header");
    }
    bool has_time = false, has_gene = false, has_value = false;
    // A repeated column is ambiguous (which copy holds the data?); the old
    // last-one-wins behavior silently read the wrong field, so reject.
    const auto reject_duplicate = [&](bool seen, const std::string& name) {
        if (seen) {
            throw std::runtime_error("record stream line " + std::to_string(line_number_) +
                                     ": duplicate column '" + name + "'");
        }
    };
    for (std::size_t c = 0; c < header.size(); ++c) {
        const std::string& name = header[c];
        if (name == "time") {
            reject_duplicate(has_time, name);
            time_col_ = c;
            has_time = true;
        } else if (name == "gene") {
            reject_duplicate(has_gene, name);
            gene_col_ = c;
            has_gene = true;
        } else if (name == "value") {
            reject_duplicate(has_value, name);
            value_col_ = c;
            has_value = true;
        } else if (name == "sigma") {
            reject_duplicate(has_sigma_, name);
            sigma_col_ = c;
            has_sigma_ = true;
        } else {
            throw std::runtime_error("record stream line " + std::to_string(line_number_) +
                                     ": unexpected column '" + name +
                                     "' (want time, gene, value[, sigma])");
        }
    }
    if (!has_time || !has_gene || !has_value) {
        throw std::runtime_error(
            "record stream: header needs time, gene, and value columns");
    }
    column_count_ = header.size();
}

std::optional<Expression_record> Record_stream::parse_next() {
    // The line lands in a buffer that keeps its capacity from line to
    // line, and its fields are views into it: a record costs no
    // allocation beyond its gene name's.
    while (std::getline(in_, line_)) {
        ++line_number_;
        const std::string_view t = trim_line(line_);
        if (t.empty() || t.front() == '#') continue;

        std::array<std::string_view, max_columns> fields;
        const std::size_t count = csv_split_fields(t, fields);
        if (count != column_count_) {
            throw std::runtime_error("record stream line " + std::to_string(line_number_) +
                                     ": expected " + std::to_string(column_count_) +
                                     " fields, got " + std::to_string(count));
        }
        Expression_record record;
        record.time = csv_parse_field(fields[time_col_], line_number_);
        record.gene = fields[gene_col_];
        record.value = csv_parse_field(fields[value_col_], line_number_);
        if (has_sigma_) record.sigma = csv_parse_field(fields[sigma_col_], line_number_);
        if (record.gene.empty()) {
            throw std::runtime_error("record stream line " + std::to_string(line_number_) +
                                     ": empty gene name");
        }
        if (!valid_sigma(record.sigma)) {
            throw std::runtime_error("record stream line " + std::to_string(line_number_) +
                                     ": sigma must be positive with a finite weight "
                                     "1/sigma^2");
        }
        if (any_record_ && record.time < last_time_) {
            throw std::runtime_error("record stream line " + std::to_string(line_number_) +
                                     ": time went backwards (append-only logs are "
                                     "time-ordered)");
        }
        last_time_ = record.time;
        any_record_ = true;
        ++record_count_;
        return record;
    }
    return std::nullopt;
}

std::optional<Expression_record> Record_stream::next() {
    if (lookahead_.has_value()) {
        std::optional<Expression_record> out = std::move(lookahead_);
        lookahead_.reset();
        return out;
    }
    return parse_next();
}

std::vector<Expression_record> Record_stream::next_timepoint() {
    std::vector<Expression_record> batch;
    std::optional<Expression_record> record = next();
    if (!record.has_value()) return batch;
    const double time = record->time;
    batch.push_back(std::move(*record));
    for (;;) {
        record = parse_next();
        if (!record.has_value()) break;
        if (record->time != time) {
            lookahead_ = std::move(record);
            break;
        }
        batch.push_back(std::move(*record));
    }
    return batch;
}

}  // namespace cellsync

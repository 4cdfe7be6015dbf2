// Incremental parsing of append-only expression record logs.
//
// The streaming engine (stream/stream_session.h) consumes measurements as
// they arrive, one record per (time, gene) pair, so its input format is a
// long-form CSV log — columns `time`, `gene`, `value`, optional `sigma` —
// appended to as the experiment runs. Unlike io/csv.h's Table reader
// (which materializes whole numeric columns), Record_stream hands records
// back one at a time as they are pulled off the stream, holding only the
// current line in memory; the field-splitting and number-parsing rules
// are shared with read_csv (csv_split_fields / csv_parse_field), here in
// their forms on string views into that line.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace cellsync {

/// One appended measurement: gene `gene` observed at `time` with value
/// `value` and standard deviation `sigma` (1 when the log has no sigma
/// column).
struct Expression_record {
    double time = 0.0;
    std::string gene;
    double value = 0.0;
    double sigma = 1.0;
};

/// Pull-based reader over an append-only record log.
///
/// The header is consumed on construction; each next() returns the
/// following record, or std::nullopt at end-of-stream. Blank lines and
/// '#' comment lines are skipped, matching read_csv. Records must be
/// time-ordered (non-decreasing): out-of-order times throw, because an
/// append-only log cannot revisit a completed timepoint. All errors are
/// std::runtime_error naming the 1-based line number.
class Record_stream {
  public:
    /// Reads and validates the header: `time`, `gene`, and `value`
    /// columns required (any order), `sigma` optional, nothing else —
    /// and no column twice (a duplicate is ambiguous about which copy
    /// holds the data, so it is rejected with the header's line number).
    explicit Record_stream(std::istream& in);

    /// Next record, or std::nullopt once the stream is exhausted.
    std::optional<Expression_record> next();

    /// All records sharing the next time value (one timepoint's batch);
    /// empty at end-of-stream. The look-ahead record that terminated the
    /// batch is buffered for the following call.
    std::vector<Expression_record> next_timepoint();

    /// Records handed out so far.
    std::size_t record_count() const { return record_count_; }

    /// 1-based number of the last line consumed.
    std::size_t line_number() const { return line_number_; }

  private:
    std::optional<Expression_record> parse_next();

    std::istream& in_;
    std::string line_;  // the line being parsed
    std::size_t time_col_ = 0;
    std::size_t gene_col_ = 0;
    std::size_t value_col_ = 0;
    std::size_t sigma_col_ = 0;
    bool has_sigma_ = false;
    std::size_t column_count_ = 0;
    std::size_t line_number_ = 0;
    std::size_t record_count_ = 0;
    double last_time_ = 0.0;
    bool any_record_ = false;
    std::optional<Expression_record> lookahead_;
};

}  // namespace cellsync

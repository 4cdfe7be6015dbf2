#include "io/csv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace cellsync {
namespace {

TEST(Csv, ParsesSimpleTable) {
    const Table t = read_csv_string("time,value\n0,1.5\n15,2.5\n30,3.5\n");
    EXPECT_EQ(t.column_count(), 2u);
    EXPECT_EQ(t.row_count(), 3u);
    EXPECT_DOUBLE_EQ(t.column("time")[1], 15.0);
    EXPECT_DOUBLE_EQ(t.column("value")[2], 3.5);
}

TEST(Csv, SkipsCommentsAndBlankLines) {
    const Table t = read_csv_string(
        "# provenance comment\n\ntime,value\n# interior comment\n0,1\n\n1,2\n");
    EXPECT_EQ(t.row_count(), 2u);
}

TEST(Csv, TrimsWhitespaceAroundFields) {
    const Table t = read_csv_string("a , b\n 1.0 ,\t2.0 \n");
    EXPECT_DOUBLE_EQ(t.column("a")[0], 1.0);
    EXPECT_DOUBLE_EQ(t.column("b")[0], 2.0);
}

TEST(Csv, ScientificNotationAndNegatives) {
    const Table t = read_csv_string("x\n-1.5e-3\n2E4\n");
    EXPECT_DOUBLE_EQ(t.column("x")[0], -1.5e-3);
    EXPECT_DOUBLE_EQ(t.column("x")[1], 2e4);
}

TEST(Csv, LeadingPlusSignAccepted) {
    // Regression: std::from_chars rejects '+'-signed doubles, so "+1.5"
    // used to throw even though it is a standard numeric spelling.
    const Table t = read_csv_string("x\n+1.5\n+2E4\n+.25\n+1e-3\n");
    EXPECT_DOUBLE_EQ(t.column("x")[0], 1.5);
    EXPECT_DOUBLE_EQ(t.column("x")[1], 2e4);
    EXPECT_DOUBLE_EQ(t.column("x")[2], 0.25);
    EXPECT_DOUBLE_EQ(t.column("x")[3], 1e-3);
}

TEST(Csv, BarePlusAndSignPairsRejected) {
    EXPECT_THROW(read_csv_string("x\n+\n"), std::runtime_error);
    EXPECT_THROW(read_csv_string("x\n+-1\n"), std::runtime_error);
    EXPECT_THROW(read_csv_string("x\n++1\n"), std::runtime_error);
}

TEST(Csv, NonFiniteValuesRejectedWithClearMessage) {
    for (const char* bad : {"inf", "-inf", "+inf", "nan", "-nan", "INF", "NaN"}) {
        try {
            read_csv_string(std::string("x\n") + bad + "\n");
            FAIL() << "expected non-finite rejection for '" << bad << "'";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
                << "message for '" << bad << "' was: " << e.what();
        }
    }
}

TEST(Csv, OutOfRangeValueRejected) {
    try {
        read_csv_string("x\n1e999\n");
        FAIL() << "expected out-of-range rejection";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("range"), std::string::npos);
    }
}

TEST(Csv, RaggedRowReportsLineNumber) {
    try {
        read_csv_string("a,b\n1,2\n3\n");
        FAIL() << "expected ragged-row error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    }
}

TEST(Csv, NonNumericFieldReportsFieldText) {
    try {
        read_csv_string("a\nhello\n");
        FAIL() << "expected non-numeric error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("hello"), std::string::npos);
    }
}

TEST(Csv, EmptyInputRejected) {
    EXPECT_THROW(read_csv_string(""), std::runtime_error);
    EXPECT_THROW(read_csv_string("# only a comment\n"), std::runtime_error);
}

TEST(Csv, EmptyHeaderFieldRejected) {
    EXPECT_THROW(read_csv_string("a,,c\n1,2,3\n"), std::runtime_error);
}

TEST(Csv, MissingFileThrows) {
    EXPECT_THROW(read_csv_file("/nonexistent/path/data.csv"), std::runtime_error);
}

TEST(Csv, WriteReadRoundTrip) {
    Table t;
    t.add_column("time", {0.0, 15.0, 30.0});
    t.add_column("value", {1.23456789012345, -2.5, 3.75e-8});
    std::ostringstream out;
    write_csv(out, t);
    const Table back = read_csv_string(out.str());
    EXPECT_EQ(back.column_count(), 2u);
    for (std::size_t r = 0; r < 3; ++r) {
        EXPECT_DOUBLE_EQ(back.column("time")[r], t.column("time")[r]);
        EXPECT_DOUBLE_EQ(back.column("value")[r], t.column("value")[r]);
    }
}

TEST(Csv, WriteFormatsEachValueAsPercent17g) {
    // The profile CSVs' bytes: printf's %.17g, the text an ostream writes
    // at setprecision(17), for signed zeros, rounding cases, the exponent
    // switch, denormals and non-finite values.
    Table t;
    t.add_column("v", {0.0, -0.0, 0.1, 1.0 / 3.0, 1e16, 1e17, 1e-5,
                       std::numeric_limits<double>::denorm_min(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN(), -2.5});
    std::ostringstream out;
    write_csv(out, t);
    EXPECT_EQ(out.str(),
              "v\n0\n-0\n0.10000000000000001\n0.33333333333333331\n10000000000000000\n"
              "1e+17\n1.0000000000000001e-05\n4.9406564584124654e-324\ninf\n-inf\nnan\n"
              "-2.5\n");
}

/// "c0", "c1", ...: appended, not `"c" + std::to_string(c)`, which
/// g++ 12 misreports under -Werror=restrict once inlined.
std::string column_name(std::size_t c) {
    std::string name = "c";
    name += std::to_string(c);
    return name;
}

TEST(Csv, RowBlocksConcatenateToWriteCsvBytes) {
    // Any split of a table's rows into blocks, formatted independently and
    // concatenated after the header, is write_csv's text.
    const double denormal = std::numeric_limits<double>::denorm_min();
    const std::vector<Vector> columns = {
        {0.0, -0.0, 1.0, -7.0, 1e300, -1e300, 12345678.0},
        {denormal, -denormal, 2.2250738585072009e-308, 0.1, 1.0 / 3.0, 1e16, 1e17},
        {42.0, 1e-5, -2.5, 3.0, -0.0, 123456789012345678.0, 5e-324},
    };
    for (const std::size_t rows : {0u, 1u, 7u}) {
        Table table;
        for (std::size_t c = 0; c < columns.size(); ++c) {
            table.add_column(column_name(c),
                             Vector(columns[c].begin(), columns[c].begin() + rows));
        }
        std::ostringstream out;
        write_csv(out, table);
        const std::string header = csv_header(table);
        EXPECT_EQ(header, "c0,c1,c2\n");
        for (std::size_t block = 1; block <= rows + 1; ++block) {
            std::string text = header;
            for (std::size_t begin = 0; begin < rows; begin += block) {
                append_csv_rows(text, table, begin, std::min(rows, begin + block));
            }
            EXPECT_EQ(text, out.str()) << rows << " rows in blocks of " << block;
        }
    }
    Table one;
    one.add_column("x", {-0.0});
    std::string text;
    append_csv_rows(text, one, 0, 1);
    EXPECT_EQ(text, "-0\n");
    EXPECT_THROW(append_csv_rows(text, one, 0, 2), std::out_of_range);
    EXPECT_THROW(append_csv_rows(text, one, 1, 0), std::out_of_range);
}

TEST(Csv, BlockRowsHoldAbout4096Cells) {
    // 201 x 5 (run_cold's profile table) is one block; 201 x 65 and
    // 201 x 193 (run_warm's and stream's) split evenly into 4 and 10.
    const auto block_rows = [](std::size_t rows, std::size_t columns) {
        Table table;
        for (std::size_t c = 0; c < columns; ++c) {
            table.add_column(column_name(c), Vector(rows, 1.0));
        }
        return csv_block_rows(table);
    };
    EXPECT_EQ(block_rows(201, 5), 201u);
    EXPECT_EQ(block_rows(201, 65), 51u);
    EXPECT_EQ(block_rows(201, 193), 21u);
    EXPECT_EQ(block_rows(1, 10000), 1u);
    EXPECT_EQ(block_rows(0, 3), 1u);
    EXPECT_EQ(csv_block_rows(Table{}), 1u);
}

TEST(Csv, SplitFieldsEdgeCases) {
    // Every field trimmed of spaces, tabs and '\r'; one field per ',' plus
    // one, so a trailing ',' adds an empty field; an empty line has none.
    using Fields = std::vector<std::string>;
    EXPECT_EQ(csv_split_fields(""), Fields{});
    EXPECT_EQ(csv_split_fields(","), (Fields{"", ""}));
    EXPECT_EQ(csv_split_fields("a,"), (Fields{"a", ""}));
    EXPECT_EQ(csv_split_fields(" a ,\tb\r"), (Fields{"a", "b"}));
    EXPECT_EQ(csv_split_fields("a,,b"), (Fields{"a", "", "b"}));
    EXPECT_EQ(csv_split_fields("a"), Fields{"a"});
    EXPECT_EQ(csv_split_fields("  "), Fields{""});
    EXPECT_EQ(csv_split_fields(" x y ,1e-3, "), (Fields{"x y", "1e-3", ""}));
}

TEST(Csv, FileRoundTrip) {
    Table t;
    t.add_column("x", {1.0, 2.0});
    const std::string path = ::testing::TempDir() + "/cellsync_csv_test.csv";
    write_csv_file(path, t);
    const Table back = read_csv_file(path);
    EXPECT_DOUBLE_EQ(back.column("x")[1], 2.0);
    std::remove(path.c_str());
}

TEST(Csv, WriteFailureIsReportedNotSwallowed) {
    if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
    Table t;
    t.add_column("x", {1.0, 2.0});
    // /dev/full opens fine but every flushed write fails with ENOSPC;
    // without the post-flush stream check a truncated file was reported
    // as success.
    EXPECT_THROW(write_csv_file("/dev/full", t), std::runtime_error);
}

}  // namespace
}  // namespace cellsync

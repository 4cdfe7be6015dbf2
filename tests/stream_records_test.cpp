#include "io/stream_records.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/csv.h"

namespace cellsync {
namespace {

TEST(RecordStream, ParsesRecordsInOrder) {
    std::istringstream in(
        "time,gene,value,sigma\n"
        "0,ftsZ,5.25,0.4\n"
        "0,dnaA,3.5,0.2\n"
        "15,ftsZ,6,0.4\n");
    Record_stream stream(in);
    auto r1 = stream.next();
    ASSERT_TRUE(r1.has_value());
    EXPECT_EQ(r1->time, 0.0);
    EXPECT_EQ(r1->gene, "ftsZ");
    EXPECT_EQ(r1->value, 5.25);
    EXPECT_EQ(r1->sigma, 0.4);
    auto r2 = stream.next();
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(r2->gene, "dnaA");
    auto r3 = stream.next();
    ASSERT_TRUE(r3.has_value());
    EXPECT_EQ(r3->time, 15.0);
    EXPECT_FALSE(stream.next().has_value());
    EXPECT_EQ(stream.record_count(), 3u);
}

TEST(RecordStream, SigmaColumnOptionalDefaultsToUnit) {
    std::istringstream in(
        "time,gene,value\n"
        "0,ftsZ,5\n");
    Record_stream stream(in);
    const auto record = stream.next();
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->sigma, 1.0);
}

TEST(RecordStream, ColumnOrderIsFlexible) {
    std::istringstream in(
        "gene,sigma,value,time\n"
        "ftsZ,0.5,4.25,30\n");
    Record_stream stream(in);
    const auto record = stream.next();
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->time, 30.0);
    EXPECT_EQ(record->gene, "ftsZ");
    EXPECT_EQ(record->value, 4.25);
    EXPECT_EQ(record->sigma, 0.5);
}

TEST(RecordStream, SkipsBlankAndCommentLines) {
    std::istringstream in(
        "# appended by the acquisition rig\n"
        "time,gene,value\n"
        "\n"
        "# batch 1\n"
        "0,ftsZ,5\n"
        "   \n"
        "15,ftsZ,6\n");
    Record_stream stream(in);
    EXPECT_TRUE(stream.next().has_value());
    EXPECT_TRUE(stream.next().has_value());
    EXPECT_FALSE(stream.next().has_value());
}

TEST(RecordStream, NextTimepointGroupsContiguousTimes) {
    std::istringstream in(
        "time,gene,value\n"
        "0,a,1\n"
        "0,b,2\n"
        "15,a,3\n"
        "15,b,4\n"
        "30,a,5\n");
    Record_stream stream(in);
    const auto t0 = stream.next_timepoint();
    ASSERT_EQ(t0.size(), 2u);
    EXPECT_EQ(t0[0].gene, "a");
    EXPECT_EQ(t0[1].gene, "b");
    const auto t1 = stream.next_timepoint();
    ASSERT_EQ(t1.size(), 2u);
    EXPECT_EQ(t1[0].time, 15.0);
    const auto t2 = stream.next_timepoint();
    ASSERT_EQ(t2.size(), 1u);
    EXPECT_EQ(t2[0].time, 30.0);
    EXPECT_TRUE(stream.next_timepoint().empty());
}

TEST(RecordStream, HeaderValidation) {
    {
        std::istringstream in("");
        EXPECT_THROW(Record_stream{in}, std::runtime_error);
    }
    {
        std::istringstream in("time,value\n0,1\n");  // gene missing
        EXPECT_THROW(Record_stream{in}, std::runtime_error);
    }
    {
        std::istringstream in("time,gene,value,extra\n");
        EXPECT_THROW(Record_stream{in}, std::runtime_error);
    }
}

TEST(RecordStream, DuplicateColumnsRejectedWithLineNumber) {
    // Regression: 'time,time,gene,value' used to silently bind the
    // second copy (last wins), reading values from the wrong field.
    const char* duplicated[] = {
        "time,time,gene,value\n0,0,ftsZ,1\n",
        "time,gene,gene,value\n0,ftsZ,ftsZ,1\n",
        "time,gene,value,value\n0,ftsZ,1,1\n",
        "time,gene,value,sigma,sigma\n0,ftsZ,1,0.5,0.5\n",
    };
    for (const char* text : duplicated) {
        std::istringstream in(text);
        try {
            Record_stream stream(in);
            FAIL() << "accepted duplicate header: " << text;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("duplicate column"), std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos) << e.what();
        }
    }
}

TEST(RecordStream, DuplicateColumnErrorNamesTheHeaderLine) {
    // Comments shift the header off line 1; the error must name the
    // actual header line.
    std::istringstream in("# appended by sensor rig\n\ntime,gene,value,time\n");
    try {
        Record_stream stream(in);
        FAIL() << "accepted duplicate header";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
    }
}

TEST(RecordStream, RecordValidationNamesTheLine) {
    {
        std::istringstream in("time,gene,value\n0,ftsZ\n");  // ragged
        Record_stream stream(in);
        EXPECT_THROW(stream.next(), std::runtime_error);
    }
    {
        std::istringstream in("time,gene,value\n0,ftsZ,inf\n");
        Record_stream stream(in);
        EXPECT_THROW(stream.next(), std::runtime_error);
    }
    {
        std::istringstream in("time,gene,value,sigma\n0,ftsZ,1,-0.5\n");
        Record_stream stream(in);
        EXPECT_THROW(stream.next(), std::runtime_error);
    }
    {
        // 1e-170 is finite and positive, but its weight 1/sigma^2 overflows.
        std::istringstream in("time,gene,value,sigma\n0,ftsZ,1,0.5\n15,ftsZ,1,1e-170\n");
        Record_stream stream(in);
        stream.next();
        try {
            stream.next();
            FAIL() << "expected a sigma error";
        } catch (const std::runtime_error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("line 3"), std::string::npos) << what;
            EXPECT_NE(what.find("sigma"), std::string::npos) << what;
        }
    }
    {
        std::istringstream in("time,gene,value\n0,,1\n");  // empty gene
        Record_stream stream(in);
        EXPECT_THROW(stream.next(), std::runtime_error);
    }
    {
        // The line number in the message points at the offending row.
        std::istringstream in("time,gene,value\n0,ftsZ,1\nbroken\n");
        Record_stream stream(in);
        stream.next();
        try {
            stream.next();
            FAIL() << "expected parse error";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
        }
    }
}

/// The message `text` makes Record_stream throw on its first record.
std::string first_record_error(const std::string& text) {
    std::istringstream in(text);
    Record_stream stream(in);
    try {
        stream.next();
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "(no error)";
}

TEST(RecordStream, SplitsEachLineAsCsvSplitFields) {
    // Tabs and spaces around fields, CRLF endings, '+'-signed numbers, a
    // '#' inside a field and a gene name with inner spaces: every record
    // must hold what csv_split_fields makes of its line, each number
    // parsed by csv_parse_field.
    const std::vector<std::string> lines = {
        "0,ftsZ,5.25,0.4",
        " \t15 ,\tdnaA\t, 3.5 ,  0.2\t",
        "30,ftsZ,+6,0.4\r",
        "45\t,gene with space,+.5,+1e-3\r",
        "60,#hash,-0,2.5e+1",
        "  75,a,1e-300,1",
    };
    std::string text = "time,gene,value,sigma\r\n";
    for (const std::string& line : lines) text += line + "\n";
    std::istringstream in(text);
    Record_stream stream(in);
    for (const std::string& line : lines) {
        SCOPED_TRACE(line);
        const std::vector<std::string> fields = csv_split_fields(line);
        ASSERT_EQ(fields.size(), 4u);
        const auto record = stream.next();
        ASSERT_TRUE(record.has_value());
        EXPECT_EQ(record->time, csv_parse_field(fields[0], 0));
        EXPECT_EQ(record->gene, fields[1]);
        EXPECT_EQ(record->value, csv_parse_field(fields[2], 0));
        EXPECT_EQ(record->sigma, csv_parse_field(fields[3], 0));
    }
    EXPECT_FALSE(stream.next().has_value());
    EXPECT_EQ(stream.record_count(), lines.size());
}

TEST(RecordStream, SkipsIndentedCommentsAndCountsEveryLine) {
    std::istringstream in(
        "  # leading comment\r\n"
        "time,gene,value\r\n"
        "\t# indented comment\r\n"
        "  \t \r\n"
        "0,a,1\r\n"
        "   #0,b,2\n"
        "0,b,2\n"
        "15,a,x\n");
    Record_stream stream(in);
    const auto a = stream.next();
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->gene, "a");
    EXPECT_EQ(stream.line_number(), 5u);
    const auto b = stream.next();
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->gene, "b");
    EXPECT_EQ(stream.line_number(), 7u);
    try {
        stream.next();
        FAIL() << "accepted a non-numeric value";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "CSV line 8: non-numeric field 'x'");
    }
}

TEST(RecordStream, FieldCountErrorsNameTheLineAndBothCounts) {
    // A trailing comma is one more (empty) field.
    EXPECT_EQ(first_record_error("time,gene,value\n0,ftsZ,1,\n"),
              "record stream line 2: expected 3 fields, got 4");
    EXPECT_EQ(first_record_error("# c\ntime,gene,value,sigma\n\n0,a,1,1,\n"),
              "record stream line 4: expected 4 fields, got 5");
    // More fields than any header can have (it holds at most 4 columns).
    EXPECT_EQ(first_record_error("time,gene,value,sigma\n0,a,1,1,1,1\n"),
              "record stream line 2: expected 4 fields, got 6");
    EXPECT_EQ(first_record_error("time,gene,value\n0,a,1,2,3,4,5,6\n"),
              "record stream line 2: expected 3 fields, got 8");
    EXPECT_EQ(first_record_error("time,gene,value\n,,,\n"),
              "record stream line 2: expected 3 fields, got 4");
    EXPECT_EQ(first_record_error("time,gene,value,sigma\n0,a,1\n"),
              "record stream line 2: expected 4 fields, got 3");
}

TEST(RecordStream, FieldErrorsQuoteTheBadField) {
    // An empty sigma field is a non-numeric one.
    EXPECT_EQ(first_record_error("time,gene,value,sigma\n0,a,1,\n"),
              "CSV line 2: non-numeric field ''");
    EXPECT_EQ(first_record_error("time,gene,value,sigma\n0,a,1, \t\n"),
              "CSV line 2: non-numeric field ''");
    EXPECT_EQ(first_record_error("time,gene,value\n0,a, 1.5junk \n"),
              "CSV line 2: non-numeric field '1.5junk'");
    EXPECT_EQ(first_record_error("time,gene,value\n0,a,1 2\n"),
              "CSV line 2: non-numeric field '1 2'");
    EXPECT_EQ(first_record_error("time,gene,value\n0,a,+\n"),
              "CSV line 2: non-numeric field '+'");
    EXPECT_EQ(first_record_error("time,gene,value\n0,a,+-1\n"),
              "CSV line 2: non-numeric field '+-1'");
    EXPECT_EQ(first_record_error("time,gene,value\n0,a,+inf\n"),
              "CSV line 2: non-finite field '+inf' (inf/nan are not valid values)");
    EXPECT_EQ(first_record_error("time,gene,value\n0,a,nan\n"),
              "CSV line 2: non-finite field 'nan' (inf/nan are not valid values)");
    EXPECT_EQ(first_record_error("time,gene,value\n0,a,1e999\n"),
              "CSV line 2: field '1e999' is out of double range");
    // Columns are parsed time, value, sigma; the gene and sigma checks
    // follow, so the first bad field in that order is the one named.
    EXPECT_EQ(first_record_error("value,gene,time\ny,a,x\n"),
              "CSV line 2: non-numeric field 'x'");
    EXPECT_EQ(first_record_error("time,gene,value,sigma\n0,,y,-1\n"),
              "CSV line 2: non-numeric field 'y'");
    EXPECT_EQ(first_record_error("time,gene,value,sigma\n0, ,1,-1\n"),
              "record stream line 2: empty gene name");
    EXPECT_EQ(first_record_error("time,gene,value,sigma\n0,a,1,0\n"),
              "record stream line 2: sigma must be positive with a finite weight 1/sigma^2");
}

TEST(RecordStream, RejectsTimeGoingBackwards) {
    std::istringstream in(
        "time,gene,value\n"
        "15,a,1\n"
        "0,a,2\n");
    Record_stream stream(in);
    EXPECT_TRUE(stream.next().has_value());
    EXPECT_THROW(stream.next(), std::runtime_error);
}

}  // namespace
}  // namespace cellsync

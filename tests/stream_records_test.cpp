#include "io/stream_records.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

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

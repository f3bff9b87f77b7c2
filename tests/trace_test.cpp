/**
 * @file
 * Unit tests for the trace library: codecs, file round-trips (the
 * bundled traces in both formats), validation, and merging.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "trace/codec.hpp"
#include "trace/merge.hpp"
#include "trace/stream.hpp"
#include "trace/validate.hpp"
#include "workload/generator.hpp"

namespace nvfs::trace {
namespace {

Event
makeEvent(TimeUs t, EventType type, ClientId client = 1, ProcId pid = 2,
          FileId file = 3, Bytes off = 0, Bytes len = 0,
          std::uint32_t flags = 0)
{
    Event e;
    e.time = t;
    e.type = type;
    e.client = client;
    e.pid = pid;
    e.file = file;
    e.offset = off;
    e.length = len;
    e.flags = flags;
    return e;
}

TEST(EventNames, AllDistinct)
{
    std::set<std::string> names;
    for (int t = 0; t <= static_cast<int>(EventType::EndOfTrace); ++t)
        names.insert(eventTypeName(static_cast<EventType>(t)));
    EXPECT_EQ(names.size(),
              static_cast<std::size_t>(EventType::EndOfTrace) + 1);
}

TEST(BinaryCodec, RoundTripsSingleEvent)
{
    const Event in = makeEvent(123456789, EventType::Write, 5, 77, 9,
                               8192, 4096, kOpenWrite);
    std::stringstream buffer;
    encodeEvent(in, buffer);
    const auto out = decodeEvent(buffer);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, in);
}

TEST(BinaryCodec, EofReturnsNullopt)
{
    std::stringstream buffer;
    EXPECT_FALSE(decodeEvent(buffer).has_value());
}

TEST(BinaryCodec, HeaderRoundTrips)
{
    TraceHeader in;
    in.traceIndex = 6;
    in.clientCount = 40;
    in.duration = 24 * kUsPerHour;
    in.eventCount = 999;
    std::stringstream buffer;
    encodeHeader(in, buffer);
    EXPECT_EQ(decodeHeader(buffer), in);
}

TEST(TextCodec, RoundTripsThroughToString)
{
    const Event in = makeEvent(42, EventType::Open, 2, 3, 4, 100, 0,
                               kOpenRead | kOpenWrite);
    const auto out = parseTextEvent(toString(in));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, in);
}

TEST(TextCodec, SkipsBlankAndComment)
{
    EXPECT_FALSE(parseTextEvent("").has_value());
    EXPECT_FALSE(parseTextEvent("   ").has_value());
    EXPECT_FALSE(parseTextEvent("# comment").has_value());
}

TEST(TextCodec, RejectsMalformedLinesWithTheField)
{
    // Garbage where a number belongs used to reach std::stoull and
    // escape as a bare std::invalid_argument (or silently truncate:
    // "42x" parsed as 42).  Now every bad field throws ValidateError
    // naming the offender.
    EXPECT_THROW(parseTextEvent("bogus write file=1"), ValidateError);
    EXPECT_THROW(parseTextEvent("5 warp file=1"), ValidateError);
    EXPECT_THROW(parseTextEvent("5 write file=abc"), ValidateError);
    EXPECT_THROW(parseTextEvent("5 write file=1x"), ValidateError);
    EXPECT_THROW(parseTextEvent("5 write len=-4"), ValidateError);
    EXPECT_THROW(parseTextEvent("5 write file"), ValidateError);
    EXPECT_THROW(parseTextEvent("5 write weird=1"), ValidateError);
    EXPECT_THROW(parseTextEvent("5"), ValidateError);

    try {
        parseTextEvent("5 write len=junk");
        FAIL() << "expected ValidateError";
    } catch (const ValidateError &e) {
        EXPECT_EQ(e.field(), "len");
        EXPECT_NE(std::string(e.what()).find("junk"),
                  std::string::npos);
    }
    try {
        parseTextEvent("notatime write file=1");
        FAIL() << "expected ValidateError";
    } catch (const ValidateError &e) {
        EXPECT_EQ(e.field(), "time");
    }
}

TEST(TraceFiles, BinaryRoundTrip)
{
    TraceBuffer in;
    in.header.traceIndex = 3;
    in.header.clientCount = 2;
    in.header.duration = 1000;
    in.push(makeEvent(1, EventType::Open, 0, 1, 0, 0, 0, kOpenWrite));
    in.push(makeEvent(2, EventType::Write, 0, 1, 0, 0, 4096));
    in.push(makeEvent(3, EventType::Close, 0, 1, 0, 4096));

    const auto path = std::filesystem::temp_directory_path() /
                      "nvfs_trace_test.bin";
    writeTraceFile(path.string(), in);
    const TraceBuffer out = readTraceFile(path.string());
    std::filesystem::remove(path);

    EXPECT_EQ(out.header.traceIndex, in.header.traceIndex);
    EXPECT_EQ(out.header.clientCount, in.header.clientCount);
    ASSERT_EQ(out.events.size(), in.events.size());
    for (std::size_t i = 0; i < in.events.size(); ++i)
        EXPECT_EQ(out.events[i], in.events[i]);
}

TEST(TraceFiles, TextRoundTrip)
{
    TraceBuffer in;
    in.push(makeEvent(1, EventType::Open, 0, 1, 0, 0, 0, kOpenRead));
    in.push(makeEvent(5, EventType::Close, 0, 1, 0, 100));

    const auto path = std::filesystem::temp_directory_path() /
                      "nvfs_trace_test.txt";
    writeTraceText(path.string(), in);
    const TraceBuffer out = readTraceText(path.string());
    std::filesystem::remove(path);

    ASSERT_EQ(out.events.size(), 2u);
    EXPECT_EQ(out.events[0], in.events[0]);
    EXPECT_EQ(out.events[1], in.events[1]);
}

TEST(TraceFiles, BundledTracesRoundTripBinary)
{
    const auto dir = std::filesystem::temp_directory_path();
    for (int t = 1; t <= 8; ++t) {
        const TraceBuffer in = workload::generateStandardTrace(t, 0.01);
        const std::string path =
            (dir / ("nvfs_bundled_" + std::to_string(t) + ".nvt"))
                .string();
        writeTraceFile(path, in);
        const TraceBuffer out = readTraceFile(path);
        std::filesystem::remove(path);

        TraceHeader want = in.header;
        want.eventCount = in.events.size();
        EXPECT_TRUE(out.header == want) << "trace " << t;
        EXPECT_TRUE(out.events == in.events) << "trace " << t;
    }
}

TEST(TraceFiles, BundledTracesRoundTripText)
{
    const auto dir = std::filesystem::temp_directory_path();
    for (const int t : {1, 3, 7}) {
        const TraceBuffer in = workload::generateStandardTrace(t, 0.01);
        const std::string path =
            (dir / ("nvfs_bundled_" + std::to_string(t) + ".txt"))
                .string();
        writeTraceText(path, in);
        const TraceBuffer out = readTraceText(path);
        std::filesystem::remove(path);

        EXPECT_EQ(out.header.eventCount, in.events.size())
            << "trace " << t;
        EXPECT_TRUE(out.events == in.events) << "trace " << t;
    }
}

TEST(TraceFiles, TextReaderSkipsLinesLongerThan256KiB)
{
    // Comment lines longer than 256 KiB, blank lines, and a last
    // line without a newline must not disturb the events around them.
    const Event open = makeEvent(1, EventType::Open, 0, 1, 0, 0, 0,
                                 kOpenWrite);
    const Event write = makeEvent(2, EventType::Write, 0, 1, 0, 0, 4096);
    const Event close = makeEvent(3, EventType::Close, 0, 1, 0, 4096);
    const auto path = std::filesystem::temp_directory_path() /
                      "nvfs_trace_long_lines.txt";
    {
        std::ofstream out(path);
        out << toString(open) << "\n";
        out << "#" << std::string(300 * 1024, 'x') << "\n\n";
        out << toString(write) << "\n";
        out << "#" << std::string(600 * 1024, 'y') << "\n";
        out << toString(close) << "\n\n# no newline at the end";
    }
    const TraceBuffer got = readTraceText(path.string());
    std::filesystem::remove(path);

    ASSERT_EQ(got.events.size(), 3u);
    EXPECT_EQ(got.events[0], open);
    EXPECT_EQ(got.events[1], write);
    EXPECT_EQ(got.events[2], close);
    EXPECT_EQ(got.header.eventCount, 3u);
}

// ---------------------------------------------------------- validate

TEST(Validate, AcceptsWellFormedTrace)
{
    TraceBuffer buffer;
    buffer.push(makeEvent(1, EventType::Open, 0, 1, 0, 0, 0,
                          kOpenWrite));
    buffer.push(makeEvent(2, EventType::Write, 0, 1, 0, 0, 100));
    buffer.push(makeEvent(3, EventType::Fsync, 0, 1, 0));
    buffer.push(makeEvent(4, EventType::Close, 0, 1, 0, 100));
    buffer.push(makeEvent(5, EventType::Delete, 0, 1, 0));
    buffer.push(makeEvent(6, EventType::EndOfTrace));
    const auto report = validateTrace(buffer);
    EXPECT_TRUE(report.ok()) << report.issues.front().message;
    EXPECT_EQ(report.eventsChecked, 6u);
}

TEST(Validate, FlagsTimeRegression)
{
    TraceBuffer buffer;
    buffer.push(makeEvent(10, EventType::Delete));
    buffer.push(makeEvent(5, EventType::Delete));
    EXPECT_FALSE(validateTrace(buffer).ok());
}

TEST(Validate, FlagsCloseWithoutOpen)
{
    TraceBuffer buffer;
    buffer.push(makeEvent(1, EventType::Close));
    EXPECT_FALSE(validateTrace(buffer).ok());
}

TEST(Validate, FlagsIoOnUnopenedFile)
{
    TraceBuffer buffer;
    buffer.push(makeEvent(1, EventType::Read, 1, 2, 3, 0, 10));
    EXPECT_FALSE(validateTrace(buffer).ok());
}

TEST(Validate, FlagsOpenWithoutMode)
{
    TraceBuffer buffer;
    buffer.push(makeEvent(1, EventType::Open));
    buffer.push(makeEvent(2, EventType::Close));
    EXPECT_FALSE(validateTrace(buffer).ok());
}

TEST(Validate, FlagsUnclosedFileAtEnd)
{
    TraceBuffer buffer;
    buffer.push(makeEvent(1, EventType::Open, 0, 1, 0, 0, 0,
                          kOpenRead));
    const auto report = validateTrace(buffer);
    EXPECT_FALSE(report.ok());
}

TEST(Validate, FlagsSelfMigration)
{
    TraceBuffer buffer;
    Event e = makeEvent(1, EventType::Migrate, 4);
    e.targetClient = 4;
    buffer.push(e);
    EXPECT_FALSE(validateTrace(buffer).ok());
}

TEST(Validate, FlagsZeroLengthIo)
{
    TraceBuffer buffer;
    buffer.push(makeEvent(1, EventType::Open, 0, 1, 0, 0, 0,
                          kOpenWrite));
    buffer.push(makeEvent(2, EventType::Write, 0, 1, 0, 0, 0));
    buffer.push(makeEvent(3, EventType::Close, 0, 1, 0));
    EXPECT_FALSE(validateTrace(buffer).ok());
}

TEST(Validate, FlagsEventAfterEnd)
{
    TraceBuffer buffer;
    buffer.push(makeEvent(1, EventType::EndOfTrace));
    buffer.push(makeEvent(2, EventType::Delete));
    EXPECT_FALSE(validateTrace(buffer).ok());
}

// -------------------------------------------------------------- sort

TEST(Merge, StableSortByTime)
{
    TraceBuffer buffer;
    buffer.push(makeEvent(5, EventType::Delete, 0));
    buffer.push(makeEvent(1, EventType::Delete, 1));
    buffer.push(makeEvent(5, EventType::Delete, 2));
    stableSortByTime(buffer);
    EXPECT_EQ(buffer.events[0].client, 1);
    EXPECT_EQ(buffer.events[1].client, 0); // original order preserved
    EXPECT_EQ(buffer.events[2].client, 2);
}

} // namespace
} // namespace nvfs::trace

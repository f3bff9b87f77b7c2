/**
 * @file
 * Error-path coverage: fatal() on malformed input (bad trace files,
 * named by path and first bad record or line; bad unit strings) and
 * panic() on internal misuse, exercised as gtest death tests — a
 * simulator that silently computes on corrupt state is worse than one
 * that stops.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "cache/block_cache.hpp"
#include "core/sim/experiments.hpp"
#include "trace/codec.hpp"
#include "trace/stream.hpp"
#include "util/units.hpp"
#include "workload/generator.hpp"
#include "workload/profile.hpp"

namespace nvfs {
namespace {

TEST(ErrorHandling, BadMagicIsFatal)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "nvfs_bad_magic.trace";
    {
        std::ofstream out(path, std::ios::binary);
        const char junk[64] = "this is not a trace file at all";
        out.write(junk, sizeof(junk));
    }
    EXPECT_EXIT(trace::readTraceFile(path.string()),
                ::testing::ExitedWithCode(1), "bad magic");
    std::filesystem::remove(path);
}

TEST(ErrorHandling, TruncatedRecordIsFatal)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "nvfs_truncated.trace";
    {
        trace::TraceBuffer buffer;
        trace::Event event;
        event.type = trace::EventType::Delete;
        buffer.push(event);
        trace::writeTraceFile(path.string(), buffer);
        // Chop the last few bytes off.
        std::filesystem::resize_file(
            path, std::filesystem::file_size(path) - 5);
    }
    EXPECT_EXIT(trace::readTraceFile(path.string()),
                ::testing::ExitedWithCode(1), "truncated");
    std::filesystem::remove(path);
}

TEST(ErrorHandling, MissingFileIsFatal)
{
    EXPECT_EXIT(trace::readTraceFile("/nonexistent/nvfs.trace"),
                ::testing::ExitedWithCode(1), "cannot open");
}

/** Fresh temp dir per test, cleaned of any previous run's leftovers. */
std::string
tempDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

TEST(TraceReaderDeath, BinaryErrorsNamePathAndRecord)
{
    const std::string dir = tempDir("nvfs_reader_err");

    // Too short for a header.
    const std::string stub = dir + "/stub.nvt";
    std::ofstream(stub, std::ios::binary) << "short";
    EXPECT_EXIT(trace::readTraceFile(stub),
                testing::ExitedWithCode(1),
                "truncated trace header: .*stub\\.nvt");

    // Whole records plus stray trailing bytes.
    const std::string torn = dir + "/torn.nvt";
    trace::writeTraceFile(torn,
                          workload::generateStandardTrace(7, 0.01));
    {
        std::ofstream append(torn,
                             std::ios::binary | std::ios::app);
        append << "xyz";
    }
    EXPECT_EXIT(trace::readTraceFile(torn),
                testing::ExitedWithCode(1),
                "truncated trace record: .*torn\\.nvt has 3 stray");

    // Header count disagrees with the records on disk.
    const std::string counted = dir + "/counted.nvt";
    const trace::TraceBuffer lying =
        workload::generateStandardTrace(7, 0.01);
    ASSERT_GE(lying.events.size(), 3u);
    {
        // writeTraceFile fixes up eventCount, so forge the header by
        // truncating whole records off a valid file instead.
        trace::writeTraceFile(counted, lying);
        const auto size = std::filesystem::file_size(counted);
        std::filesystem::resize_file(counted,
                                     size - trace::kRecordSize);
    }
    EXPECT_EXIT(trace::readTraceFile(counted),
                testing::ExitedWithCode(1),
                "header claims .* events, found");

    // Records whose event-type byte is garbage: the report names the
    // earliest bad record by index.
    const std::string corrupt = dir + "/corrupt.nvt";
    trace::writeTraceFile(corrupt, lying);
    {
        std::fstream patch(corrupt, std::ios::binary | std::ios::in |
                                        std::ios::out);
        // The type byte sits after time/offset/length (u64 x3),
        // file/pid (u32 x2), and client/targetClient (u16 x2) — byte
        // 36 of the record (see encodeEvent).  Clobber records 2
        // and 1, the later one first.
        for (const int record : {2, 1}) {
            patch.seekp(static_cast<std::streamoff>(
                trace::kTraceHeaderSize +
                record * trace::kRecordSize + 36));
            patch.put(static_cast<char>(0xEE));
        }
    }
    EXPECT_EXIT(trace::readTraceFile(corrupt),
                testing::ExitedWithCode(1),
                "corrupt trace record: bad event type "
                "\\(.*corrupt\\.nvt, record 1\\)");

    EXPECT_EXIT(trace::readTraceFile(dir + "/missing.nvt"),
                testing::ExitedWithCode(1),
                "cannot open trace file: .*missing\\.nvt \\(");
}

TEST(TraceReaderDeath, TextParseErrorReportsLowestLine)
{
    const std::string dir = tempDir("nvfs_reader_text_err");
    const std::string path = dir + "/bad.txt";
    trace::writeTraceText(path,
                          workload::generateStandardTrace(7, 0.01));
    std::size_t lines = 0;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            ++lines;
    }
    {
        std::ofstream append(path, std::ios::app);
        append << "notanumber open stuff\n";
        append << "alsobad open stuff\n"; // later error must lose
    }
    const std::string want =
        "bad\\.txt:" + std::to_string(lines + 1) + ": ";
    EXPECT_EXIT(trace::readTraceText(path),
                testing::ExitedWithCode(1), want);
}

TEST(ErrorHandling, BadUnitSuffixIsFatal)
{
    EXPECT_EXIT(util::parseBytes("12XB"),
                ::testing::ExitedWithCode(1), "unknown byte suffix");
    EXPECT_EXIT(util::parseDuration("5 fortnights"),
                ::testing::ExitedWithCode(1),
                "unknown duration suffix");
    EXPECT_EXIT(util::parseBytes("notanumber"),
                ::testing::ExitedWithCode(1), "cannot parse");
}

TEST(ErrorHandling, CacheMisusePanics)
{
    // panic() aborts (simulator bug, not user error).
    EXPECT_DEATH(
        {
            cache::BlockCache cache(1);
            cache.insert({1, 0}, 1);
            cache.insert({2, 0}, 2); // full: must evict first
        },
        "insert into full cache");
    EXPECT_DEATH(
        {
            cache::BlockCache cache(4);
            cache.touch({9, 9}, 1); // not resident
        },
        "not resident");
}

TEST(ErrorHandling, DuplicateCacheInsertPanics)
{
    // The extent index, the cache's only block -> slot map, refuses a
    // block that is already resident.
    EXPECT_DEATH(
        {
            cache::BlockCache cache(4);
            cache.insert({1, 0}, 1);
            cache.insert({1, 0}, 2);
        },
        "duplicate block");
    EXPECT_DEATH(
        {
            cache::BlockCache cache(8);
            cache.insert({1, 2}, 1);
            cache.insertRange(1, 0, 3, 2);
        },
        "overlaps resident blocks");
}

TEST(ErrorHandling, BadTraceNumberPanics)
{
    EXPECT_DEATH(workload::standardProfile(9, 1.0), "out of range");
    EXPECT_DEATH(workload::standardProfile(0, 1.0), "out of range");
}

TEST(OpsWithSeed, DistinctSeedsDistinctTraces)
{
    const auto a = core::opsWithSeed(7, 0.02, 1);
    const auto b = core::opsWithSeed(7, 0.02, 2);
    const auto a2 = core::opsWithSeed(7, 0.02, 1);
    EXPECT_EQ(a.ops.size(), a2.ops.size());
    EXPECT_NE(a.ops.size(), b.ops.size());
}

} // namespace
} // namespace nvfs

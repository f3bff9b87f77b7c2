/**
 * @file
 * Unit tests for the file server: the 30-second sweep, fsync-forced
 * partial segments, and the NVRAM write buffer's coalescing.
 */

#include <gtest/gtest.h>

#include "core/sim/experiments.hpp"
#include "server/file_server.hpp"

namespace nvfs::server {
namespace {

using workload::ServerOp;

ServerOp
write(TimeUs t, FsId fs, FileId file, Bytes off, Bytes len)
{
    return {t, fs, file, off, len, ServerOp::Kind::Write};
}

ServerOp
fsync(TimeUs t, FsId fs, FileId file)
{
    return {t, fs, file, 0, 0, ServerOp::Kind::Fsync};
}

ServerConfig
config(Bytes buffer = 0)
{
    ServerConfig c;
    c.nvramBufferBytes = buffer;
    return c;
}

TEST(FileServer, FsyncForcesPartialSegment)
{
    FileServer server({"/fs"}, config());
    server.run({
        write(secondsUs(1), 0, 1, 0, 8000),
        fsync(secondsUs(2), 0, 1),
    });
    const FsStats &stats = server.stats(0);
    EXPECT_EQ(stats.log.partialsByFsync, 1u);
    EXPECT_EQ(stats.fsyncs, 1u);
    EXPECT_EQ(stats.fsyncsAbsorbed, 0u);
    EXPECT_EQ(stats.arrivedBytes, 8000u);
}

TEST(FileServer, TimeoutFlushAfterThirtySeconds)
{
    FileServer server({"/fs"}, config());
    server.run({
        write(secondsUs(1), 0, 1, 0, 8000),
        // A later op advances the sweeping clock past 31 s.
        write(secondsUs(60), 0, 2, 0, 100),
    });
    const FsStats &stats = server.stats(0);
    EXPECT_GE(stats.log.partialsByTimeout, 1u);
}

TEST(FileServer, BufferAbsorbsFsync)
{
    FileServer server({"/fs"}, config(512 * kKiB));
    server.run({
        write(secondsUs(1), 0, 1, 0, 8000),
        fsync(secondsUs(2), 0, 1),
    });
    const FsStats &stats = server.stats(0);
    EXPECT_EQ(stats.fsyncsAbsorbed, 1u);
    EXPECT_EQ(stats.log.partialsByFsync, 0u);
    // The data still reaches disk eventually (shutdown drain).
    EXPECT_EQ(stats.log.dataBytes, 8000u);
}

TEST(FileServer, BufferedFsyncsCoalesceWithTimeoutFlush)
{
    // Several fsyncs inside one 30-second window plus background
    // data: baseline writes one segment per fsync; buffered rides
    // them all out with the single timeout flush.
    std::vector<ServerOp> ops;
    ops.push_back(write(secondsUs(1), 0, 99, 0, 4000)); // background
    for (int i = 0; i < 5; ++i) {
        ops.push_back(
            write(secondsUs(3 + i), 0, 1, i * 2048, 2048));
        ops.push_back(fsync(secondsUs(3 + i) + 1000, 0, 1));
    }
    ops.push_back(write(secondsUs(90), 0, 100, 0, 100));

    FileServer baseline({"/fs"}, config());
    baseline.run(ops);
    FileServer buffered({"/fs"}, config(512 * kKiB));
    buffered.run(ops);

    EXPECT_EQ(baseline.stats(0).log.partialsByFsync, 5u);
    EXPECT_EQ(buffered.stats(0).log.partialsByFsync, 0u);
    EXPECT_LT(buffered.totalDiskWrites(),
              baseline.totalDiskWrites());
    // Same data volume reaches the disk either way.
    EXPECT_EQ(buffered.totalDataBytes(), baseline.totalDataBytes());
}

TEST(FileServer, SmallBufferOverflowsToDisk)
{
    // A 4 KB buffer cannot absorb a 100 KB fsync.
    FileServer server({"/fs"}, config(4 * kKiB));
    server.run({
        write(secondsUs(1), 0, 1, 0, 100 * kKiB),
        fsync(secondsUs(2), 0, 1),
    });
    const FsStats &stats = server.stats(0);
    EXPECT_EQ(stats.bufferOverflows, 1u);
    EXPECT_EQ(stats.fsyncsAbsorbed, 0u);
}

TEST(FileServer, LargeDumpMakesFullSegments)
{
    FileServer server({"/fs"}, config());
    // 1.5 segments of data arriving at once, flushed by the sweep.
    std::vector<ServerOp> ops;
    for (Bytes off = 0; off < 768 * kKiB; off += 64 * kKiB)
        ops.push_back(write(secondsUs(1), 0, 1, off, 64 * kKiB));
    ops.push_back(write(secondsUs(90), 0, 2, 0, 100));
    server.run(ops);
    const FsStats &stats = server.stats(0);
    EXPECT_GE(stats.log.fullSegments, 1u);
    EXPECT_GE(stats.log.partialSegments, 1u); // the remainder
}

// A tight bounded disk: 64 segments of 64 KiB under trace 1's
// volatile server stream.  A cleaning pass's copies can fill as many
// segments as it reclaims (each copy writes metadata per distinct
// file), so the cleaner must stop when a pass frees nothing instead of
// growing the log pass after pass; the run must finish with the
// structures intact.
TEST(FileServer, CleanerEndsOnATightDisk)
{
    ServerConfig tight;
    tight.lfs.segmentBytes = 64 * kKiB;
    tight.lfs.diskSegments = 64;
    core::ModelConfig model;
    model.kind = core::ModelKind::Volatile;
    FileServer server({"/fs"}, tight);
    server.run(core::collectServerOps(core::standardOps(1, 0.02), model));
    EXPECT_NO_THROW(server.auditInvariants());
    EXPECT_GT(server.stats(0).log.cleanerSegments, 0u);
}

TEST(FileServer, FsyncOfCleanFileIsFree)
{
    FileServer server({"/fs"}, config());
    server.run({fsync(secondsUs(1), 0, 1)});
    EXPECT_EQ(server.stats(0).log.segmentsWritten, 0u);
}

TEST(FileServer, PerFsIsolation)
{
    FileServer server({"/a", "/b"}, config());
    server.run({
        write(secondsUs(1), 0, 1, 0, 4000),
        fsync(secondsUs(2), 0, 1),
        write(secondsUs(3), 1, 2, 0, 6000),
    });
    EXPECT_EQ(server.stats(0).log.partialsByFsync, 1u);
    EXPECT_EQ(server.stats(1).log.partialsByFsync, 0u);
    EXPECT_EQ(server.stats(0).arrivedBytes, 4000u);
    EXPECT_EQ(server.stats(1).arrivedBytes, 6000u);
    EXPECT_EQ(server.totalDataBytes(), 10000u);
}

TEST(FileServer, DrainWritesEverythingAtShutdown)
{
    FileServer server({"/fs"}, config());
    server.run({write(secondsUs(1), 0, 1, 0, 12345)});
    EXPECT_EQ(server.stats(0).log.dataBytes, 12345u);
}

TEST(FileServer, RangeScatterDirtiesEachBlockOnce)
{
    // Two overlapping writes spanning partial and whole blocks, and a
    // zero-length write past them that must dirty nothing.
    for (const Bytes buffer : {Bytes{0}, 512 * kKiB}) {
        SCOPED_TRACE(buffer);
        FileServer server({"/fs"}, config(buffer));
        server.run({
            write(secondsUs(1), 0, 1, 100, 4900),    // [100, 5000)
            write(secondsUs(2), 0, 1, 3000, 10000),  // [3000, 13000)
            write(secondsUs(3), 0, 1, 20000, 0),
            fsync(secondsUs(4), 0, 1),
        });
        const FsStats &stats = server.stats(0);
        EXPECT_EQ(stats.arrivedBytes, 14900u);
        EXPECT_EQ(stats.log.dataBytes, 12900u);

        const auto &segments = server.log(0).segments();
        ASSERT_EQ(segments.size(), 1u);
        std::vector<std::pair<std::uint32_t, Bytes>> data;
        for (const lfs::SegmentEntry &entry : segments[0].entries) {
            if (entry.kind == lfs::EntryKind::Data) {
                EXPECT_EQ(entry.file, 1u);
                data.emplace_back(entry.blockIndex, entry.bytes);
            }
        }
        const std::vector<std::pair<std::uint32_t, Bytes>> expected = {
            {0, 3996}, {1, 4096}, {2, 4096}, {3, 712}};
        EXPECT_EQ(data, expected);

        if (buffer == 0) {
            EXPECT_EQ(segments[0].cause, lfs::SealCause::Fsync);
            EXPECT_EQ(stats.log.partialsByFsync, 1u);
            EXPECT_EQ(stats.fsyncsAbsorbed, 0u);
            EXPECT_EQ(server.nvramDevice(0), nullptr);
        } else {
            EXPECT_EQ(segments[0].cause, lfs::SealCause::Shutdown);
            EXPECT_EQ(stats.log.partialsByFsync, 0u);
            EXPECT_EQ(stats.fsyncsAbsorbed, 1u);
            const nvram::NvramDevice *ledger = server.nvramDevice(0);
            ASSERT_NE(ledger, nullptr);
            EXPECT_TRUE(ledger->tags().empty());
            EXPECT_EQ(ledger->usedBytes(), 0u);
        }
        EXPECT_NO_THROW(server.auditInvariants());
    }
}

} // namespace
} // namespace nvfs::server

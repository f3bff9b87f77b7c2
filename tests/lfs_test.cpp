/**
 * @file
 * Unit tests for the log-structured file system: segment sealing and
 * classification, metadata/summary accounting, deletion semantics,
 * the inode map, the cleaner, and crash recovery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "lfs/cleaner.hpp"
#include "lfs/log.hpp"
#include "lfs/recovery.hpp"
#include "util/rng.hpp"

namespace nvfs::lfs {
namespace {

LfsConfig
smallConfig(std::uint32_t disk_segments = 0)
{
    LfsConfig config;
    config.segmentBytes = 64 * kKiB; // 16 blocks: easy to fill
    config.diskSegments = disk_segments;
    return config;
}

TEST(InodeMap, UpdateReturnsPrevious)
{
    InodeMap map;
    EXPECT_FALSE(map.locate(1, 0).has_value());
    EXPECT_FALSE(map.update(1, 0, {5, 2}).has_value());
    const auto old = map.update(1, 0, {6, 0});
    ASSERT_TRUE(old.has_value());
    EXPECT_EQ(*old, (SegmentAddress{5, 2}));
    EXPECT_EQ(*map.locate(1, 0), (SegmentAddress{6, 0}));
}

TEST(InodeMap, RemoveFileReturnsAllAddresses)
{
    InodeMap map;
    map.update(1, 0, {0, 0});
    map.update(1, 1, {0, 1});
    map.update(2, 0, {0, 2});
    const auto removed = map.removeFile(1);
    EXPECT_EQ(removed.size(), 2u);
    EXPECT_EQ(map.fileCount(), 1u);
    EXPECT_EQ(map.blockCount(), 1u);
}

TEST(InodeMap, TruncateDropsTail)
{
    InodeMap map;
    for (std::uint32_t b = 0; b < 5; ++b)
        map.update(1, b, {0, b});
    const auto dropped = map.truncate(1, 2);
    EXPECT_EQ(dropped.size(), 3u);
    EXPECT_TRUE(map.locate(1, 1).has_value());
    EXPECT_FALSE(map.locate(1, 2).has_value());
}

TEST(InodeMap, Equality)
{
    InodeMap a, b;
    a.update(1, 0, {0, 0});
    EXPECT_FALSE(a == b);
    b.update(1, 0, {0, 0});
    EXPECT_TRUE(a == b);
}

/** The inode map as an ordered std::map over (file, block). */
using ReferenceMap =
    std::map<std::pair<FileId, std::uint32_t>, SegmentAddress>;

/** The reference's addresses for `file`, ascending block index. */
std::vector<std::pair<std::uint32_t, SegmentAddress>>
referenceBlocks(const ReferenceMap &ref, FileId file)
{
    std::vector<std::pair<std::uint32_t, SegmentAddress>> out;
    for (auto it = ref.lower_bound({file, 0});
         it != ref.end() && it->first.first == file; ++it)
        out.emplace_back(it->first.second, it->second);
    return out;
}

/** Every observable of `map` agrees with `ref` over the key space. */
void
expectMatches(const InodeMap &map, const ReferenceMap &ref,
              FileId files, std::uint32_t blocks)
{
    std::set<FileId> mapped;
    for (const auto &[key, address] : ref)
        mapped.insert(key.first);
    EXPECT_EQ(map.blockCount(), ref.size());
    EXPECT_EQ(map.fileCount(), mapped.size());
    for (FileId file = 0; file < files; ++file) {
        EXPECT_EQ(map.blocksOf(file), referenceBlocks(ref, file))
            << "file " << file;
        for (std::uint32_t block = 0; block < blocks; ++block) {
            const auto it = ref.find({file, block});
            const auto got = map.locate(file, block);
            ASSERT_EQ(got.has_value(), it != ref.end())
                << "file " << file << " block " << block;
            if (got) {
                EXPECT_EQ(*got, it->second);
            }
        }
    }
}

TEST(InodeMap, MatchesOrderedReference)
{
    constexpr FileId kFiles = 6;
    constexpr std::uint32_t kBlocks = 48;
    util::Rng rng(2024);
    InodeMap map;
    InodeMap snapshot; // copy-assigned every third round, like a seal
    ReferenceMap ref;
    ReferenceMap snapshotRef;
    std::uint32_t nextSegment = 0;

    const auto pick = [&rng](std::uint64_t n) {
        return static_cast<std::uint32_t>(rng.uniformInt(0, n - 1));
    };
    const auto update = [&](FileId file, std::uint32_t block) {
        const SegmentAddress address{nextSegment, block};
        const auto it = ref.find({file, block});
        const auto old = map.update(file, block, address);
        ASSERT_EQ(old.has_value(), it != ref.end());
        if (old) {
            EXPECT_EQ(*old, it->second);
        }
        ref[{file, block}] = address;
    };

    for (int round = 0; round < 400; ++round) {
        ++nextSegment;
        const FileId file = pick(kFiles);
        switch (pick(6)) {
          case 0:
          case 1:
          case 2: {
            // A run of blocks written ascending, descending or in a
            // random order.
            const std::uint32_t lo = pick(kBlocks);
            const std::uint32_t hi = lo + 1 + pick(kBlocks - lo);
            std::vector<std::uint32_t> order;
            for (std::uint32_t b = lo; b < hi; ++b)
                order.push_back(b);
            const std::uint32_t how = pick(3);
            if (how == 1)
                std::reverse(order.begin(), order.end());
            for (std::size_t i = order.size(); how == 2 && i > 1; --i)
                std::swap(order[i - 1], order[pick(i)]);
            for (const std::uint32_t block : order)
                update(file, block);
            break;
          }
          case 3: {
            const auto expected = referenceBlocks(ref, file);
            const auto removed = map.removeFile(file);
            ASSERT_EQ(removed.size(), expected.size());
            for (std::size_t i = 0; i < removed.size(); ++i)
                EXPECT_EQ(removed[i], expected[i].second);
            ref.erase(ref.lower_bound({file, 0}),
                      ref.lower_bound({file + 1, 0}));
            break;
          }
          case 4: {
            // Truncate at 0, mid-file or past the end.
            const auto blocks = referenceBlocks(ref, file);
            const std::uint32_t where = pick(3);
            std::uint32_t first_dead = 0;
            if (where == 1 && !blocks.empty())
                first_dead = blocks[pick(blocks.size())].first;
            else if (where == 2)
                first_dead = kBlocks + pick(4);
            const auto dropped = map.truncate(file, first_dead);
            std::vector<SegmentAddress> expected;
            for (const auto &[block, address] : blocks) {
                if (block >= first_dead)
                    expected.push_back(address);
            }
            EXPECT_EQ(dropped, expected);
            ref.erase(ref.lower_bound({file, first_dead}),
                      ref.lower_bound({file + 1, 0}));
            break;
          }
          default:
            update(file, pick(kBlocks));
            break;
        }
        expectMatches(map, ref, kFiles, kBlocks);
        expectMatches(snapshot, snapshotRef, kFiles, kBlocks);
        if (round % 3 == 0) {
            snapshot = map;
            snapshotRef = ref;
        }

        // The same contents inserted in a different order compare
        // equal; one moved block makes them differ.
        std::vector<std::pair<FileId, std::uint32_t>> keys;
        for (const auto &[key, address] : ref)
            keys.push_back(key);
        for (std::size_t i = keys.size(); i > 1; --i)
            std::swap(keys[i - 1], keys[pick(i)]);
        InodeMap shuffled;
        for (const auto &[f, b] : keys)
            shuffled.update(f, b, ref.at({f, b}));
        EXPECT_TRUE(shuffled == map);
        EXPECT_TRUE(map == shuffled);
        if (!keys.empty()) {
            const auto &[f, b] = keys.front();
            shuffled.update(f, b, {nextSegment + 1, 0});
            EXPECT_FALSE(shuffled == map);
        } else {
            shuffled.update(0, 0, {0, 0});
            EXPECT_FALSE(shuffled == map);
        }
    }
}

TEST(LfsLog, ForcedSealIsPartial)
{
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, kBlockSize);
    EXPECT_EQ(log.pendingBytes(), kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync));
    EXPECT_EQ(log.pendingBytes(), 0u);

    const LogStats &stats = log.stats();
    EXPECT_EQ(stats.segmentsWritten, 1u);
    EXPECT_EQ(stats.partialSegments, 1u);
    EXPECT_EQ(stats.partialsByFsync, 1u);
    EXPECT_EQ(stats.fullSegments, 0u);
    EXPECT_EQ(stats.fsyncDataBytes, kBlockSize);
}

TEST(LfsLog, AutoSealOnFullSegment)
{
    LfsLog log(smallConfig());
    // 64 KB segment: metadata (4 KB) + summary leave room for ~14
    // blocks; writing 20 blocks must force at least one Full seal.
    for (std::uint32_t b = 0; b < 20; ++b)
        log.writeBlock(1, b, kBlockSize);
    EXPECT_GE(log.stats().fullSegments, 1u);
    EXPECT_EQ(log.stats().partialSegments, 0u);
    EXPECT_GT(log.pendingBytes(), 0u); // remainder still pending
}

TEST(LfsLog, SealOnEmptyLogIsNoop)
{
    LfsLog log(smallConfig());
    EXPECT_FALSE(log.seal(SealCause::Timeout));
    EXPECT_EQ(log.stats().segmentsWritten, 0u);
}

TEST(LfsLog, MetadataChargedPerFile)
{
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, kBlockSize);
    log.writeBlock(2, 0, kBlockSize);
    log.writeBlock(3, 0, kBlockSize);
    log.seal(SealCause::Timeout);
    const Segment &segment = log.segments().back();
    // One metadata block per distinct file plus the summary.
    EXPECT_EQ(segment.metadataBytes, 3 * kBlockSize);
    EXPECT_EQ(segment.summaryBytes, 512u);
    EXPECT_EQ(segment.dataBytes, 3 * kBlockSize);
}

TEST(LfsLog, PendingOverwriteCoalesces)
{
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, 1000);
    log.writeBlock(1, 0, 3000); // same block, more bytes
    EXPECT_EQ(log.pendingBytes(), 3000u);
    log.seal(SealCause::Timeout);
    EXPECT_EQ(log.segments().back().dataBytes, 3000u);
}

TEST(LfsLog, OverwriteDeadensOldCopy)
{
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Timeout);
    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Timeout);
    EXPECT_EQ(log.segments()[0].liveBytes, 0u);
    EXPECT_EQ(log.segments()[1].liveBytes, kBlockSize);
    ASSERT_NO_THROW(log.auditInvariants());
}

TEST(LfsLog, DeleteDropsPendingAndDeadensSealed)
{
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Timeout);
    log.writeBlock(1, 1, kBlockSize); // pending
    log.writeBlock(2, 0, kBlockSize); // pending, other file
    log.deleteFile(1);
    EXPECT_EQ(log.pendingBytes(), kBlockSize); // only file 2 remains
    EXPECT_EQ(log.segments()[0].liveBytes, 0u);
    EXPECT_FALSE(log.inodes().locate(1, 0).has_value());
    ASSERT_NO_THROW(log.auditInvariants());
}

TEST(LfsLog, TruncateKillsTailBlocks)
{
    LfsLog log(smallConfig());
    for (std::uint32_t b = 0; b < 4; ++b)
        log.writeBlock(1, b, kBlockSize);
    log.seal(SealCause::Timeout);
    log.truncate(1, 2 * kBlockSize + 1); // keeps blocks 0..2
    EXPECT_TRUE(log.inodes().locate(1, 2).has_value());
    EXPECT_FALSE(log.inodes().locate(1, 3).has_value());
    EXPECT_EQ(log.segments()[0].liveBytes, 3 * kBlockSize);
    ASSERT_NO_THROW(log.auditInvariants());
}

TEST(LfsLog, TruncateOfAnotherFileLeavesPendingBlocksIntact)
{
    // Regression: truncate used to move every surviving pending block
    // into a scratch vector before deciding whether the truncate
    // touched anything pending.  When it touched nothing, the scratch
    // vector was discarded and pending_ kept the moved-from blocks —
    // empty range sets with stale byte totals.  Unrelated truncates
    // silently wiped the open segment's dirty ranges.
    LfsLog log(smallConfig());
    log.writeBlock(9, 1, 819);
    ASSERT_EQ(log.pendingBytes(), 819u);

    log.truncate(3, 7425); // file 3 has nothing pending
    log.auditInvariants();
    EXPECT_EQ(log.pendingBytes(), 819u);

    // The pending data must still reach disk with its bytes.
    log.seal(SealCause::Fsync);
    EXPECT_EQ(log.stats().dataBytes, 819u);
    ASSERT_TRUE(log.inodes().locate(9, 1).has_value());
}

TEST(LfsLog, StatsDiskBytesAddUp)
{
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, 2048);
    log.seal(SealCause::Fsync);
    const LogStats &stats = log.stats();
    EXPECT_EQ(stats.diskBytes(),
              stats.dataBytes + stats.metadataBytes +
                  stats.summaryBytes);
    EXPECT_EQ(stats.dataBytes, 2048u);
    EXPECT_EQ(stats.metadataBytes, kBlockSize);
    EXPECT_EQ(stats.summaryBytes, 512u);
}

TEST(LfsLog, SealCauseNames)
{
    EXPECT_EQ(sealCauseName(SealCause::Full), "full");
    EXPECT_EQ(sealCauseName(SealCause::Fsync), "fsync");
    EXPECT_EQ(sealCauseName(SealCause::Timeout), "timeout");
    EXPECT_EQ(sealCauseName(SealCause::Cleaner), "cleaner");
}

// ------------------------------------------------------------ cleaner

TEST(Cleaner, ReclaimsDeadSegments)
{
    LfsLog log(smallConfig(32));
    // Write two segments of data and delete everything.
    for (std::uint32_t b = 0; b < 14; ++b)
        log.writeBlock(1, b, kBlockSize);
    log.seal(SealCause::Timeout);
    log.deleteFile(1);

    Cleaner cleaner;
    const CleanResult result = cleaner.clean(log, 31, true);
    EXPECT_GE(result.segmentsReclaimed, 1u);
    EXPECT_EQ(result.liveBytesCopied, 0u); // nothing was live
    ASSERT_NO_THROW(log.auditInvariants());
}

TEST(Cleaner, CopiesLiveDataForward)
{
    LfsLog log(smallConfig(32));
    for (std::uint32_t b = 0; b < 10; ++b)
        log.writeBlock(1, b, kBlockSize);
    log.seal(SealCause::Timeout);
    // Kill most, keep blocks 0 and 1 live.
    log.truncate(1, 2 * kBlockSize);

    Cleaner cleaner;
    const CleanResult result = cleaner.clean(log, 32, true);
    EXPECT_EQ(result.liveBytesCopied, 2 * kBlockSize);
    // The inode map now points into a cleaner segment.
    const auto address = log.inodes().locate(1, 0);
    ASSERT_TRUE(address.has_value());
    EXPECT_GT(address->segment, 0u);
    EXPECT_TRUE(log.segments()[0].reclaimed);
    EXPECT_GE(log.stats().cleanerSegments, 1u);
    ASSERT_NO_THROW(log.auditInvariants());
}

TEST(Cleaner, MaybeCleanIdleAboveLowWater)
{
    LfsLog log(smallConfig(100));
    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Timeout);
    Cleaner cleaner;
    const CleanResult result = cleaner.maybeClean(log);
    EXPECT_EQ(result.segmentsReclaimed, 0u);
}

TEST(Cleaner, UnboundedDiskNoopWithoutForce)
{
    LfsLog log(smallConfig(0));
    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Timeout);
    log.deleteFile(1);
    Cleaner cleaner;
    EXPECT_EQ(cleaner.clean(log, 10).segmentsReclaimed, 0u);
}

// ----------------------------------------------------------- recovery

TEST(Recovery, RollForwardRebuildsInodeMap)
{
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, kBlockSize);
    log.writeBlock(1, 1, 2000);
    log.seal(SealCause::Timeout);
    log.writeBlock(2, 0, kBlockSize);
    log.seal(SealCause::Fsync);

    const RecoveryResult result = rollForward(log);
    EXPECT_TRUE(result.inodes == log.inodes());
    EXPECT_EQ(result.segmentsReplayed, 2u);
}

TEST(Recovery, UnsealedDataIsLost)
{
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Timeout);
    log.writeBlock(2, 0, kBlockSize); // never sealed: lost in a crash

    const RecoveryResult result = rollForward(log);
    EXPECT_TRUE(result.inodes.locate(1, 0).has_value());
    EXPECT_FALSE(result.inodes.locate(2, 0).has_value());
}

TEST(Recovery, ReplaysDeletes)
{
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Timeout);
    log.deleteFile(1);
    log.writeBlock(2, 0, kBlockSize); // carries the delete record
    log.seal(SealCause::Timeout);

    const RecoveryResult result = rollForward(log);
    EXPECT_TRUE(result.inodes == log.inodes());
    EXPECT_FALSE(result.inodes.locate(1, 0).has_value());
    EXPECT_GE(result.metaOpsReplayed, 1u);
}

TEST(Recovery, WriteDeleteRewriteWithinOneSegment)
{
    // The tricky interleaving: write A, delete the file, write B to
    // the same block, all before one seal.  Recovery must keep B.
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, 1000);
    log.deleteFile(1);
    log.writeBlock(1, 0, 2000);
    log.seal(SealCause::Timeout);

    const RecoveryResult result = rollForward(log);
    EXPECT_TRUE(result.inodes == log.inodes());
    ASSERT_TRUE(result.inodes.locate(1, 0).has_value());
}

TEST(Recovery, WriteThenDeleteWithinOneSegment)
{
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, 1000);
    log.deleteFile(1);
    log.writeBlock(2, 0, 500);
    log.seal(SealCause::Timeout);

    const RecoveryResult result = rollForward(log);
    EXPECT_TRUE(result.inodes == log.inodes());
    EXPECT_FALSE(result.inodes.locate(1, 0).has_value());
}

TEST(Recovery, CheckpointShortensReplay)
{
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Timeout);
    const Checkpoint checkpoint = log.takeCheckpoint();
    log.writeBlock(2, 0, kBlockSize);
    log.seal(SealCause::Timeout);

    const RecoveryResult result = rollForward(log, &checkpoint);
    EXPECT_TRUE(result.inodes == log.inodes());
    EXPECT_EQ(result.segmentsReplayed,
              log.segments().size() - checkpoint.nextSegment);
}

TEST(Recovery, AfterCleaningStillConsistent)
{
    LfsLog log(smallConfig(32));
    for (std::uint32_t b = 0; b < 10; ++b)
        log.writeBlock(1, b, kBlockSize);
    log.seal(SealCause::Timeout);
    log.truncate(1, 3 * kBlockSize);
    Cleaner cleaner;
    cleaner.clean(log, 32, true);
    // Persist the truncate record with a follow-up segment.
    log.writeBlock(3, 0, kBlockSize);
    log.seal(SealCause::Timeout);

    const RecoveryResult result = rollForward(log);
    EXPECT_TRUE(result.inodes == log.inodes());
}

TEST(LfsLog, WriteBlockRangeUnionsDisjointHalves)
{
    // Two disjoint halves staged into one open segment must occupy
    // the whole block, not max(half, half).
    LfsLog log(smallConfig());
    log.writeBlockRange(1, 0, 0, 2048);
    log.writeBlockRange(1, 0, 2048, 4096);
    EXPECT_EQ(log.pendingBytes(), 4096u);
    log.seal(SealCause::Timeout);
    EXPECT_EQ(log.segments().back().dataBytes, 4096u);
}

TEST(LfsLog, WriteBlockRangeOverlapCountsOnce)
{
    LfsLog log(smallConfig());
    log.writeBlockRange(1, 0, 0, 3000);
    log.writeBlockRange(1, 0, 1000, 2000); // fully inside
    EXPECT_EQ(log.pendingBytes(), 3000u);
}

TEST(LfsLog, FreeSegmentsTracksActive)
{
    LfsLog log(smallConfig(4));
    EXPECT_EQ(log.freeSegments(), 4u);
    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Timeout);
    EXPECT_EQ(log.freeSegments(), 3u);
    EXPECT_EQ(log.activeSegments(), 1u);
    log.deleteFile(1);
    Cleaner cleaner;
    cleaner.clean(log, 4, true);
    EXPECT_EQ(log.freeSegments(), 4u);
}

TEST(LfsLog, SegmentUtilizationReflectsLiveFraction)
{
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, kBlockSize);
    log.writeBlock(1, 1, kBlockSize);
    log.seal(SealCause::Timeout);
    EXPECT_DOUBLE_EQ(log.segments()[0].utilization(), 1.0);
    log.writeBlock(1, 0, kBlockSize); // supersede half
    log.seal(SealCause::Timeout);
    EXPECT_DOUBLE_EQ(log.segments()[0].utilization(), 0.5);
}

} // namespace
} // namespace nvfs::lfs


/**
 * @file
 * Fault-injection tests (nvfs::check): torn segment writes, power
 * failures mid-seal, dropped NVRAM writes, and the recovery
 * guarantees the paper's reliability argument rests on — after any
 * injected fault, roll-forward rebuilds a consistent inode map and
 * loses at most the data that was never made durable.  Each fault is
 * armed through the production crash-site seam (ArmedSiteHook).
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "armed_site_hook.hpp"
#include "lfs/log.hpp"
#include "lfs/recovery.hpp"
#include "nvram/device.hpp"
#include "server/file_server.hpp"
#include "util/audit.hpp"

namespace nvfs::lfs {

/** Test-only peer: corrupts log internals to prove the audits fire. */
class AuditTestPeer
{
  public:
    static void corruptStats(LfsLog &log) { ++log.stats_.dataBytes; }

    static void corruptLiveBytes(LfsLog &log)
    {
        ++log.segments_.back().liveBytes;
    }

    static void dropJournal(LfsLog &log) { log.journals_.pop_back(); }

    /** Point the inode map's entry for (file, block) at `address`. */
    static void
    repoint(LfsLog &log, FileId file, std::uint32_t block,
            SegmentAddress address)
    {
        log.inodes_.update(file, block, address);
    }

    /** Set an entry's live flag, moving its segment's liveBytes to
     *  match so only the inode-map correspondence is broken. */
    static void
    setLive(LfsLog &log, SegmentAddress address, bool live)
    {
        Segment &segment = log.segments_[address.segment];
        SegmentEntry &entry = segment.entries[address.slot];
        ASSERT_NE(entry.live, live);
        entry.live = live;
        if (live)
            segment.liveBytes += entry.bytes;
        else
            segment.liveBytes -= entry.bytes;
    }
};

namespace {

using nvram::CrashAction;
using nvram::CrashSiteKind;
using nvram::NvramDevice;

LfsConfig
smallConfig()
{
    LfsConfig config;
    config.segmentBytes = 64 * kKiB;
    return config;
}

// --------------------------------------------------- torn seg writes

TEST(FaultInjection, TornFinalSegmentLosesOnlyItsOwnData)
{
    // Two good seals, then the final segment write is torn: its
    // summary never reaches the disk.  Recovery must stop there,
    // keeping everything sealed before the tear.
    LfsLog log(smallConfig());
    ArmedSiteHook tear(CrashSiteKind::SealCommit, 3, CrashAction::Torn);
    log.setCrashHook(&tear);

    log.writeBlock(1, 0, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync));
    log.writeBlock(2, 0, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync));
    log.writeBlock(3, 0, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync)); // torn: host can't tell
    EXPECT_TRUE(tear.fired());
    EXPECT_TRUE(log.segments().back().torn);

    const RecoveryResult result = rollForward(log);
    EXPECT_TRUE(result.stoppedAtTornSegment);
    EXPECT_EQ(result.segmentsReplayed, 2u);
    // Everything durable before the tear survives...
    EXPECT_TRUE(result.inodes.locate(1, 0).has_value());
    EXPECT_TRUE(result.inodes.locate(2, 0).has_value());
    // ...and exactly the torn segment's data is lost.
    EXPECT_FALSE(result.inodes.locate(3, 0).has_value());
    EXPECT_EQ(result.inodes.blockCount(), 2u);
}

TEST(FaultInjection, TornMiddleSegmentTruncatesTheLog)
{
    // A tear in the middle: later segments were written after the
    // torn one, but recovery cannot parse past the missing summary —
    // the log effectively ends at the tear.
    LfsLog log(smallConfig());
    ArmedSiteHook tear(CrashSiteKind::SealCommit, 2, CrashAction::Torn);
    log.setCrashHook(&tear);

    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Fsync);
    log.writeBlock(2, 0, kBlockSize);
    log.seal(SealCause::Fsync); // torn
    log.writeBlock(3, 0, kBlockSize);
    log.seal(SealCause::Fsync); // written, but unreachable

    const RecoveryResult result = rollForward(log);
    EXPECT_TRUE(result.stoppedAtTornSegment);
    EXPECT_EQ(result.segmentsReplayed, 1u);
    EXPECT_TRUE(result.inodes.locate(1, 0).has_value());
    EXPECT_FALSE(result.inodes.locate(2, 0).has_value());
    EXPECT_FALSE(result.inodes.locate(3, 0).has_value());
}

TEST(FaultInjection, TornWriteGoesUndetectedUntilRecovery)
{
    // The pre-nvfs::check behavior: the in-memory state after a torn
    // seal is indistinguishable from a successful one — stats,
    // invariants, and the live inode map all look perfectly healthy.
    // Only replaying recovery exposes the loss.
    LfsLog log(smallConfig());
    ArmedSiteHook tear(CrashSiteKind::SealCommit, 1, CrashAction::Torn);
    log.setCrashHook(&tear);
    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Fsync);

    // The host's view: everything succeeded.
    EXPECT_NO_THROW(log.auditInvariants());
    EXPECT_TRUE(log.inodes().locate(1, 0).has_value());
    EXPECT_EQ(log.stats().segmentsWritten, 1u);

    // The disk's view: the data is gone.
    const RecoveryResult result = rollForward(log);
    EXPECT_TRUE(result.stoppedAtTornSegment);
    EXPECT_EQ(result.inodes.blockCount(), 0u);
    EXPECT_FALSE(result.inodes == log.inodes());
}

// ------------------------------------------------------ power failure

TEST(FaultInjection, PowerFailDropsTheOpenSegment)
{
    LfsLog log(smallConfig());
    ArmedSiteHook power(CrashSiteKind::SealBegin, 2,
                        CrashAction::PowerFail);
    log.setCrashHook(&power);

    log.writeBlock(1, 0, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync));
    log.writeBlock(2, 0, kBlockSize);
    EXPECT_FALSE(log.seal(SealCause::Fsync)); // power died
    EXPECT_TRUE(power.fired());

    // Nothing half-written: the open segment's volatile contents are
    // simply gone and the log is still internally consistent.
    EXPECT_EQ(log.pendingBytes(), 0u);
    EXPECT_EQ(log.segments().size(), 1u);
    EXPECT_NO_THROW(log.auditInvariants());

    // Recovery agrees with the survivor's in-memory map: only the
    // unsynced tail was lost.
    const RecoveryResult result = rollForward(log);
    EXPECT_FALSE(result.stoppedAtTornSegment);
    EXPECT_TRUE(result.inodes == log.inodes());
    EXPECT_TRUE(result.inodes.locate(1, 0).has_value());
    EXPECT_FALSE(result.inodes.locate(2, 0).has_value());
}

TEST(FaultInjection, LogStaysUsableAfterPowerFail)
{
    LfsLog log(smallConfig());
    ArmedSiteHook power(CrashSiteKind::SealBegin, 1,
                        CrashAction::PowerFail);
    log.setCrashHook(&power);

    log.writeBlock(1, 0, kBlockSize);
    EXPECT_FALSE(log.seal(SealCause::Fsync));

    // Post-recovery the log keeps working: new writes seal fine.
    log.writeBlock(1, 1, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync));
    EXPECT_NO_THROW(log.auditInvariants());
    const RecoveryResult result = rollForward(log);
    EXPECT_TRUE(result.inodes == log.inodes());
    EXPECT_TRUE(result.inodes.locate(1, 1).has_value());
    EXPECT_FALSE(result.inodes.locate(1, 0).has_value());
}

// -------------------------------------------------- NVRAM device drop

TEST(FaultInjection, DeviceDropKeepsPreviousContents)
{
    NvramDevice device;
    ArmedSiteHook drop(CrashSiteKind::DevicePut, 2, CrashAction::Drop);
    device.setCrashHook(&drop);

    EXPECT_TRUE(device.put(7, 100));
    EXPECT_FALSE(device.put(7, 500)); // dropped mid-write
    EXPECT_TRUE(drop.fired());

    // The old value survives — a dropped write must not tear the tag.
    const auto stored = device.get(7);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(*stored, 100u);
    EXPECT_EQ(device.usedBytes(), 100u);
    // The attempt still cost a write access.
    EXPECT_EQ(device.writeAccesses(), 2u);
}

// ------------------------------------------- faults in a whole server

TEST(FaultInjection, ServerHookTearsAcrossLogsAndDropsLedgerPuts)
{
    // A buffered two-file-system server with one hook: the second
    // seal commit counted across both logs tears (fs1's first
    // segment), and the third put counted across both ledgers drops.
    server::ServerConfig config;
    config.lfs.segmentBytes = 64 * kKiB;
    config.nvramBufferBytes = 512 * kKiB;
    server::FileServer srv({"fs0", "fs1"}, config);
    ArmedSiteHook drop(CrashSiteKind::DevicePut, 3, CrashAction::Drop);
    ArmedSiteHook tear(CrashSiteKind::SealCommit, 2, CrashAction::Torn,
                       &drop);
    srv.setCrashHook(&tear);

    using Op = workload::ServerOp;
    const std::vector<Op> ops = {
        // Aged out by the 35 s sweep: put 1 (fs0) and seal commit 1,
        // then put 2 (fs1) and seal commit 2, which tears.
        {1 * kUsPerSecond, 0, 1, 0, kBlockSize, Op::Kind::Write},
        {2 * kUsPerSecond, 1, 2, 0, kBlockSize, Op::Kind::Write},
        // fsyncs absorbed by fs1's buffer: put 3 drops, put 4 lands.
        {40 * kUsPerSecond, 1, 2, kBlockSize, kBlockSize,
         Op::Kind::Write},
        {40 * kUsPerSecond, 1, 2, 0, 0, Op::Kind::Fsync},
        {41 * kUsPerSecond, 1, 2, 2 * kBlockSize, kBlockSize,
         Op::Kind::Write},
        {41 * kUsPerSecond, 1, 2, 0, 0, Op::Kind::Fsync},
    };
    // Stop once every op ran, before the drain seals the ledgers away.
    std::size_t polls = 0;
    srv.run(ops, [&] { return ++polls > ops.size(); });
    EXPECT_TRUE(tear.fired());
    EXPECT_TRUE(drop.fired());

    ASSERT_EQ(srv.log(0).segments().size(), 1u);
    ASSERT_EQ(srv.log(1).segments().size(), 1u);
    EXPECT_FALSE(srv.log(0).segments()[0].torn);
    EXPECT_TRUE(srv.log(1).segments()[0].torn);
    EXPECT_TRUE(rollForward(srv.log(0)).inodes.locate(1, 0).has_value());
    const RecoveryResult torn = rollForward(srv.log(1));
    EXPECT_TRUE(torn.stoppedAtTornSegment);
    EXPECT_EQ(torn.inodes.blockCount(), 0u);

    // The dropped put left no tag; the puts around it landed.
    const NvramDevice &ledger = *srv.nvramDevice(1);
    const auto tag = [](FileId file, std::uint32_t block) {
        return (static_cast<std::uint64_t>(file) << 32) | block;
    };
    EXPECT_FALSE(ledger.holds(tag(2, 1)));
    EXPECT_TRUE(ledger.holds(tag(2, 2)));
    EXPECT_EQ(ledger.writeAccesses(), 3u);
    EXPECT_EQ(srv.nvramDevice(0)->writeAccesses(), 1u);
    EXPECT_NO_THROW(srv.auditInvariants());
}

// ------------------------------------------- audits catch corruption

TEST(AuditDetection, CorruptedStatsThrow)
{
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Fsync);
    EXPECT_NO_THROW(log.auditInvariants());

    AuditTestPeer::corruptStats(log);
    EXPECT_THROW(log.auditInvariants(), util::AuditError);
}

TEST(AuditDetection, CorruptedLiveBytesThrow)
{
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Fsync);

    AuditTestPeer::corruptLiveBytes(log);
    EXPECT_THROW(log.auditInvariants(), util::AuditError);
}

TEST(AuditDetection, MissingJournalThrows)
{
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Fsync);

    AuditTestPeer::dropJournal(log);
    EXPECT_THROW(log.auditInvariants(), util::AuditError);
}

/**
 * Block (1, 0) written twice, leaving a dead copy at {0, 0} and the
 * live one at {1, 0}, plus block (1, 1) live at {1, 1}.
 */
LfsLog
rewrittenLog()
{
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Fsync);
    log.writeBlock(1, 0, kBlockSize);
    log.writeBlock(1, 1, kBlockSize);
    log.seal(SealCause::Fsync);
    return log;
}

/** The audit's message, or "" when it passes. */
std::string
auditMessage(const LfsLog &log)
{
    try {
        log.auditInvariants();
    } catch (const util::AuditError &error) {
        return error.what();
    }
    return "";
}

TEST(AuditDetection, MapEntryAtDeadOlderCopyThrows)
{
    LfsLog log = rewrittenLog();
    ASSERT_FALSE(log.segments()[0].entries[0].live);
    EXPECT_EQ(auditMessage(log), "");

    AuditTestPeer::repoint(log, 1, 0, {0, 0});
    EXPECT_THROW(log.auditInvariants(), util::AuditError);
    EXPECT_NE(auditMessage(log).find("stale liveness"), std::string::npos);
}

TEST(AuditDetection, ClearedLiveFlagThrows)
{
    LfsLog log = rewrittenLog();
    AuditTestPeer::setLive(log, {1, 1}, false);
    EXPECT_THROW(log.auditInvariants(), util::AuditError);
    EXPECT_NE(auditMessage(log).find("stale liveness"), std::string::npos);
}

TEST(AuditDetection, RevivedDeadCopyThrows)
{
    LfsLog log = rewrittenLog();
    AuditTestPeer::setLive(log, {0, 0}, true);
    EXPECT_THROW(log.auditInvariants(), util::AuditError);
    EXPECT_NE(auditMessage(log).find("population"), std::string::npos);
}

TEST(AuditDetection, MapEntryAtAnotherBlocksCopyThrows)
{
    // Both map entries name {1, 0}, a live copy, and the populations
    // still agree: only the file-and-block comparison can tell.
    LfsLog log = rewrittenLog();
    AuditTestPeer::repoint(log, 1, 1, {1, 0});
    EXPECT_THROW(log.auditInvariants(), util::AuditError);
    EXPECT_NE(auditMessage(log).find("stale liveness"), std::string::npos);
}

TEST(AuditDetection, CheckInvariantsStillPassesOnHealthyLog)
{
    LfsLog log(smallConfig());
    for (std::uint32_t b = 0; b < 20; ++b)
        log.writeBlock(1, b, kBlockSize);
    log.deleteFile(1);
    log.writeBlock(2, 0, 1000);
    log.seal(SealCause::Timeout);
    log.truncate(2, 500);
    EXPECT_NO_THROW(log.auditInvariants());
}

} // namespace
} // namespace nvfs::lfs

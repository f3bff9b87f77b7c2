/**
 * @file
 * Fault-injection tests (nvfs::check): torn segment writes, power
 * failures mid-seal, dropped NVRAM writes, and the recovery
 * guarantees the paper's reliability argument rests on — after any
 * injected fault, roll-forward rebuilds a consistent inode map and
 * loses at most the data that was never made durable.
 */

#include <string>

#include <gtest/gtest.h>

#include "lfs/log.hpp"
#include "lfs/recovery.hpp"
#include "nvram/device.hpp"
#include "nvram/fault.hpp"
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

using nvram::FaultEvent;
using nvram::FaultPlan;
using nvram::NvramDevice;

LfsConfig
smallConfig()
{
    LfsConfig config;
    config.segmentBytes = 64 * kKiB;
    return config;
}

// ------------------------------------------------- FaultPlan parsing

TEST(FaultPlan, ParsesSpec)
{
    const auto plan =
        FaultPlan::fromSpec("torn-seal:2,power-fail:5,device-drop:1");
    ASSERT_TRUE(plan.has_value());
    FaultPlan mutable_plan = *plan;
    EXPECT_EQ(mutable_plan.onSeal(), nvram::SealFault::None);
    EXPECT_EQ(mutable_plan.onSeal(), nvram::SealFault::Torn);
    EXPECT_TRUE(mutable_plan.onDeviceWrite());
    EXPECT_FALSE(mutable_plan.onDeviceWrite());
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    EXPECT_FALSE(FaultPlan::fromSpec("torn-seal").has_value());
    EXPECT_FALSE(FaultPlan::fromSpec("torn-seal:x").has_value());
    EXPECT_FALSE(FaultPlan::fromSpec("torn-seal:0").has_value());
    EXPECT_FALSE(FaultPlan::fromSpec("torn-seal:-3").has_value());
    EXPECT_FALSE(FaultPlan::fromSpec("torn-seal:2x").has_value());
    EXPECT_FALSE(FaultPlan::fromSpec("meteor-strike:1").has_value());
    // Empty specs / items are benign: a plan with nothing armed.
    EXPECT_TRUE(FaultPlan::fromSpec("").has_value());
    EXPECT_TRUE(
        FaultPlan::fromSpec("torn-seal:1,,power-fail:2").has_value());
}

TEST(FaultPlan, FromEnvReadsNvfsFaults)
{
    ::setenv("NVFS_FAULTS", "power-fail:3", 1);
    const auto plan = FaultPlan::fromEnv();
    ::unsetenv("NVFS_FAULTS");
    ASSERT_TRUE(plan.has_value());
    EXPECT_FALSE(FaultPlan::fromEnv().has_value());
}

TEST(FaultPlan, RecordsFiredEvents)
{
    FaultPlan plan;
    plan.tearSealAt(2);
    EXPECT_FALSE(plan.anyFired());
    plan.onSeal();
    plan.onSeal();
    ASSERT_EQ(plan.fired().size(), 1u);
    EXPECT_EQ(plan.fired()[0],
              (FaultEvent{FaultEvent::Kind::TornSeal, 2}));
    EXPECT_EQ(plan.sealsSeen(), 2u);
}

TEST(FaultPlan, NvfsFaultsArmsTheFileServer)
{
    // NVFS_FAULTS must reach real drivers, not just unit tests: a
    // FileServer constructed with it set arms every log.
    ::setenv("NVFS_FAULTS", "torn-seal:1", 1);
    server::ServerConfig config;
    config.lfs.segmentBytes = 64 * kKiB;
    server::FileServer srv({"fs0"}, config);
    ::unsetenv("NVFS_FAULTS");

    LfsLog &log = srv.log(0);
    log.writeBlock(1, 0, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync));
    EXPECT_TRUE(log.faultFired());
    EXPECT_TRUE(log.segments().back().torn);

    // Unset env arms nothing.
    server::FileServer clean({"fs0"}, config);
    clean.log(0).writeBlock(1, 0, kBlockSize);
    EXPECT_TRUE(clean.log(0).seal(SealCause::Fsync));
    EXPECT_FALSE(clean.log(0).faultFired());
}

// --------------------------------------------------- torn seg writes

TEST(FaultInjection, TornFinalSegmentLosesOnlyItsOwnData)
{
    // Two good seals, then the final segment write is torn: its
    // summary never reaches the disk.  Recovery must stop there,
    // keeping everything sealed before the tear.
    LfsLog log(smallConfig());
    FaultPlan plan;
    plan.tearSealAt(3);
    log.setFaultPlan(&plan);

    log.writeBlock(1, 0, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync));
    log.writeBlock(2, 0, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync));
    log.writeBlock(3, 0, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync)); // torn: host can't tell
    EXPECT_TRUE(log.faultFired());
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
    FaultPlan plan;
    plan.tearSealAt(2);
    log.setFaultPlan(&plan);

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

TEST(FaultInjection, TornWriteGoesUndetectedWithoutTheFaultPlan)
{
    // The pre-nvfs::check behavior: the in-memory state after a torn
    // seal is indistinguishable from a successful one — stats,
    // invariants, and the live inode map all look perfectly healthy.
    // Only replaying recovery (or arming the plan) exposes the loss.
    LfsLog log(smallConfig());
    FaultPlan plan;
    plan.tearSealAt(1);
    log.setFaultPlan(&plan);
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
    FaultPlan plan;
    plan.powerFailAt(2);
    log.setFaultPlan(&plan);

    log.writeBlock(1, 0, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync));
    log.writeBlock(2, 0, kBlockSize);
    EXPECT_FALSE(log.seal(SealCause::Fsync)); // power died
    EXPECT_TRUE(log.faultFired());

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
    FaultPlan plan;
    plan.powerFailAt(1);
    log.setFaultPlan(&plan);

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
    FaultPlan plan;
    plan.dropDeviceWriteAt(2);
    device.setFaultPlan(&plan);

    EXPECT_TRUE(device.put(7, 100));
    EXPECT_FALSE(device.put(7, 500)); // dropped mid-write
    EXPECT_TRUE(plan.anyFired());

    // The old value survives — a dropped write must not tear the tag.
    const auto stored = device.get(7);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(*stored, 100u);
    EXPECT_EQ(device.usedBytes(), 100u);
    // The attempt still cost a write access.
    EXPECT_EQ(device.writeAccesses(), 2u);
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
    log.checkInvariants(); // panic-wrapper flavor stays callable
}

} // namespace
} // namespace nvfs::lfs

/**
 * @file
 * Crash-schedule explorer tests (nvfs::crash): site census over every
 * durable transition, per-mode crashes with their loss semantics, the
 * durability oracle (including the two deliberate-corruption tests
 * that prove it is not vacuous), recovery idempotence, quarantining
 * recovery's damage accounting, the NVRAM write-buffer ledger, env
 * knob parsing, delta-debug shrinking, and explore()'s forked crashes
 * against replays from scratch at every NVFS_JOBS width.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "check/shrink.hpp"
#include "core/sim/experiments.hpp"
#include "crash/explore.hpp"
#include "crash/registry.hpp"
#include "lfs/log.hpp"
#include "lfs/recovery.hpp"
#include "nvram/crash_site.hpp"
#include "nvram/device.hpp"
#include "scoped_env.hpp"
#include "server/file_server.hpp"

namespace nvfs::lfs {

/** Test-only peer: corrupts durable state to prove the crash oracle
 *  catches mutations (a vacuously-passing checker would miss both). */
class CrashTestPeer
{
  public:
    /** Point one Write journal record of segment `id` at a block the
     *  segment never held — recovery silently drops the block. */
    static void
    corruptJournalRecord(LfsLog &log, std::uint32_t id)
    {
        for (JournalRecord &record : log.journals_.at(id)) {
            if (record.kind == JournalRecord::Kind::Write) {
                record.block += 9999;
                return;
            }
        }
        FAIL() << "segment " << id << " has no Write journal record";
    }

    /** Append a second copy of segment `id`'s first data entry, as
     *  if the segment held that block twice. */
    static void
    repeatFirstDataEntry(LfsLog &log, std::uint32_t id)
    {
        std::vector<SegmentEntry> &entries = log.segments_.at(id).entries;
        for (const SegmentEntry &entry : entries) {
            if (entry.kind == EntryKind::Data) {
                const SegmentEntry copy = entry;
                entries.push_back(copy);
                return;
            }
        }
        FAIL() << "segment " << id << " has no data entry";
    }

    /** Fail segment `id`'s summary checksum (media corruption). */
    static void
    corruptSealedSegment(LfsLog &log, std::uint32_t id)
    {
        log.segments_.at(id).corrupt = true;
    }
};

} // namespace nvfs::lfs

namespace nvfs {
namespace {

using crash::CrashSiteRegistry;
using lfs::CrashTestPeer;
using nvram::CrashAction;
using nvram::CrashSiteKind;
using workload::ServerOp;

lfs::LfsConfig
smallConfig()
{
    lfs::LfsConfig config;
    config.segmentBytes = 64 * kKiB;
    return config;
}

std::uint64_t
countOf(const CrashSiteRegistry &registry, CrashSiteKind kind)
{
    return registry.sitesByKind()[static_cast<std::size_t>(kind)];
}

/** A small, time-sorted server workload with writes and fsyncs. */
std::vector<ServerOp>
smallWorkload()
{
    std::vector<ServerOp> ops;
    TimeUs t = kUsPerSecond;
    for (FileId file = 1; file <= 3; ++file) {
        for (std::uint32_t block = 0; block < 4; ++block) {
            ops.push_back({t, 0, file,
                           static_cast<Bytes>(block) * kBlockSize,
                           kBlockSize, ServerOp::Kind::Write});
            t += kUsPerSecond;
        }
        ops.push_back({t, 0, file, 0, 0, ServerOp::Kind::Fsync});
        t += kUsPerSecond;
    }
    return ops;
}

// ------------------------------------------------------- site census

TEST(CrashSiteCensus, CountsEveryDurableTransition)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize);             // JournalAppend
    log.writeBlock(1, 1, kBlockSize);             // JournalAppend
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync)); // Begin+2*Inode+Commit
    log.deleteFile(1);                            // JournalAppend
    log.writeBlock(2, 0, kBlockSize);             // JournalAppend
    log.truncate(2, 0);                           // JournalAppend
    log.takeCheckpoint(); // Checkpoint + Begin+Commit (journal-only)

    EXPECT_EQ(countOf(registry, CrashSiteKind::JournalAppend), 5u);
    EXPECT_EQ(countOf(registry, CrashSiteKind::SealBegin), 2u);
    EXPECT_EQ(countOf(registry, CrashSiteKind::InodeUpdate), 2u);
    EXPECT_EQ(countOf(registry, CrashSiteKind::SealCommit), 2u);
    EXPECT_EQ(countOf(registry, CrashSiteKind::Checkpoint), 1u);
    EXPECT_EQ(countOf(registry, CrashSiteKind::DevicePut), 0u);
    EXPECT_EQ(registry.sitesSeen(), 12u);
    EXPECT_FALSE(registry.crash().has_value());
    EXPECT_FALSE(registry.dead());
}

TEST(CrashSiteCensus, CountsDevicePuts)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    nvram::NvramDevice device;
    device.setCrashHook(&registry);
    registry.track(log, &device);

    EXPECT_TRUE(device.put(7, kBlockSize));
    EXPECT_TRUE(device.put(8, kBlockSize));
    EXPECT_EQ(countOf(registry, CrashSiteKind::DevicePut), 2u);
}

TEST(CrashSiteCensus, SnapshotsInodesAtEverySealCommit)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    EXPECT_TRUE(registry.tracked().front().sealedSnapshot ==
                log.inodes());

    log.writeBlock(1, 1, kBlockSize);
    // Unsealed: the snapshot still reflects the first commit only.
    EXPECT_EQ(registry.tracked().front().sealedSnapshot.blockCount(),
              1u);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    EXPECT_EQ(registry.tracked().front().sealedSnapshot.blockCount(),
              2u);
}

// ------------------------------------------------- per-mode crashes

TEST(CrashModes, PowerFailAtJournalAppendLosesOnlyThatWrite)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize); // site 1
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync)); // sites 2..4

    registry.armCrash(5);
    log.writeBlock(1, 1, kBlockSize); // crashes here, write lost
    ASSERT_TRUE(registry.crash().has_value());
    EXPECT_EQ(registry.crash()->kind, CrashSiteKind::JournalAppend);
    EXPECT_EQ(registry.crash()->action, CrashAction::PowerFail);
    EXPECT_TRUE(log.crashed());
    EXPECT_EQ(log.pendingBytes(), 0u);

    // Post-crash operations are no-ops on the dead host.
    log.writeBlock(2, 0, kBlockSize);
    EXPECT_EQ(log.pendingBytes(), 0u);
    EXPECT_FALSE(log.seal(lfs::SealCause::Fsync));

    EXPECT_EQ(crash::verifyDurability(registry), std::nullopt);
}

TEST(CrashModes, PowerFailAtSealBeginDropsTheOpenSegment)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize); // site 1
    registry.armCrash(2);             // the SealBegin
    EXPECT_FALSE(log.seal(lfs::SealCause::Fsync));
    ASSERT_TRUE(registry.crash().has_value());
    EXPECT_EQ(registry.crash()->kind, CrashSiteKind::SealBegin);
    EXPECT_TRUE(log.segments().empty());

    // The registry froze the pending set before the seal cleared it.
    const auto &fs = registry.tracked().front();
    ASSERT_EQ(fs.pendingAtCrash.size(), 1u);
    EXPECT_EQ(fs.pendingAtCrash.front(),
              (std::pair<FileId, std::uint32_t>{1, 0}));

    EXPECT_EQ(crash::verifyDurability(registry), std::nullopt);
}

TEST(CrashModes, TornAtSealCommitMarksTheSegment)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync)); // sites 2..4
    log.writeBlock(1, 1, kBlockSize);             // site 5
    registry.armCrash(8); // second seal's SealCommit
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    ASSERT_TRUE(registry.crash().has_value());
    EXPECT_EQ(registry.crash()->kind, CrashSiteKind::SealCommit);
    EXPECT_EQ(registry.crash()->action, CrashAction::Torn);
    EXPECT_EQ(registry.crash()->detail, log.segments().back().id);
    EXPECT_TRUE(log.segments().back().torn);

    // Strict recovery ends before the torn segment: only the first
    // commit's block is durable, exactly the oracle's snapshot.
    const auto strict = lfs::rollForward(log);
    EXPECT_TRUE(strict.stoppedAtTornSegment);
    EXPECT_EQ(strict.inodes.blockCount(), 1u);
    EXPECT_EQ(crash::verifyDurability(registry), std::nullopt);
}

TEST(CrashModes, TornAtInodeUpdateMarksTheSegment)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize); // site 1
    registry.armCrash(3);             // first InodeUpdate of the seal
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    ASSERT_TRUE(registry.crash().has_value());
    EXPECT_EQ(registry.crash()->kind, CrashSiteKind::InodeUpdate);
    EXPECT_TRUE(log.segments().back().torn);
    EXPECT_EQ(crash::verifyDurability(registry), std::nullopt);
}

TEST(CrashModes, PowerFailAtCheckpointYieldsEmptySnapshot)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize); // site 1
    registry.armCrash(2);             // the Checkpoint site
    const lfs::Checkpoint cp = log.takeCheckpoint();
    ASSERT_TRUE(registry.crash().has_value());
    EXPECT_EQ(registry.crash()->kind, CrashSiteKind::Checkpoint);
    EXPECT_EQ(cp.nextSegment, 0u);
    EXPECT_EQ(cp.inodes.blockCount(), 0u);
    EXPECT_EQ(crash::verifyDurability(registry), std::nullopt);
}

TEST(CrashModes, DropAtDevicePutNeverCommits)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    nvram::NvramDevice device;
    device.setCrashHook(&registry);
    registry.track(log, &device);

    EXPECT_TRUE(device.put(7, kBlockSize)); // site 1
    registry.armCrash(2);
    EXPECT_FALSE(device.put(8, kBlockSize)); // dropped mid-write
    ASSERT_TRUE(registry.crash().has_value());
    EXPECT_EQ(registry.crash()->kind, CrashSiteKind::DevicePut);
    EXPECT_EQ(registry.crash()->action, CrashAction::Drop);
    EXPECT_EQ(registry.crash()->detail, 8u);
    EXPECT_TRUE(device.holds(7)); // previous contents intact
    EXPECT_FALSE(device.holds(8));

    // Dead host: later puts never happen and count no sites.
    EXPECT_FALSE(device.put(9, kBlockSize));
    EXPECT_EQ(registry.sitesSeen(), 2u);
}

// --------------------------------------- recovery idempotence (sat 2)

TEST(Recovery, RollForwardIsIdempotentOnACrashedLog)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    log.writeBlock(1, 1, kBlockSize);
    log.writeBlock(2, 0, kBlockSize);
    registry.armCrash(8); // second seal's second InodeUpdate
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    ASSERT_TRUE(log.segments().back().torn);

    const auto first = lfs::rollForward(log);
    const auto second = lfs::rollForward(log);
    EXPECT_TRUE(first == second);
    EXPECT_TRUE(first.inodes == second.inodes);

    const lfs::RecoveryOptions quarantine{true};
    const auto q1 = lfs::rollForward(log, nullptr, quarantine);
    const auto q2 = lfs::rollForward(log, nullptr, quarantine);
    EXPECT_TRUE(q1 == q2);
    EXPECT_TRUE(q1.report == q2.report);
}

TEST(Recovery, RepeatedBlockInASegmentKeepsItsLastSlot)
{
    lfs::LfsLog log(smallConfig());
    log.writeBlock(1, 0, kBlockSize);
    log.writeBlock(1, 1, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    CrashTestPeer::repeatFirstDataEntry(log, 0);
    const auto last = static_cast<std::uint32_t>(
        log.segments()[0].entries.size() - 1);

    const auto result = lfs::rollForward(log);
    ASSERT_TRUE(result.inodes.locate(1, 0).has_value());
    EXPECT_EQ(*result.inodes.locate(1, 0), (lfs::SegmentAddress{0, last}));
    EXPECT_EQ(*result.inodes.locate(1, 1), (lfs::SegmentAddress{0, 1}));
}

// ------------------------------------- quarantining recovery report

TEST(Recovery, QuarantineSkipsDamagedSegmentAndReportsLoss)
{
    lfs::LfsLog log(smallConfig());
    // Segment 0: file 1, blocks 0-1.
    log.writeBlock(1, 0, kBlockSize);
    log.writeBlock(1, 1, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    // Segment 1: a delete of file 1 riding with file 2, block 0.
    log.deleteFile(1);
    log.writeBlock(2, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    // Segment 2: file 3, block 0.
    log.writeBlock(3, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));

    CrashTestPeer::corruptSealedSegment(log, 1);

    // Strict recovery must abort at the corrupt segment.
    const auto strict = lfs::rollForward(log);
    EXPECT_TRUE(strict.stoppedAtTornSegment);
    EXPECT_EQ(strict.inodes.blockCount(), 2u); // segment 0 only

    // Quarantine skips it, keeps going, and accounts for the damage.
    const auto skipped =
        lfs::rollForward(log, nullptr, lfs::RecoveryOptions{true});
    EXPECT_FALSE(skipped.stoppedAtTornSegment);
    EXPECT_EQ(skipped.report.segmentsScanned, 3u);
    EXPECT_EQ(skipped.report.segmentsQuarantined, 1u);
    EXPECT_EQ(skipped.report.blocksLost, 1u);   // file 2, block 0
    EXPECT_EQ(skipped.report.metaOpsLost, 1u);  // the delete
    // File 1's blocks survive (the delete was lost with segment 1)
    // and segment 2's block is recovered past the damage.
    EXPECT_EQ(skipped.inodes.blockCount(), 3u);
    EXPECT_EQ(skipped.segmentsReplayed, 2u);
}

// --------------------------------- oracle mutation detection (sat 3)

TEST(OracleMutationDetection, FlagsACorruptedJournalRecord)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    log.writeBlock(2, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    ASSERT_EQ(crash::verifyDurability(registry), std::nullopt);

    CrashTestPeer::corruptJournalRecord(log,
                                        log.segments().back().id);
    const auto violation = crash::verifyDurability(registry);
    ASSERT_TRUE(violation.has_value());
    EXPECT_NE(violation->find("diverges"), std::string::npos)
        << *violation;
}

TEST(OracleMutationDetection, FlagsACorruptedSealedSegment)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    log.writeBlock(2, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    ASSERT_EQ(crash::verifyDurability(registry), std::nullopt);

    CrashTestPeer::corruptSealedSegment(log, 0);
    const auto violation = crash::verifyDurability(registry);
    ASSERT_TRUE(violation.has_value());
}

// --------------------------------------------- NVRAM ledger coverage

TEST(ServerNvramLedger, UnbufferedServerHasNoDevice)
{
    server::FileServer server({"/fs"}, server::ServerConfig{});
    EXPECT_EQ(server.nvramDevice(0), nullptr);
}

TEST(ServerNvramLedger, ReconcilesStagedTagsAfterSeals)
{
    server::ServerConfig config;
    config.nvramBufferBytes = 256 * kKiB;
    config.lfs.segmentBytes = 64 * kKiB;
    server::FileServer server({"/fs"}, config);
    server.run(smallWorkload());

    nvram::NvramDevice *device = server.nvramDevice(0);
    ASSERT_NE(device, nullptr);
    EXPECT_GT(device->writeAccesses(), 0u);
    // The shutdown drain sealed everything; every staged tag has been
    // reconciled away.
    EXPECT_TRUE(device->tags().empty());
}

// ----------------------------------------------- end-to-end explore

TEST(Explore, BufferedServerSurvivesEveryCrashSite)
{
    crash::ExploreConfig config;
    config.server.nvramBufferBytes = 256 * kKiB;
    config.server.lfs.segmentBytes = 64 * kKiB;
    config.shrinkOnFailure = false;

    const auto result = crash::explore(smallWorkload(), config);
    EXPECT_GT(result.sitesTotal, 0u);
    EXPECT_EQ(result.crashesExplored, result.sitesTotal);
    EXPECT_TRUE(result.violations.empty())
        << result.violations.front().what;
    // Torn seals produce quarantine accounting across the sweep.
    EXPECT_GT(result.segmentsQuarantined, 0u);
}

TEST(Explore, UnbufferedServerSurvivesEveryCrashSite)
{
    crash::ExploreConfig config;
    config.server.lfs.segmentBytes = 64 * kKiB;
    config.shrinkOnFailure = false;

    const auto result = crash::explore(smallWorkload(), config);
    EXPECT_GT(result.sitesTotal, 0u);
    EXPECT_EQ(result.crashesExplored, result.sitesTotal);
    EXPECT_TRUE(result.violations.empty())
        << result.violations.front().what;
}

TEST(Explore, UnreachedArmedSiteIsAViolation)
{
    crash::ExploreConfig config;
    config.server.lfs.segmentBytes = 64 * kKiB;
    config.shrinkOnFailure = false;

    const auto verdict =
        crash::exploreOne(smallWorkload(), config, 1000000);
    EXPECT_FALSE(verdict.crashed);
    ASSERT_TRUE(verdict.violation.has_value());
    EXPECT_NE(verdict.violation->what.find("never reached"),
              std::string::npos);
}

/** explore()'s settings for smallWorkload(), shrinking on. */
crash::ExploreConfig
smallExploreConfig(Bytes nvram_buffer)
{
    crash::ExploreConfig config;
    config.server.nvramBufferBytes = nvram_buffer;
    config.server.lfs.segmentBytes = 64 * kKiB;
    return config;
}

/**
 * A torn first seal behind the registry's back: the registry records
 * a clean commit of segment 0 while the log is told it tore, so
 * recovery loses data the oracle expects and every crash after that
 * commit is a violation.
 */
CrashAction
tearFirstSegment(CrashSiteKind kind, std::uint64_t detail,
                 CrashAction answer)
{
    return answer == CrashAction::None &&
                   kind == CrashSiteKind::SealCommit && detail == 0
               ? CrashAction::Torn
               : answer;
}

/**
 * What explore() must report, computed the slow way: a census, then a
 * replay from scratch at every selected site in order, each violation
 * shrunk while its crash still fires and still violates.
 */
crash::ExploreResult
serialExplore(const std::vector<ServerOp> &ops,
              const crash::ExploreConfig &config,
              crash::SiteFilter filter)
{
    crash::ExploreResult result;
    {
        CrashSiteRegistry census;
        server::FileServer server(config.fsNames, config.server);
        server.setCrashHook(&census);
        for (std::size_t i = 0; i < server.fsCount(); ++i) {
            const auto fs = static_cast<FsId>(i);
            census.track(server.log(fs), server.nvramDevice(fs));
        }
        server.run(ops);
        result.sitesTotal = census.sitesSeen();
        result.sitesByKind = census.sitesByKind();
    }
    for (const std::uint64_t site :
         crash::selectSites(result.sitesTotal, config)) {
        const crash::CrashVerdict verdict =
            crash::exploreOne(ops, config, site, filter);
        ++result.crashesExplored;
        result.segmentsQuarantined +=
            verdict.quarantine.segmentsQuarantined;
        result.blocksLost += verdict.quarantine.blocksLost;
        result.metaOpsLost += verdict.quarantine.metaOpsLost;
        if (!verdict.violation)
            continue;
        crash::Violation violation = *verdict.violation;
        if (config.shrinkOnFailure) {
            violation.repro = check::deltaShrink(
                ops,
                [&](const std::vector<ServerOp> &candidate) {
                    const auto probe =
                        crash::exploreOne(candidate, config, site, filter);
                    return probe.crashed && probe.violation.has_value();
                },
                crash::kShrinkBudget);
        }
        result.violations.push_back(std::move(violation));
    }
    return result;
}

void
expectSameResult(const crash::ExploreResult &got,
                 const crash::ExploreResult &want)
{
    EXPECT_EQ(got.sitesTotal, want.sitesTotal);
    EXPECT_EQ(got.sitesByKind, want.sitesByKind);
    EXPECT_EQ(got.crashesExplored, want.crashesExplored);
    EXPECT_EQ(got.segmentsQuarantined, want.segmentsQuarantined);
    EXPECT_EQ(got.blocksLost, want.blocksLost);
    EXPECT_EQ(got.metaOpsLost, want.metaOpsLost);
    ASSERT_EQ(got.violations.size(), want.violations.size());
    for (std::size_t i = 0; i < got.violations.size(); ++i) {
        const crash::Violation &g = got.violations[i];
        const crash::Violation &w = want.violations[i];
        EXPECT_EQ(g.site, w.site) << "violation " << i;
        EXPECT_EQ(g.kind, w.kind) << "violation " << i;
        EXPECT_EQ(g.what, w.what) << "violation " << i;
        EXPECT_TRUE(g.repro == w.repro) << "violation " << i;
    }
}

TEST(Explore, ShrunkReproReachesItsSite)
{
    // A torn first seal loses data the registry saw commit, so every
    // later crash violates the oracle.
    const crash::ExploreConfig config = smallExploreConfig(0);
    const auto result =
        crash::explore(smallWorkload(), config, tearFirstSegment);
    ASSERT_FALSE(result.violations.empty());
    for (const crash::Violation &violation : result.violations) {
        EXPECT_FALSE(violation.repro.empty())
            << "site " << violation.site;
        const auto probe = crash::exploreOne(
            violation.repro, config, violation.site, tearFirstSegment);
        EXPECT_TRUE(probe.crashed) << "site " << violation.site;
        EXPECT_TRUE(probe.violation.has_value())
            << "site " << violation.site;
    }
}

// The forked explorer against replays from scratch: smallWorkload()
// crashed at every site (and with a torn first seal, so violations and
// their shrunk repros compare too), then the server-bound streams of
// all eight traces under each client model, unbuffered and buffered,
// on an unbounded disk of small segments and on a small disk the
// cleaner must keep free, each crashed at a seeded sample of sites;
// every case at NVFS_JOBS 4 and 1.
TEST(Explore, SameResultAtEveryWidth)
{
    struct Case
    {
        std::string name;
        std::vector<ServerOp> ops;
        crash::ExploreConfig config;
        crash::SiteFilter filter;
    };
    std::vector<Case> cases = {
        {"buffered", smallWorkload(), smallExploreConfig(256 * kKiB),
         nullptr},
        {"unbuffered", smallWorkload(), smallExploreConfig(0), nullptr},
        {"torn seal", smallWorkload(), smallExploreConfig(0),
         tearFirstSegment},
    };
    for (int trace = 1; trace <= 8; ++trace) {
        for (const core::ModelKind kind :
             {core::ModelKind::Volatile, core::ModelKind::WriteAside,
              core::ModelKind::Unified}) {
            core::ModelConfig model;
            model.kind = kind;
            std::vector<ServerOp> ops = core::collectServerOps(
                core::standardOps(trace, 0.02), model);
            if (ops.size() > 1000)
                ops.resize(1000);
            for (const Bytes buffer : {Bytes{0}, 512 * kKiB}) {
                const std::string name =
                    "trace " + std::to_string(trace) + " " +
                    core::modelKindName(kind) + " buffer " +
                    std::to_string(buffer);
                crash::ExploreConfig config = smallExploreConfig(buffer);
                config.sampleSites = 60;
                cases.push_back({name, ops, config, nullptr});
                // 24 segments of 512 KiB: the cleaner runs in most of
                // these cells, so forks resume with cleaner state.  On
                // 16 the cleaner's passes stop freeing segments, and
                // Cleaner::clean must end the loop there.
                config.server.lfs = lfs::LfsConfig{};
                config.server.lfs.diskSegments = 24;
                cases.push_back({name + " small disk", ops, config,
                                 nullptr});
                config.server.lfs.diskSegments = 16;
                cases.push_back({name + " tight disk", ops, config,
                                 nullptr});
            }
        }
    }
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const crash::ExploreResult want =
            serialExplore(c.ops, c.config, c.filter);
        ASSERT_GT(want.sitesTotal, 0u);
        EXPECT_EQ(want.violations.empty(), c.filter == nullptr);
        // Wide first, so a pool the test starts is wide too.
        for (const char *jobs : {"4", "1"}) {
            SCOPED_TRACE(std::string("NVFS_JOBS=") + jobs);
            const ScopedEnv width("NVFS_JOBS", jobs);
            expectSameResult(crash::explore(c.ops, c.config, c.filter),
                             want);
        }
    }
}

// -------------------------------------------------------- env knobs

TEST(Explore, CrashSitesEnvSelectsExplicitSites)
{
    ::setenv("NVFS_CRASH_SITES", "2,4,4", 1);
    crash::ExploreConfig config;
    config.server.lfs.segmentBytes = 64 * kKiB;
    config.shrinkOnFailure = false;
    const auto result = crash::explore(smallWorkload(), config);
    ::unsetenv("NVFS_CRASH_SITES");
    EXPECT_EQ(result.crashesExplored, 2u); // deduplicated
    EXPECT_TRUE(result.violations.empty());
}

TEST(ExploreDeathTest, MalformedCrashSitesIsFatal)
{
    ::setenv("NVFS_CRASH_SITES", "2,banana", 1);
    crash::ExploreConfig config;
    config.server.lfs.segmentBytes = 64 * kKiB;
    EXPECT_EXIT(crash::explore(smallWorkload(), config),
                ::testing::ExitedWithCode(1), "banana");
    ::unsetenv("NVFS_CRASH_SITES");
}

// -------------------------------------------------- delta shrinking

TEST(DeltaShrink, MinimizesToTheSingleCulprit)
{
    std::vector<int> items(20);
    for (int i = 0; i < 20; ++i)
        items[static_cast<std::size_t>(i)] = i + 1;
    const auto shrunk = check::deltaShrink(
        items, [](const std::vector<int> &candidate) {
            return std::find(candidate.begin(), candidate.end(), 13) !=
                   candidate.end();
        });
    ASSERT_EQ(shrunk.size(), 1u);
    EXPECT_EQ(shrunk.front(), 13);
}

TEST(DeltaShrink, KeepsInteractingPair)
{
    std::vector<int> items(16);
    for (int i = 0; i < 16; ++i)
        items[static_cast<std::size_t>(i)] = i;
    const auto shrunk = check::deltaShrink(
        items, [](const std::vector<int> &candidate) {
            const bool a = std::find(candidate.begin(),
                                     candidate.end(),
                                     3) != candidate.end();
            const bool b = std::find(candidate.begin(),
                                     candidate.end(),
                                     11) != candidate.end();
            return a && b;
        });
    ASSERT_EQ(shrunk.size(), 2u);
    EXPECT_EQ(shrunk[0], 3);
    EXPECT_EQ(shrunk[1], 11);
}

} // namespace
} // namespace nvfs

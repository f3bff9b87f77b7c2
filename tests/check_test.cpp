/**
 * @file
 * Tests for the nvfs::check subsystem: structural audits on the core
 * data structures (including proof that corruption is detected), the
 * NVFS_AUDIT hook in the cluster simulator, and the differential fuzz
 * driver that replays randomized op streams through the client models
 * and the curve engine across all three client models.
 */

#include <gtest/gtest.h>

#include "cache/block_cache.hpp"
#include "check/fuzz.hpp"
#include "core/client/cluster_sim.hpp"
#include "util/audit.hpp"
#include "util/flat_map.hpp"
#include "util/interval_set.hpp"

namespace nvfs::cache {

/** Test-only peer: corrupts cache internals to prove audits fire. */
class AuditTestPeer
{
  public:
    static void corruptDirtyBytes(BlockCache &cache)
    {
        ++cache.dirtyBytes_;
    }

    static void corruptLruTail(BlockCache &cache)
    {
        cache.lru_.tail = cache.lru_.head;
    }

    /** An extent entry for a block that is not resident, naming the
     *  arena slot of one that is. */
    static void leakIndexEntry(BlockCache &cache)
    {
        cache.extents_.insert(kNoFile - 1, 12345, 0);
    }
};

} // namespace nvfs::cache

namespace nvfs::check {
namespace {

using cache::BlockCache;
using cache::BlockId;

// ----------------------------------------------------- audits (clean)

TEST(Audits, HealthyStructuresPass)
{
    util::IntervalSet set;
    set.insert(0, 100);
    set.insert(200, 300);
    EXPECT_NO_THROW(set.auditInvariants());

    util::FlatMap<std::uint64_t, int, util::SplitMix64Hash> map;
    for (std::uint64_t k = 0; k < 100; ++k)
        map[k] = static_cast<int>(k);
    for (std::uint64_t k = 0; k < 100; k += 3)
        map.erase(k);
    EXPECT_NO_THROW(map.auditInvariants());
}

TEST(Audits, HealthyCachePasses)
{
    BlockCache cache(16);
    for (std::uint32_t b = 0; b < 40; ++b) {
        while (cache.full()) {
            const auto victim =
                cache.chooseVictim(static_cast<TimeUs>(b));
            ASSERT_TRUE(victim.has_value());
            cache.remove(*victim);
        }
        const BlockId id{1, b};
        cache.insert(id, static_cast<TimeUs>(b));
        if (b % 3 == 0)
            cache.markDirty(id, 0, 100, static_cast<TimeUs>(b));
    }
    EXPECT_NO_THROW(cache.auditInvariants());
}

// ------------------------------------------- audits (corruption fires)

TEST(Audits, CorruptedDirtyAccountingThrows)
{
    BlockCache cache(16);
    cache.insert({1, 0}, 0);
    cache.markDirty({1, 0}, 0, 100, 0);
    EXPECT_NO_THROW(cache.auditInvariants());

    cache::AuditTestPeer::corruptDirtyBytes(cache);
    EXPECT_THROW(cache.auditInvariants(), util::AuditError);
}

TEST(Audits, CorruptedLruListThrows)
{
    BlockCache cache(16);
    cache.insert({1, 0}, 0);
    cache.insert({1, 1}, 1);
    cache::AuditTestPeer::corruptLruTail(cache);
    EXPECT_THROW(cache.auditInvariants(), util::AuditError);
}

TEST(Audits, DanglingIndexEntryThrows)
{
    BlockCache cache(16);
    cache.insert({1, 0}, 0);
    cache::AuditTestPeer::leakIndexEntry(cache);
    EXPECT_THROW(cache.auditInvariants(), util::AuditError);
}

TEST(Audits, AuditErrorNamesTheStructure)
{
    BlockCache cache(16);
    cache.insert({1, 0}, 0);
    cache::AuditTestPeer::corruptDirtyBytes(cache);
    try {
        cache.auditInvariants();
        FAIL() << "audit should have thrown";
    } catch (const util::AuditError &e) {
        EXPECT_EQ(e.where(), "BlockCache");
    }
}

// ------------------------------------------------- ClusterSim hook

TEST(AuditHook, CleanRunAuditsWithoutFailing)
{
    FuzzConfig config;
    config.opsPerRun = 1500;
    config.auditEvery = 16;
    const prep::OpStream ops = generateOps(config, 7);

    core::ClusterConfig cluster;
    cluster.model.volatileBytes = config.volatileBytes;
    cluster.model.nvramBytes = config.nvramBytes;
    cluster.model.kind = core::ModelKind::Unified;
    cluster.auditEvery = 16;
    core::ClusterSim sim(cluster, ops.clientCount);
    EXPECT_NO_THROW(sim.run(ops));
}

// ------------------------------------------------ differential fuzzer

TEST(Fuzz, GenerateOpsIsDeterministicAndValid)
{
    FuzzConfig config;
    config.opsPerRun = 500;
    const prep::OpStream a = generateOps(config, 3);
    const prep::OpStream b = generateOps(config, 3);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    TimeUs last = 0;
    for (std::size_t i = 0; i < a.ops.size(); ++i) {
        EXPECT_EQ(a.ops[i], b.ops[i]);
        EXPECT_GE(a.ops[i].time, last);
        last = a.ops[i].time;
        EXPECT_LT(a.ops[i].client, config.clients);
    }
    const prep::OpStream c = generateOps(config, 4);
    EXPECT_FALSE(a.ops.size() == c.ops.size() &&
                 a.ops[10] == c.ops[10]);
}

TEST(Fuzz, TenThousandOpsBothEnginesZeroFailures)
{
    // 10k randomized ops through the models and the curve passes, all
    // three models, audits on, zero failures.
    FuzzConfig config;
    config.opsPerRun = 10000;
    config.auditEvery = 32;
    config.seed = 2026;
    const prep::OpStream ops = generateOps(config, config.seed);
    EXPECT_EQ(runDifferential(ops, config), std::nullopt);
}

TEST(Fuzz, CampaignReportsRunsAndOps)
{
    FuzzConfig config;
    config.opsPerRun = 300;
    config.auditEvery = 8;
    const FuzzResult result = fuzz(config, 4);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.runs, 4u);
    EXPECT_GE(result.opsExecuted, 4 * 300u);
}

TEST(Fuzz, DescribeOpsDumpsEveryOp)
{
    FuzzConfig config;
    config.opsPerRun = 50;
    const prep::OpStream ops = generateOps(config, 11);
    const std::string text = describeOps(ops);
    EXPECT_FALSE(text.empty());
    std::size_t lines = 0;
    for (const char c : text)
        lines += c == '\n';
    EXPECT_EQ(lines, ops.ops.size());
}

} // namespace
} // namespace nvfs::check

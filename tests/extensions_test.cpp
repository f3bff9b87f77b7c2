/**
 * @file
 * Tests for the extension features beyond the paper's core results:
 * client crash/recovery (Section 4), the block-level consistency
 * protocol ([21]), the FFS/NFS/Prestoserve baseline, and the network
 * cost model.
 */

#include <gtest/gtest.h>

#include "core/client/cluster_sim.hpp"
#include "core/client/unified_model.hpp"
#include "core/client/volatile_model.hpp"
#include "core/client/write_aside_model.hpp"
#include "core/sim/experiments.hpp"
#include "ffs/ffs_server.hpp"
#include "net/network_model.hpp"
#include "nvram/cost.hpp"

namespace nvfs {
namespace {

using core::Metrics;
using core::ModelConfig;
using core::ModelKind;
using core::WriteCause;

// ------------------------------------------------- crash semantics

class CrashTest : public ::testing::Test
{
  protected:
    Metrics metrics;
    core::FileSizeMap sizes;
    util::Rng rng{1};

    ModelConfig
    config(ModelKind kind)
    {
        ModelConfig c;
        c.kind = kind;
        c.volatileBytes = 8 * kBlockSize;
        c.nvramBytes = 4 * kBlockSize;
        return c;
    }
};

TEST_F(CrashTest, VolatileModelLosesDirtyData)
{
    sizes[1] = 8192;
    core::VolatileModel model(config(ModelKind::Volatile), metrics,
                              sizes, rng);
    model.write(1, 0, 8192, 1);
    model.crash(2);
    EXPECT_EQ(metrics.lostDirtyBytes, 8192u);
    EXPECT_EQ(metrics.totalServerWrites(), 0u);
    EXPECT_EQ(model.dirtyBytes(), 0u);
    EXPECT_EQ(model.cache().size(), 0u); // everything gone
}

TEST_F(CrashTest, WriteAsideModelRecoversFromNvram)
{
    sizes[1] = 8192;
    core::WriteAsideModel model(config(ModelKind::WriteAside),
                                metrics, sizes, rng);
    model.write(1, 0, 8192, 1);
    model.crash(2);
    EXPECT_EQ(metrics.lostDirtyBytes, 0u);
    EXPECT_EQ(metrics.serverWrites(WriteCause::Recovery), 8192u);
    EXPECT_EQ(model.dirtyBytes(), 0u);
    ASSERT_NO_THROW(model.auditInvariants());
}

TEST_F(CrashTest, UnifiedModelRecoversAndKeepsCleanNvramBlocks)
{
    sizes[1] = 4096;
    sizes[2] = 4096;
    core::UnifiedModel model(config(ModelKind::Unified), metrics,
                             sizes, rng);
    model.write(1, 0, 4096, 1); // dirty in NVRAM
    // Fill volatile, then place a clean block in NVRAM via reads.
    for (FileId f = 10; f < 19; ++f) {
        sizes[f] = 4096;
        model.read(f, 0, 4096, 2);
    }
    const auto clean_nvram_before =
        model.nvramCache().size() - model.nvramCache().dirtyBlockCount();
    model.crash(3);
    EXPECT_EQ(metrics.serverWrites(WriteCause::Recovery), 4096u);
    EXPECT_EQ(metrics.lostDirtyBytes, 0u);
    // Volatile emptied; NVRAM survivors stay resident (now clean).
    EXPECT_EQ(model.volatileCache().size(), 0u);
    EXPECT_GE(model.nvramCache().size(), clean_nvram_before);
    ASSERT_NO_THROW(model.auditInvariants());
}

TEST(CrashInjection, ClusterAppliesScheduledCrashes)
{
    // One client writes; it crashes before the 30 s write-back.
    prep::OpStream ops;
    ops.clientCount = 2;
    prep::Op open;
    open.time = 0;
    open.client = 0;
    open.pid = 1;
    open.file = 1;
    open.type = prep::OpType::Open;
    open.openForWrite = true;
    ops.ops.push_back(open);
    prep::Op write = open;
    write.time = secondsUs(1);
    write.type = prep::OpType::Write;
    write.length = 4096;
    ops.ops.push_back(write);
    prep::Op close = open;
    close.time = secondsUs(2);
    close.type = prep::OpType::Close;
    ops.ops.push_back(close);
    prep::Op late = open;
    late.time = secondsUs(10);
    late.client = 1;
    late.file = 2;
    late.type = prep::OpType::Open;
    late.openForRead = true;
    late.openForWrite = false;
    ops.ops.push_back(late);
    prep::Op late_close = late;
    late_close.time = secondsUs(11);
    late_close.type = prep::OpType::Close;
    ops.ops.push_back(late_close);

    for (const auto kind :
         {ModelKind::Volatile, ModelKind::Unified}) {
        core::ClusterConfig config;
        config.model.kind = kind;
        config.model.volatileBytes = kMiB;
        config.model.nvramBytes = kMiB;
        config.crashes = {{secondsUs(5), 0}};
        core::ClusterSim sim(config, 2);
        const Metrics m = sim.run(ops);
        if (kind == ModelKind::Volatile) {
            EXPECT_EQ(m.lostDirtyBytes, 4096u);
            EXPECT_EQ(m.totalServerWrites(), 0u);
        } else {
            EXPECT_EQ(m.lostDirtyBytes, 0u);
            EXPECT_EQ(m.serverWrites(WriteCause::Recovery), 4096u);
        }
    }
}

// -------------------------------------------- block-level callbacks

TEST(BlockCallbacks, PartialReadRecallsOnlyTouchedBlocks)
{
    prep::OpStream ops;
    ops.clientCount = 2;
    auto push = [&](prep::Op op) { ops.ops.push_back(op); };
    prep::Op base;
    base.client = 0;
    base.pid = 1;
    base.file = 1;

    prep::Op open = base;
    open.time = 0;
    open.type = prep::OpType::Open;
    open.openForWrite = true;
    push(open);
    prep::Op write = base;
    write.time = 1;
    write.type = prep::OpType::Write;
    write.length = 4 * kBlockSize; // 4 dirty blocks
    push(write);
    prep::Op close = base;
    close.time = 2;
    close.type = prep::OpType::Close;
    push(close);

    // Client 1 opens and reads only the first block.
    prep::Op open2 = base;
    open2.time = 3;
    open2.client = 1;
    open2.pid = 2;
    open2.type = prep::OpType::Open;
    open2.openForRead = true;
    push(open2);
    prep::Op read = base;
    read.time = 4;
    read.client = 1;
    read.pid = 2;
    read.type = prep::OpType::Read;
    read.length = kBlockSize;
    push(read);
    prep::Op close2 = open2;
    close2.time = 5;
    close2.type = prep::OpType::Close;
    push(close2);
    // The file dies before anything else forces a flush.
    prep::Op del = base;
    del.time = 6;
    del.type = prep::OpType::Delete;
    push(del);

    core::ClusterConfig config;
    config.model.kind = ModelKind::Unified;
    config.model.volatileBytes = kMiB;
    config.model.nvramBytes = kMiB;

    core::ClusterSim whole(config, 2);
    const Metrics whole_metrics = whole.run(ops);
    EXPECT_EQ(whole_metrics.serverWrites(WriteCause::Callback),
              4 * kBlockSize);

    config.blockLevelCallbacks = true;
    core::ClusterSim block(config, 2);
    const Metrics block_metrics = block.run(ops);
    EXPECT_EQ(block_metrics.serverWrites(WriteCause::Callback),
              kBlockSize);
    // The other three blocks died in the NVRAM.
    EXPECT_EQ(block_metrics.absorbedDeletedBytes, 3 * kBlockSize);
    EXPECT_LT(block_metrics.totalServerWrites(),
              whole_metrics.totalServerWrites());
}

TEST(BlockCallbacks, NewWriterStillGetsWholeFileRecall)
{
    prep::OpStream ops;
    ops.clientCount = 2;
    prep::Op base;
    base.client = 0;
    base.pid = 1;
    base.file = 1;
    prep::Op open = base;
    open.time = 0;
    open.type = prep::OpType::Open;
    open.openForWrite = true;
    ops.ops.push_back(open);
    prep::Op write = base;
    write.time = 1;
    write.type = prep::OpType::Write;
    write.length = 2 * kBlockSize;
    ops.ops.push_back(write);
    prep::Op close = base;
    close.time = 2;
    close.type = prep::OpType::Close;
    ops.ops.push_back(close);
    // Client 1 rewrites one block: the whole old dirty set must be on
    // the server first (ownership transfer).
    prep::Op open2 = base;
    open2.time = 3;
    open2.client = 1;
    open2.pid = 2;
    open2.type = prep::OpType::Open;
    open2.openForWrite = true;
    ops.ops.push_back(open2);
    prep::Op write2 = base;
    write2.time = 4;
    write2.client = 1;
    write2.pid = 2;
    write2.type = prep::OpType::Write;
    write2.length = kBlockSize;
    ops.ops.push_back(write2);
    prep::Op close2 = open2;
    close2.time = 5;
    close2.type = prep::OpType::Close;
    ops.ops.push_back(close2);

    core::ClusterConfig config;
    config.model.kind = ModelKind::Unified;
    config.model.volatileBytes = kMiB;
    config.model.nvramBytes = kMiB;
    config.blockLevelCallbacks = true;
    core::ClusterSim sim(config, 2);
    const Metrics m = sim.run(ops);
    EXPECT_EQ(m.serverWrites(WriteCause::Callback), 2 * kBlockSize);
}

// -------------------------------------------------- FFS baseline

workload::ServerOp
sw(TimeUs t, FileId f, Bytes off, Bytes len)
{
    return {t, 0, f, off, len, workload::ServerOp::Kind::Write};
}

workload::ServerOp
sf(TimeUs t, FileId f)
{
    return {t, 0, f, 0, 0, workload::ServerOp::Kind::Fsync};
}

TEST(FfsServer, NfsModeMakesEveryWriteSynchronous)
{
    ffs::FfsConfig config;
    config.nfsProtocol = true;
    ffs::FfsServer server(config);
    server.run({sw(secondsUs(1), 1, 0, 2 * kBlockSize)});
    // 2 data blocks + 1 metadata create, all synchronous.
    EXPECT_EQ(server.stats().syncOperations, 3u);
    EXPECT_EQ(server.stats().diskWrites, 3u);
    EXPECT_GT(server.stats().meanSyncLatencyMs(), 1.0);
}

TEST(FfsServer, LocalModeDefersToWriteBack)
{
    ffs::FfsServer server{ffs::FfsConfig{}};
    server.run({
        sw(secondsUs(1), 1, 0, kBlockSize),
        sw(secondsUs(60), 2, 0, 100), // advances the sweep clock
    });
    // Only the metadata creates were synchronous.
    EXPECT_EQ(server.stats().metadataWrites, 2u);
    EXPECT_EQ(server.stats().syncOperations, 2u);
    EXPECT_GE(server.stats().diskWrites, 3u);
}

TEST(FfsServer, PrestoserveAbsorbsSyncLatency)
{
    ffs::FfsConfig plain_config;
    plain_config.nfsProtocol = true;
    ffs::FfsConfig presto_config = plain_config;
    presto_config.nvramBytes = kMiB;

    std::vector<workload::ServerOp> ops;
    for (int i = 0; i < 50; ++i)
        ops.push_back(sw(secondsUs(1 + i), 1, i * kBlockSize,
                         kBlockSize));

    ffs::FfsServer plain(plain_config);
    plain.run(ops);
    ffs::FfsServer presto(presto_config);
    presto.run(ops);

    EXPECT_LT(presto.stats().meanSyncLatencyMs(),
              0.1 * plain.stats().meanSyncLatencyMs());
    EXPECT_GT(presto.stats().nvramAbsorbed, 0u);
    // Sorted draining costs less disk time than per-op seeks.
    EXPECT_LT(presto.stats().diskTimeMs, plain.stats().diskTimeMs);
    // The same data still reaches the disk.
    EXPECT_EQ(presto.stats().dataBytes, plain.stats().dataBytes);
}

TEST(FfsServer, FsyncFlushesSynchronously)
{
    ffs::FfsServer server{ffs::FfsConfig{}};
    server.run({
        sw(secondsUs(1), 1, 0, kBlockSize),
        sf(secondsUs(2), 1),
        sw(secondsUs(60), 2, 0, 100),
    });
    // create-metadata + fsync data + fsync metadata.
    EXPECT_GE(server.stats().syncOperations, 3u);
}

// ------------------------------------------------- network model

TEST(NetworkModel, TransferScalesWithBytes)
{
    const net::NetworkModel wire;
    const auto small = wire.transfer(8 * kKiB);
    const auto large = wire.transfer(8 * kMiB);
    EXPECT_GT(large.totalMs(), 100.0 * small.totalMs());
    // 8 KB at 10 Mbit/s: ~6.6 ms on the wire + 1 ms RPC.
    EXPECT_NEAR(small.wireMs, 6.55, 0.2);
    EXPECT_NEAR(small.rpcMs, 1.0, 1e-9);
}

TEST(NetworkModel, RpcOverheadPerFragment)
{
    const net::NetworkModel wire;
    // 32 KB = 4 fragments of 8 KB.
    EXPECT_NEAR(wire.transfer(32 * kKiB).rpcMs, 4.0, 1e-9);
    // Zero bytes: nothing to send.
    EXPECT_DOUBLE_EQ(wire.transfer(0).totalMs(), 0.0);
}

TEST(NetworkModel, UtilizationFractionOfInterval)
{
    const net::NetworkModel wire;
    // ~1.25 MB takes ~1 s of wire time; in 10 s that is ~10%.
    const double util =
        wire.utilization(1250 * kKiB, 10 * kUsPerSecond);
    EXPECT_GT(util, 0.08);
    EXPECT_LT(util, 0.25);
}

// --------------------------------------------- cost alternatives

TEST(CostAlternatives, UpsAndFlashListed)
{
    const auto &alts = nvram::alternatives1992();
    ASSERT_EQ(alts.size(), 2u);
    EXPECT_EQ(alts[0].fixedCost, 800.0);
    EXPECT_TRUE(alts[1].wearsOut);
}

TEST(CostAlternatives, NvramCheapestForSmallMemories)
{
    // "a UPS ... is more expensive for small amounts of memory."
    EXPECT_EQ(nvram::cheapestProtection(1.0), "NVRAM");
    EXPECT_EQ(nvram::cheapestProtection(2.0), "NVRAM");
}

} // namespace
} // namespace nvfs

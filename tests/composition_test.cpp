/**
 * @file
 * Tests for the composed experiments: the disk queue simulation, the
 * server-write sink and the end-to-end client→server pipeline, and
 * the cleaner running inside the file server.
 */

#include <gtest/gtest.h>

#include "core/sim/experiments.hpp"
#include "disk/queue_sim.hpp"
#include "server/file_server.hpp"

namespace nvfs {
namespace {

// ------------------------------------------------------- queue sim

TEST(DiskQueue, NoWritesMeansServiceOnlyPlusQueueing)
{
    disk::QueueSimParams params;
    params.readsPerSecond = 1.0; // nearly idle
    params.writeBytesPerSecond = 0.0;
    params.durationSeconds = 600.0;
    const auto result = disk::simulateDiskQueue(params);
    EXPECT_GT(result.reads, 0u);
    EXPECT_EQ(result.writes, 0u);
    // At 1 req/s against ~24 ms service, queueing is negligible.
    EXPECT_LT(result.readSlowdownPct(), 10.0);
}

TEST(DiskQueue, BiggerWritesDelayReads)
{
    disk::QueueSimParams params;
    params.readsPerSecond = 6.0;
    params.writeBytesPerSecond = 60.0 * 1024;
    params.durationSeconds = 1800.0;

    params.writeBytes = 64 * kKiB;
    const auto small = disk::simulateDiskQueue(params);
    params.writeBytes = kMiB;
    const auto big = disk::simulateDiskQueue(params);

    EXPECT_GT(big.meanReadResponseMs, small.meanReadResponseMs);
    // Same byte throughput: fewer, larger write requests.
    EXPECT_LT(big.writes, small.writes);
    EXPECT_NEAR(big.diskUtilization, small.diskUtilization, 0.05);
}

TEST(DiskQueue, Deterministic)
{
    disk::QueueSimParams params;
    params.durationSeconds = 300.0;
    const auto a = disk::simulateDiskQueue(params);
    const auto b = disk::simulateDiskQueue(params);
    EXPECT_DOUBLE_EQ(a.meanReadResponseMs, b.meanReadResponseMs);
    EXPECT_EQ(a.reads, b.reads);
}

// ---------------------------------------------------------- sink

class RecordingSink : public core::ServerWriteSink
{
  public:
    struct Event
    {
        TimeUs time;
        FileId file;
        Bytes bytes;
        core::WriteCause cause;
    };

    std::vector<Event> writes;
    std::vector<std::pair<TimeUs, FileId>> fsyncs;

    void
    onServerWrite(TimeUs now, FileId file, std::uint32_t, Bytes bytes,
                  core::WriteCause cause) override
    {
        writes.push_back({now, file, bytes, cause});
    }

    void
    onFsync(TimeUs now, FileId file) override
    {
        fsyncs.emplace_back(now, file);
    }
};

TEST(ServerSink, SeesEveryByteTheMetricsCount)
{
    const auto &ops = core::standardOps(7, 0.02);
    RecordingSink sink;
    core::ModelConfig model;
    model.kind = core::ModelKind::Volatile;
    model.volatileBytes = 4 * kMiB;
    model.sink = &sink;
    const auto metrics = core::runClientSim(ops, model);

    Bytes sink_bytes = 0;
    TimeUs last = 0;
    for (const auto &event : sink.writes) {
        sink_bytes += event.bytes;
        EXPECT_GE(event.time, last);
        last = event.time;
    }
    // The sink sees everything except concurrent write-through
    // (reported by the cluster sim) — with the volatile model those
    // are included too, so totals match exactly.
    EXPECT_EQ(sink_bytes, metrics.totalServerWrites());
    EXPECT_GT(sink.fsyncs.size(), 0u);
}

TEST(ServerSink, NvramClientsSendNoFsyncs)
{
    const auto &ops = core::standardOps(7, 0.02);
    RecordingSink sink;
    core::ModelConfig model;
    model.kind = core::ModelKind::Unified;
    model.volatileBytes = 4 * kMiB;
    model.nvramBytes = kMiB;
    model.sink = &sink;
    core::runClientSim(ops, model);
    EXPECT_TRUE(sink.fsyncs.empty());
}

// ------------------------------------------------------ end to end

TEST(EndToEnd, ClientNvramReducesServerDiskWrites)
{
    const auto &ops = core::standardOps(7, 0.05);

    core::ModelConfig volatile_clients;
    volatile_clients.kind = core::ModelKind::Volatile;
    volatile_clients.volatileBytes = 8 * kMiB;
    const auto base = core::runEndToEnd(ops, volatile_clients);

    core::ModelConfig nvram_clients = volatile_clients;
    nvram_clients.kind = core::ModelKind::Unified;
    nvram_clients.nvramBytes = kMiB;
    const auto nvram = core::runEndToEnd(ops, nvram_clients);

    EXPECT_LT(nvram.client.totalServerWrites(),
              base.client.totalServerWrites());
    EXPECT_LT(nvram.server.diskWrites(), base.server.diskWrites());
    // NVRAM clients never bother the server with fsyncs.
    EXPECT_EQ(nvram.server.fsyncs, 0u);
    EXPECT_GT(base.server.fsyncs, 0u);
}

TEST(EndToEnd, ServerSeesExactlyTheClientTraffic)
{
    const auto &ops = core::standardOps(1, 0.02);
    core::ModelConfig model;
    model.kind = core::ModelKind::Unified;
    model.volatileBytes = 8 * kMiB;
    model.nvramBytes = kMiB;
    const auto result = core::runEndToEnd(ops, model);
    EXPECT_EQ(result.server.arrivedBytes,
              result.client.totalServerWrites());
    // Everything that arrived eventually reaches the disk; repeated
    // writes of the same block within one staging window coalesce in
    // the server cache, so disk data can be slightly below arrivals.
    EXPECT_LE(result.server.log.dataBytes, result.server.arrivedBytes);
    EXPECT_GT(static_cast<double>(result.server.log.dataBytes),
              0.98 * static_cast<double>(result.server.arrivedBytes));
}

// -------------------------------------------- server-side cleaner

TEST(ServerCleaner, BoundedDiskStaysWithinCapacity)
{
    workload::FsProfile profile;
    profile.name = "/churn";
    profile.dumpsPerHour = 400.0;
    profile.smallDumpMeanBytes = 96.0 * 1024;
    profile.smallDumpSigma = 0.4; // keep per-file live data small
    const auto ops = workload::generateServerOps(
        {profile}, 4 * kUsPerHour, 3);

    server::ServerConfig config;
    config.lfs.diskSegments = 64; // 32 MB: forces cleaning
    config.lfs.cleanLowWater = 16;
    config.lfs.cleanHighWater = 32;
    server::FileServer server({"/churn"}, config);
    // Route every dump onto a small rotating set of files so old
    // versions keep dying and the cleaner has space to reclaim.
    auto mutated = ops;
    for (std::size_t i = 0; i < mutated.size(); ++i)
        mutated[i].file = 1 + static_cast<FileId>(i % 16);
    server.run(mutated);
    const auto &log = server.log(0);
    EXPECT_LE(log.activeSegments(), config.lfs.diskSegments);
    EXPECT_GT(log.stats().cleanerSegments, 0u);
    ASSERT_NO_THROW(log.auditInvariants());
}

} // namespace
} // namespace nvfs

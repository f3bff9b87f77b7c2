/**
 * @file
 * Randomized stress tests: drive each client cache model with
 * thousands of random operations and check the structural invariants
 * after every step — plus determinism and byte-conservation checks
 * for the whole cluster simulation, and tests for the workload
 * characterization module.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/client/cluster_sim.hpp"
#include "core/client/unified_model.hpp"
#include "core/client/volatile_model.hpp"
#include "core/client/write_aside_model.hpp"
#include "core/sim/experiments.hpp"
#include "prep/characterize.hpp"
#include "multi_run_ops.hpp"

namespace nvfs {
namespace {

using core::Metrics;
using core::ModelConfig;
using core::ModelKind;

class ModelStress : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    Metrics metrics;
    core::FileSizeMap sizes;
    util::Rng rng{GetParam()};

    ModelConfig
    config(ModelKind kind)
    {
        ModelConfig c;
        c.kind = kind;
        c.volatileBytes = 16 * kBlockSize;
        c.nvramBytes = 8 * kBlockSize;
        return c;
    }

    /** One random operation against the model. */
    template <typename Model>
    void
    step(Model &model, TimeUs now)
    {
        const auto file = static_cast<FileId>(rng.uniformInt(1, 12));
        const Bytes offset = rng.uniformInt(0, 6) * kBlockSize +
                             rng.uniformInt(0, kBlockSize - 1);
        const Bytes length = 1 + rng.uniformInt(0, 2 * kBlockSize);
        auto &size = sizes[file];
        switch (rng.uniformInt(0, 9)) {
          case 0:
          case 1:
          case 2:
          case 3:
            size = std::max(size, offset + length);
            model.write(file, offset, length, now);
            break;
          case 4:
          case 5:
          case 6:
            size = std::max(size, offset + length);
            model.read(file, offset, length, now);
            break;
          case 7:
            model.fsync(file, now);
            break;
          case 8:
            model.removeFile(file, now);
            sizes.erase(file);
            break;
          default:
            model.recall(file, core::WriteCause::Callback, now);
            break;
        }
    }
};

TEST_P(ModelStress, WriteAsideInvariantsHoldUnderChaos)
{
    core::WriteAsideModel model(config(ModelKind::WriteAside),
                                metrics, sizes, rng);
    for (TimeUs now = 1; now <= 3000; ++now) {
        step(model, now);
        if (now % 100 == 0) {
            ASSERT_NO_THROW(model.auditInvariants());
        }
        ASSERT_LE(model.volatileCache().size(),
                  model.volatileCache().capacityBlocks());
        ASSERT_LE(model.nvramCache().size(),
                  model.nvramCache().capacityBlocks());
    }
    ASSERT_NO_THROW(model.auditInvariants());
    model.finish(3001);
    EXPECT_EQ(model.dirtyBytes(), 0u);
}

TEST_P(ModelStress, UnifiedInvariantsHoldUnderChaos)
{
    core::UnifiedModel model(config(ModelKind::Unified), metrics,
                             sizes, rng);
    for (TimeUs now = 1; now <= 3000; ++now) {
        step(model, now);
        if (now % 100 == 0) {
            ASSERT_NO_THROW(model.auditInvariants());
        }
    }
    ASSERT_NO_THROW(model.auditInvariants());
    model.finish(3001);
    EXPECT_EQ(model.dirtyBytes(), 0u);
}

TEST_P(ModelStress, VolatileDirtyNeverExceedsCache)
{
    core::VolatileModel model(config(ModelKind::Volatile), metrics,
                              sizes, rng);
    for (TimeUs now = 1; now <= 3000; ++now) {
        step(model, now);
        ASSERT_LE(model.cache().dirtyBytes(),
                  model.cache().size() * kBlockSize);
        ASSERT_LE(model.cache().size(),
                  model.cache().capacityBlocks());
    }
}

TEST_P(ModelStress, CrashAfterChaosIsClean)
{
    for (const auto kind :
         {ModelKind::Volatile, ModelKind::WriteAside,
          ModelKind::Unified}) {
        Metrics local;
        core::FileSizeMap local_sizes;
        util::Rng local_rng{GetParam() ^ 0xC4A5};
        auto model = core::makeClientModel(config(kind), local,
                                           local_sizes, local_rng);
        for (TimeUs now = 1; now <= 500; ++now) {
            const auto file =
                static_cast<FileId>(local_rng.uniformInt(1, 6));
            local_sizes[file] =
                std::max(local_sizes[file], Bytes{4 * kBlockSize});
            model->write(file, 0,
                         1 + local_rng.uniformInt(0, kBlockSize - 1),
                         now);
        }
        model->crash(501);
        EXPECT_EQ(model->dirtyBytes(), 0u) << core::modelKindName(kind);
        if (kind == ModelKind::Volatile) {
            EXPECT_GT(local.lostDirtyBytes, 0u);
        } else {
            EXPECT_EQ(local.lostDirtyBytes, 0u);
            EXPECT_GT(local.serverWrites(core::WriteCause::Recovery),
                      0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelStress,
                         ::testing::Values(101, 202, 303, 404));

// ----------------------------------------------- cluster properties

/**
 * Three client crashes spread over the trace, each 1 us after a write
 * by the victim, so the victim crashes holding fresh dirty data.
 */
std::vector<std::pair<TimeUs, ClientId>>
crashSchedule(const prep::OpStream &ops)
{
    const prep::OpColumns &col = ops.ops;
    std::vector<std::size_t> writes;
    for (std::size_t i = 0; i < col.size(); ++i) {
        if (col.type[i] == prep::OpType::Write)
            writes.push_back(i);
    }
    std::vector<std::pair<TimeUs, ClientId>> crashes;
    for (std::size_t q = 1; q <= 3 && !writes.empty(); ++q) {
        const std::size_t w = writes[q * writes.size() / 4];
        crashes.emplace_back(col.time[w] + 1, col.client[w]);
    }
    return crashes;
}

/**
 * ClusterSim on `ops` in every configuration only the client models
 * replay: block-level callbacks x injected client crashes, the
 * random, clock and omniscient NVRAMs (`oracle` serves the last) and
 * the volatile model's dirty preference, with small memories so every
 * trace forces evictions in both.  Each run must repeat exactly and
 * account every application byte, and a crash must lose the volatile
 * model's dirty bytes and recover the NVRAM models'.
 */
void
expectClusterSimProperties(const std::string &input,
                           const prep::OpStream &ops, ModelKind kind,
                           const cache::NextModifyOracle &oracle)
{
    core::ClusterConfig base;
    base.model.kind = kind;
    base.model.volatileBytes = 48 * kBlockSize;
    base.model.nvramBytes = 16 * kBlockSize;
    std::vector<std::pair<std::string, core::ClusterConfig>> cells;
    for (const bool callbacks : {false, true}) {
        for (const bool crashes : {false, true}) {
            core::ClusterConfig config = base;
            config.blockLevelCallbacks = callbacks;
            if (crashes)
                config.crashes = crashSchedule(ops);
            cells.emplace_back(std::string("callbacks ") +
                                   (callbacks ? "on" : "off") +
                                   ", crashes " + (crashes ? "on" : "off"),
                               config);
        }
    }
    if (kind == ModelKind::Volatile) {
        core::ClusterConfig config = base;
        config.model.dirtyPreference = true;
        cells.emplace_back("dirty preference", config);
    } else {
        for (const auto policy :
             {cache::PolicyKind::Random, cache::PolicyKind::Clock,
              cache::PolicyKind::Omniscient}) {
            core::ClusterConfig config = base;
            config.model.nvramPolicy = policy;
            config.model.oracle = &oracle;
            cells.emplace_back(cache::policyName(policy), config);
        }
    }

    const auto run = [&](const core::ClusterConfig &config) {
        core::ClusterSim sim(config,
                             std::max<std::uint32_t>(1, ops.clientCount));
        return sim.run(ops);
    };
    const auto totals = prep::totals(ops);
    for (const auto &[name, config] : cells) {
        const std::string cell = input + ", " +
                                 core::modelKindName(kind) + ", " + name;
        const Metrics a = run(config);
        EXPECT_EQ(a, run(config)) << cell;
        EXPECT_EQ(a.appWriteBytes, totals.writeBytes) << cell;
        EXPECT_EQ(a.appReadBytes, totals.readBytes) << cell;
        const bool crashed = !config.crashes.empty();
        EXPECT_EQ(a.lostDirtyBytes > 0,
                  crashed && kind == ModelKind::Volatile)
            << cell;
        EXPECT_EQ(a.serverWrites(core::WriteCause::Recovery) > 0,
                  crashed && kind != ModelKind::Volatile)
            << cell;
    }
}

class TraceParam
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(TraceParam, ClusterSimDeterministicAndConservative)
{
    const auto [trace_number, kind_index] = GetParam();
    const auto &ops = core::standardOps(trace_number, 0.02);
    core::ModelConfig model;
    model.kind = static_cast<core::ModelKind>(kind_index);
    model.volatileBytes = 4 * kMiB;
    model.nvramBytes = kMiB;

    // runClientSim replays this LRU cell as a one-size curve pass.
    const Metrics a = core::runClientSim(ops, model, 9);
    EXPECT_EQ(a, core::runClientSim(ops, model, 9));

    // Conservation: app bytes equal the generator's totals.
    const auto totals = prep::totals(ops);
    EXPECT_EQ(a.appWriteBytes, totals.writeBytes);
    EXPECT_EQ(a.appReadBytes, totals.readBytes);
    // Server writes can never exceed app writes by more than block
    // rounding (each flush moves at most a whole block per dirty
    // block; absorbed bytes only shrink it).
    EXPECT_LT(a.netWriteTrafficPct(), 101.0);

    expectClusterSimProperties(
        "trace " + std::to_string(trace_number), ops, model.kind,
        core::standardOracle(trace_number, 0.02));
}

INSTANTIATE_TEST_SUITE_P(
    TracesAndModels, TraceParam,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(0, 1, 2)));

// The multi-run stream puts two or more dirty runs in a block, which
// no standard trace does.
TEST(ClusterSimProperties, MultiRunStream)
{
    const prep::OpStream ops = testutil::multiRunOps(16);
    ASSERT_GT(testutil::multiRunWrites(ops), 0u);
    const core::NextModifyIndex oracle(ops);
    for (const auto kind : {ModelKind::Volatile, ModelKind::WriteAside,
                            ModelKind::Unified})
        expectClusterSimProperties("multi-run stream", ops, kind, oracle);
}

// ----------------------------------------------- characterization

TEST(Characterize, HandcraftedStream)
{
    prep::OpStream ops;
    auto push = [&](prep::OpType type, TimeUs t, Bytes off, Bytes len) {
        prep::Op op;
        op.type = type;
        op.time = t;
        op.client = 0;
        op.pid = 1;
        op.file = 1;
        op.offset = off;
        op.length = len;
        op.openForWrite = type == prep::OpType::Open;
        ops.ops.push_back(op);
    };
    push(prep::OpType::Open, 0, 0, 0);
    push(prep::OpType::Write, 1, 0, 1000);
    push(prep::OpType::Write, 2, 1000, 1000); // sequential
    push(prep::OpType::Write, 3, 5000, 1000); // not sequential
    push(prep::OpType::Close, secondsUs(2), 0, 0);

    const auto profile = prep::characterize(ops);
    EXPECT_EQ(profile.writeBytes, 3000u);
    EXPECT_EQ(profile.opens, 1u);
    EXPECT_DOUBLE_EQ(profile.writeSize.mean(), 1000.0);
    EXPECT_NEAR(profile.sequentialWriteFraction, 1.0 / 3.0, 1e-9);
    EXPECT_NEAR(profile.openSeconds.mean(), 2.0, 1e-6);
    EXPECT_DOUBLE_EQ(profile.writeOnlyOpenFraction, 1.0);
    EXPECT_EQ(static_cast<Bytes>(profile.fileSize.max()), 6000u);
}

TEST(Characterize, GeneratedTraceMatchesSpriteShape)
{
    const auto &ops = core::standardOps(7, 0.05);
    const auto profile = prep::characterize(ops);
    // Reads dominate writes at the application level (~4:1).
    EXPECT_GT(profile.readWriteRatio(), 2.5);
    EXPECT_LT(profile.readWriteRatio(), 6.0);
    // Most opens are single-mode, most of them read-only.
    EXPECT_GT(profile.readOnlyOpenFraction, 0.5);
    // Files are small (the 1991 study's hallmark).
    EXPECT_LT(profile.fileSize.mean(), 256.0 * 1024);
    const std::string text = profile.render("check");
    EXPECT_NE(text.find("read : write"), std::string::npos);
}

// -------------------------------------------------- dynamic sizing

TEST(DynamicSizing, ShrinkEvictsAndNeverOverflows)
{
    const auto &ops = core::standardOps(7, 0.02);
    core::ModelConfig model;
    model.kind = core::ModelKind::Volatile;
    model.volatileBytes = 2 * kMiB;
    model.dynamicSizing = true;
    model.dynamicMinFraction = 0.25;
    const Metrics dynamic = core::runClientSim(ops, model);

    model.dynamicSizing = false;
    const Metrics fixed = core::runClientSim(ops, model);

    // Shrinking costs read traffic; app bytes unchanged.
    EXPECT_GE(dynamic.serverReadBytes, fixed.serverReadBytes);
    EXPECT_EQ(dynamic.appReadBytes, fixed.appReadBytes);
    EXPECT_EQ(dynamic.appWriteBytes, fixed.appWriteBytes);
}

} // namespace
} // namespace nvfs

/**
 * @file
 * Differential tests of the single-pass multi-size curve engine
 * (core::CurveSim) against per-size replays on the client models,
 * with the engine's invariant audits on.  The curve engine must be
 * *bit-identical* — every Metrics counter, including the per-cause
 * server-write histogram and both absorbed counters, must match one
 * ClusterSim per size on every trace and size — and a one-size pass
 * must hand a ServerWriteSink exactly the models' stream.  The oracle
 * is ClusterSim, not runClientSim or runClientGrid, which run the
 * curve engine themselves.  Also tests of the spec checks, of the
 * per-cell fallback path, and that the engine's audits catch a
 * corrupted block -> slot map.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/client/cluster_sim.hpp"
#include "core/sim/curve.hpp"
#include "core/sim/curve_clients.hpp"
#include "core/sim/sweep.hpp"
#include "util/audit.hpp"
#include "multi_run_ops.hpp"

namespace nvfs::core::curve {

/** Test-only peer: corrupts a curve client's internals to prove its
 *  audits fire. */
class CurveAuditTestPeer
{
  public:
    /** Point `from`'s extent entry at the slot holding `to`. */
    template <typename Client>
    static void
    pointExtentAt(Client &client, const cache::BlockId &from,
                  const cache::BlockId &to)
    {
        const std::uint32_t slot = client.slotOf(to);
        client.extents_.remove(from.file, from.index);
        client.extents_.insert(from.file, from.index, slot);
    }
};

} // namespace nvfs::core::curve

namespace nvfs::core {
namespace {

constexpr double kScale = 0.02;

/** Small caches so every trace forces evictions at every size. */
CurveSpec
volatileSpec()
{
    CurveSpec spec;
    spec.base.kind = ModelKind::Volatile;
    spec.axis = CurveAxis::VolatileBytes;
    spec.sizes = {4 * kBlockSize, 8 * kBlockSize, 16 * kBlockSize,
                  48 * kBlockSize, 96 * kBlockSize};
    return spec;
}

CurveSpec
unifiedSpec()
{
    CurveSpec spec;
    spec.base.kind = ModelKind::Unified;
    spec.base.volatileBytes = 48 * kBlockSize;
    spec.axis = CurveAxis::NvramBytes;
    spec.sizes = {kBlockSize, 4 * kBlockSize, 16 * kBlockSize,
                  64 * kBlockSize};
    return spec;
}

/** One-block and repeated NVRAM sizes, and one larger than the
 *  volatile cache (the NVRAM then never fills). */
CurveSpec
writeAsideSpec()
{
    CurveSpec spec;
    spec.base.kind = ModelKind::WriteAside;
    spec.base.volatileBytes = 48 * kBlockSize;
    spec.axis = CurveAxis::NvramBytes;
    spec.sizes = {kBlockSize, 16 * kBlockSize, 4 * kBlockSize,
                  16 * kBlockSize, 64 * kBlockSize};
    return spec;
}

/** One cell on the client models (ClusterSim). */
Metrics
modelReplay(const prep::OpStream &ops, const ModelConfig &model,
            std::uint64_t seed)
{
    ClusterConfig config;
    config.model = model;
    config.seed = seed;
    ClusterSim sim(config, std::max<std::uint32_t>(1, ops.clientCount));
    return sim.run(ops);
}

/** The oracle: one model replay per size, the swept field set here. */
std::vector<Metrics>
perSizeReplay(const prep::OpStream &ops, const CurveSpec &spec)
{
    std::vector<Metrics> rows;
    for (const ModelConfig &model : curveGridModels(spec))
        rows.push_back(modelReplay(ops, model, spec.seed));
    return rows;
}

/** One sink event, every field the sink is given. */
struct SinkEvent
{
    TimeUs time = 0;
    FileId file = 0;
    std::uint32_t block = 0;
    Bytes bytes = 0;
    WriteCause cause = WriteCause::Replacement;
    bool fsync = false;

    bool operator==(const SinkEvent &other) const = default;
};

std::ostream &
operator<<(std::ostream &out, const SinkEvent &e)
{
    if (e.fsync)
        return out << "fsync t=" << e.time << " file=" << e.file;
    return out << writeCauseName(e.cause) << " t=" << e.time
               << " file=" << e.file << " block=" << e.block
               << " bytes=" << e.bytes;
}

/** Records the server-bound stream a replay emits. */
class RecordingSink : public ServerWriteSink
{
  public:
    void
    onServerWrite(TimeUs now, FileId file, std::uint32_t block,
                  Bytes bytes, WriteCause cause) override
    {
        events.push_back({now, file, block, bytes, cause, false});
    }

    void
    onFsync(TimeUs now, FileId file) override
    {
        events.push_back({now, file, 0, 0, WriteCause::Fsync, true});
    }

    std::vector<SinkEvent> events;
};

/** Row k's label in failure messages. */
std::string
describe(const CurveSpec &spec, std::size_t k)
{
    return modelKindName(spec.base.kind) + " volatile " +
           std::to_string(spec.base.volatileBytes) + " size " +
           std::to_string(spec.sizes[k]);
}

// The tentpole acceptance check: all 8 traces x the three curveable
// models, curve engine vs per-size replays, identical Metrics
// (operator== covers the per-cause byte histogram and both absorbed
// counters).  Audits stay on inside the curve engine so the
// threshold/inclusion invariants are checked throughout the replay.
// One more input, the multi-run stream, puts two or more dirty runs
// in a block, which no standard trace does, so the spilled form of
// the per-size dirty sets is compared too.
TEST(CurveDifferential, MatchesGridOnStandardTraces)
{
    const auto compare = [](const std::string &input,
                            const prep::OpStream &ops) {
        for (CurveSpec spec :
             {volatileSpec(), unifiedSpec(), writeAsideSpec()}) {
            spec.auditEvery = 997;
            ASSERT_TRUE(curveSupported(spec));
            const std::vector<Metrics> curve = runCurveSim(ops, spec);
            const std::vector<Metrics> oracle = perSizeReplay(ops, spec);
            ASSERT_EQ(curve.size(), oracle.size());
            for (std::size_t k = 0; k < curve.size(); ++k) {
                EXPECT_EQ(curve[k], oracle[k])
                    << input << ": " << describe(spec, k);
            }
        }
    };
    for (int trace = 1; trace <= 8; ++trace)
        compare("trace " + std::to_string(trace), standardOps(trace, kScale));

    const prep::OpStream multi_run = testutil::multiRunOps(16);
    ASSERT_GT(testutil::multiRunWrites(multi_run), 0u);
    compare("multi-run stream", multi_run);
}

// Every spec shape the figure benches pass to runCurveSweep or
// runClientGrid as one group, through runCurveSweep, bit-compared
// against per-size replays: the Fig 3/4 unified NVRAM grid (8 MiB
// volatile, the ten paper sizes) on all eight traces, and on trace 7
// the Fig 6 / Section 2.7 cost-table series — volatile on 8 and
// 16 MiB bases plus 0-8 MiB of extra memory, unified at 8 and 16 MiB
// whose first point is one block — and the Fig 5 write-aside column
// on the same sizes.
TEST(CurveDifferential, MatchesGridOnPaperSizes)
{
    const SweepRunner runner(1);
    auto check = [&runner](int trace, const CurveSpec &spec) {
        ASSERT_TRUE(curveSupported(spec));
        const auto &ops = standardOps(trace, kScale);
        const std::vector<Metrics> curve = runner.runCurveSweep(ops, spec);
        const std::vector<Metrics> oracle = perSizeReplay(ops, spec);
        ASSERT_EQ(curve.size(), oracle.size());
        for (std::size_t k = 0; k < curve.size(); ++k) {
            EXPECT_EQ(curve[k], oracle[k])
                << "trace " << trace << ": " << describe(spec, k);
        }
    };

    CurveSpec nvram;
    nvram.base.kind = ModelKind::Unified;
    nvram.base.volatileBytes = 8 * kMiB;
    nvram.axis = CurveAxis::NvramBytes;
    for (const double mb : {0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0,
                            2.0, 4.0, 8.0, 16.0}) {
        nvram.sizes.push_back(
            static_cast<Bytes>(mb * static_cast<double>(kMiB)));
    }
    for (int trace = 1; trace <= 8; ++trace)
        check(trace, nvram);

    for (const Bytes base : {Bytes{8 * kMiB}, Bytes{16 * kMiB}}) {
        CurveSpec vol;
        vol.base.kind = ModelKind::Volatile;
        vol.axis = CurveAxis::VolatileBytes;
        CurveSpec uni;
        uni.base.kind = ModelKind::Unified;
        uni.base.volatileBytes = base;
        uni.axis = CurveAxis::NvramBytes;
        for (const double extra : {0.0, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0}) {
            const auto extra_bytes =
                static_cast<Bytes>(extra * static_cast<double>(kMiB));
            vol.sizes.push_back(base + extra_bytes);
            uni.sizes.push_back(extra == 0 ? kBlockSize : extra_bytes);
        }
        CurveSpec aside = uni;
        aside.base.kind = ModelKind::WriteAside;
        check(7, vol);
        check(7, uni);
        check(7, aside);
    }
}

// Sizes in any order, and the volatile axis's boundary edge cases:
// one-block sizes (the boundary is the MRU block, evicted on every
// miss), repeated sizes (two sizes share one boundary block) and one
// large size beside them, audited after every op.
TEST(CurveDifferential, SizesInArbitraryOrder)
{
    const auto compare = [](int trace, const CurveSpec &spec) {
        const auto &ops = standardOps(trace, kScale);
        const std::vector<Metrics> curve = runCurveSim(ops, spec);
        const std::vector<Metrics> oracle = perSizeReplay(ops, spec);
        ASSERT_EQ(curve.size(), oracle.size());
        for (std::size_t k = 0; k < curve.size(); ++k) {
            EXPECT_EQ(curve[k], oracle[k])
                << "trace " << trace << ": " << describe(spec, k);
        }
    };
    CurveSpec spec = volatileSpec();
    std::reverse(spec.sizes.begin(), spec.sizes.end());
    spec.sizes.push_back(12 * kBlockSize); // unsorted tail
    compare(3, spec);

    spec.sizes.clear();
    for (const Bytes blocks : {1, 2, 1, 3, 2, 64, 5})
        spec.sizes.push_back(blocks * kBlockSize);
    spec.auditEvery = 1;
    for (const int trace : {1, 3, 4, 7})
        compare(trace, spec);
}

// A one-size pass with a sink is the production client half of
// runEndToEnd and collectServerOps, so its server-bound stream must be
// the models' own, event for event: time, file, block, bytes, cause
// and the volatile model's fsyncs, in the same order.  Metrics are
// sums, so the differentials above cannot see the order; this one
// can.  All 8 traces and the multi-run stream, each model at a tiny
// size (evictions at every turn) and at the figure defaults (8 MiB
// volatile, 1 MiB NVRAM: most data leaves at the end of the trace).
// Both sides audit at the NVFS_AUDIT cadence (CI's invariant-audit
// job sets 1).
TEST(CurveDifferential, SinkStreamMatchesModels)
{
    std::size_t end_of_trace = 0;
    std::size_t replacements = 0;
    std::size_t fsyncs = 0;
    std::size_t sweeps = 0;
    const auto compare = [&](const std::string &input,
                             const prep::OpStream &ops) {
        for (const ModelKind kind : {ModelKind::Volatile,
                                     ModelKind::WriteAside,
                                     ModelKind::Unified}) {
            for (const bool tiny : {true, false}) {
                ModelConfig model;
                model.kind = kind;
                if (tiny) {
                    model.volatileBytes = 48 * kBlockSize;
                    model.nvramBytes = 16 * kBlockSize;
                }
                RecordingSink curve_sink;
                CurveSpec spec = cellSpec(model);
                spec.base.sink = &curve_sink;
                ASSERT_TRUE(curveSupported(spec));
                const Metrics curve = runCurveSim(ops, spec).front();

                RecordingSink model_sink;
                model.sink = &model_sink;
                const Metrics models = modelReplay(ops, model, 42);
                const std::string where =
                    input + ": " + modelKindName(kind) +
                    (tiny ? " tiny" : " default");
                EXPECT_EQ(curve, models) << where;
                const std::vector<SinkEvent> &want = model_sink.events;
                const std::vector<SinkEvent> &got = curve_sink.events;
                const auto differ = std::mismatch(
                    want.begin(), want.end(), got.begin(), got.end());
                if (differ.first != want.end() ||
                    differ.second != got.end()) {
                    const std::size_t i = static_cast<std::size_t>(
                        differ.first - want.begin());
                    ADD_FAILURE()
                        << where << ": event " << i << " of "
                        << want.size() << " (" << got.size()
                        << " from the curve pass) differs: models "
                        << (i < want.size() ? want[i] : SinkEvent{})
                        << ", curve "
                        << (i < got.size() ? got[i] : SinkEvent{});
                }
                for (const SinkEvent &e : want) {
                    end_of_trace += !e.fsync &&
                                    e.cause == WriteCause::EndOfTrace;
                    replacements += !e.fsync &&
                                    e.cause == WriteCause::Replacement;
                    sweeps += !e.fsync &&
                              e.cause == WriteCause::DelayedWriteBack;
                    fsyncs += e.fsync ? 1 : 0;
                }
            }
        }
    };
    for (int trace = 1; trace <= 8; ++trace)
        compare("trace " + std::to_string(trace), standardOps(trace, kScale));
    const prep::OpStream multi_run = testutil::multiRunOps(16);
    compare("multi-run stream", multi_run);

    // Every kind of event the order could differ on actually occurs.
    EXPECT_GT(end_of_trace, 0u);
    EXPECT_GT(replacements, 0u);
    EXPECT_GT(sweeps, 0u);
    EXPECT_GT(fsyncs, 0u);
}

TEST(CurveSupport, RejectsInclusionBreakers)
{
    CurveSpec spec = unifiedSpec();
    EXPECT_TRUE(curveSupported(spec));

    CurveSpec bad = spec;
    bad.base.nvramPolicy = cache::PolicyKind::Random;
    EXPECT_FALSE(curveSupported(bad));
    bad = spec;
    bad.base.nvramPolicy = cache::PolicyKind::Omniscient;
    EXPECT_FALSE(curveSupported(bad));
    bad = spec;
    bad.base.dynamicSizing = true;
    EXPECT_FALSE(curveSupported(bad));
    bad = spec;
    bad.sizes.clear();
    EXPECT_FALSE(curveSupported(bad));
    bad = spec;
    bad.sizes.assign(kCurveMaxSizes + 1, kBlockSize);
    EXPECT_FALSE(curveSupported(bad));
    bad = spec;
    bad.sizes.push_back(kBlockSize - 1); // under one block
    EXPECT_FALSE(curveSupported(bad));

    CurveSpec vol = volatileSpec();
    EXPECT_TRUE(curveSupported(vol));
    vol.base.dirtyPreference = true;
    EXPECT_FALSE(curveSupported(vol));
    vol = volatileSpec();
    vol.base.kind = ModelKind::Unified; // axis/kind mismatch
    EXPECT_FALSE(curveSupported(vol));

    // Write-aside needs no inclusion either, but only its LRU NVRAM
    // has a per-size mirror.
    CurveSpec aside = writeAsideSpec();
    EXPECT_TRUE(curveSupported(aside));
    for (const auto policy :
         {cache::PolicyKind::Random, cache::PolicyKind::Clock,
          cache::PolicyKind::Omniscient}) {
        bad = aside;
        bad.base.nvramPolicy = policy;
        EXPECT_FALSE(curveSupported(bad));
    }
    bad = aside;
    bad.axis = CurveAxis::VolatileBytes;
    EXPECT_FALSE(curveSupported(bad));

    // A sink sees one stream: one size only.
    RecordingSink sink;
    for (CurveSpec with_sink : {volatileSpec(), unifiedSpec(), aside}) {
        with_sink.base.sink = &sink;
        EXPECT_FALSE(curveSupported(with_sink));
        with_sink.sizes.resize(1);
        EXPECT_TRUE(curveSupported(with_sink));
    }
}

// The extent index is the engine's only block -> slot map, so an
// entry naming another block's slot must fail every client's audit.
TEST(CurveAudit, ExtentEntryNamingAnotherBlocksSlotThrows)
{
    FileSizeMap file_sizes;
    file_sizes[1] = 4 * kBlockSize;
    const auto corrupt_and_audit = [](auto &client) {
        client.write(1, 0, 4 * kBlockSize, 1);
        client.read(1, 0, kBlockSize, 2);
        EXPECT_NO_THROW(client.auditInvariants());
        curve::CurveAuditTestPeer::pointExtentAt(client, {1, 0}, {1, 2});
        try {
            client.auditInvariants();
            ADD_FAILURE() << "audit should have thrown";
        } catch (const util::AuditError &e) {
            EXPECT_EQ(e.where(), "CurveSim");
        }
    };
    const CurveSpec vol = volatileSpec();
    std::vector<Metrics> vol_metrics(vol.sizes.size());
    curve::VolatileCurveClient volatile_client(vol.base, vol.sizes,
                                               vol_metrics, file_sizes);
    corrupt_and_audit(volatile_client);

    const CurveSpec uni = unifiedSpec();
    std::vector<Metrics> uni_metrics(uni.sizes.size());
    curve::UnifiedCurveClient unified_client(uni.base, uni.sizes,
                                             uni_metrics, file_sizes);
    corrupt_and_audit(unified_client);

    const CurveSpec aside = writeAsideSpec();
    std::vector<Metrics> aside_metrics(aside.sizes.size());
    curve::WriteAsideCurveClient aside_client(aside.base, aside.sizes,
                                              aside_metrics, file_sizes);
    corrupt_and_audit(aside_client);
}

// Unsupported specs silently replay cell by cell through the sweep
// API (the bench wiring relies on this).
TEST(CurveFallback, UnsupportedSpecFallsBack)
{
    const auto &ops = standardOps(2, kScale);
    CurveSpec spec = unifiedSpec();
    spec.base.nvramPolicy = cache::PolicyKind::Clock;
    SweepRunner runner(1);
    const std::vector<Metrics> rows = runner.runCurveSweep(ops, spec);
    const std::vector<Metrics> oracle = perSizeReplay(ops, spec);
    ASSERT_EQ(rows.size(), oracle.size());
    for (std::size_t k = 0; k < rows.size(); ++k)
        EXPECT_EQ(rows[k], oracle[k]) << describe(spec, k);
}

} // namespace
} // namespace nvfs::core

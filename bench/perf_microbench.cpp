/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * interval-set updates, block-cache operations, policy victim
 * selection, LFS block appends and roll-forward recovery, crash
 * exploration, the Section 3 file-server replay, whole-trace
 * simulation throughput and the pipelined multi-trace sweep, plus a
 * host reference the whole-trace timings are read against.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "cache/block_cache.hpp"
#include "core/sim/experiments.hpp"
#include "core/sim/sweep.hpp"
#include "crash/explore.hpp"
#include "lfs/log.hpp"
#include "lfs/recovery.hpp"
#include "obs/export.hpp"
#include "server/file_server.hpp"
#include "util/flat_map.hpp"
#include "util/interval_set.hpp"
#include "util/rng.hpp"
#include "workload/server_workload.hpp"

using namespace nvfs;

namespace {

void
BM_IntervalSetInsert(benchmark::State &state)
{
    // Arg(1) is the one-run set every dirty block holds (stored
    // inline, no allocation); 64 and 1024 runs time the spilled map.
    util::Rng rng(1);
    for (auto _ : state) {
        util::IntervalSet set;
        for (int i = 0; i < state.range(0); ++i) {
            const Bytes begin = rng.uniformInt(0, 1 << 20);
            set.insert(begin, begin + 512);
        }
        benchmark::DoNotOptimize(set.totalBytes());
    }
}
BENCHMARK(BM_IntervalSetInsert)->Arg(1)->Arg(64)->Arg(1024);

void
BM_BlockCacheChurn(benchmark::State &state)
{
    util::Rng rng(2);
    for (auto _ : state) {
        cache::BlockCache cache(1024);
        for (int i = 0; i < 8192; ++i) {
            const cache::BlockId id{
                static_cast<FileId>(rng.uniformInt(0, 255)),
                static_cast<std::uint32_t>(rng.uniformInt(0, 63))};
            if (cache.contains(id)) {
                cache.touch(id, i);
                continue;
            }
            if (cache.full()) {
                const auto victim = cache.chooseVictim(i);
                cache.remove(*victim);
            }
            cache.insert(id, i);
        }
        benchmark::DoNotOptimize(cache.size());
    }
}
BENCHMARK(BM_BlockCacheChurn);

void
BM_PolicyVictim(benchmark::State &state)
{
    const auto kind = static_cast<cache::PolicyKind>(state.range(0));
    util::Rng rng(3);
    cache::BlockCache cache(4096, cache::makePolicy(kind, &rng));
    for (std::uint32_t i = 0; i < 4096; ++i)
        cache.insert({static_cast<FileId>(i), 0}, i);
    TimeUs now = 4096;
    for (auto _ : state) {
        const auto victim = cache.chooseVictim(now);
        cache.remove(*victim);
        cache.insert(*victim, ++now);
    }
}
BENCHMARK(BM_PolicyVictim)
    ->Arg(static_cast<int>(cache::PolicyKind::Lru))
    ->Arg(static_cast<int>(cache::PolicyKind::Random))
    ->Arg(static_cast<int>(cache::PolicyKind::Clock));

void
BM_LfsAppend(benchmark::State &state)
{
    for (auto _ : state) {
        lfs::LfsLog log;
        for (std::uint32_t i = 0; i < 4096; ++i)
            log.writeBlock(i % 64, i / 64, kBlockSize);
        log.seal(lfs::SealCause::Shutdown);
        benchmark::DoNotOptimize(log.stats().segmentsWritten);
    }
}
BENCHMARK(BM_LfsAppend);

void
BM_RollForward(benchmark::State &state)
{
    // Strict roll-forward of a log of 512 fsync-forced partial
    // segments, 8 blocks each over 64 files, with rewrites.
    lfs::LfsLog log;
    for (std::uint32_t i = 0; i < 4096; ++i) {
        log.writeBlock(i % 64, (i * 7) % 48, kBlockSize);
        if (i % 8 == 7)
            log.seal(lfs::SealCause::Fsync);
    }
    for (auto _ : state) {
        const lfs::RecoveryResult result = lfs::rollForward(log);
        benchmark::DoNotOptimize(result.blocksRecovered);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(log.segments().size()));
}
BENCHMARK(BM_RollForward);

void
BM_CrashExplore(benchmark::State &state)
{
    // One crash-exploration cell shaped like perfbench's: the first
    // 800 server-bound ops of the unified model on trace 7, crashed at
    // 100 seeded sites with a 512 KiB NVRAM write buffer.  The crashes
    // fan out on the NVFS_JOBS pool, so process CPU above real time
    // shows them running in parallel.
    core::ModelConfig model;
    model.kind = core::ModelKind::Unified;
    auto ops = core::collectServerOps(core::standardOps(7, 0.2), model);
    if (ops.size() > 800)
        ops.resize(800);
    crash::ExploreConfig config;
    config.server.nvramBufferBytes = 512 * kKiB;
    config.sampleSites = 100;
    for (auto _ : state) {
        const crash::ExploreResult result = crash::explore(ops, config);
        if (!result.violations.empty())
            state.SkipWithError("oracle violation");
        benchmark::DoNotOptimize(result.blocksLost);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(config.sampleSites));
}
BENCHMARK(BM_CrashExplore)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_FileServerRun(benchmark::State &state)
{
    // One Section 3 cell shaped like perfbench's server fan-out: the
    // eight file systems' day of arrivals (generateServerOps at the
    // bench scale) through a fresh FileServer with a write buffer of
    // buffer_kib KiB (0 = none), then the structural audit.
    const auto profiles = workload::standardFsProfiles(core::benchScale());
    const auto ops =
        workload::generateServerOps(profiles, 24 * kUsPerHour, 1);
    std::vector<std::string> names;
    for (const workload::FsProfile &profile : profiles)
        names.push_back(profile.name);
    server::ServerConfig config;
    config.nvramBufferBytes = static_cast<Bytes>(state.range(0)) * kKiB;
    for (auto _ : state) {
        server::FileServer server(names, config);
        server.run(ops);
        server.auditInvariants();
        benchmark::DoNotOptimize(server.totalDiskWrites());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(ops.size()));
}
BENCHMARK(BM_FileServerRun)
    ->ArgName("buffer_kib")
    ->Arg(0)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void
BM_ClientSimTrace7(benchmark::State &state)
{
    // Small-scale end-to-end simulation throughput (ops/second) of
    // runClientSim, a one-size curve pass for this LRU cell.
    const auto &ops = core::standardOps(7, 0.05);
    for (auto _ : state) {
        core::ModelConfig model;
        model.kind = core::ModelKind::Unified;
        model.volatileBytes = 8 * kMiB;
        model.nvramBytes = kMiB;
        const auto metrics = core::runClientSim(ops, model);
        benchmark::DoNotOptimize(metrics.appWriteBytes);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(ops.ops.size()));
}
BENCHMARK(BM_ClientSimTrace7);

void
BM_ClusterSimReplay(benchmark::State &state)
{
    // End-to-end replay macrobenchmark: one whole trace per
    // iteration, per model, through runClientSim (a one-size curve
    // pass: every cell here is an LRU cell).
    const auto trace = static_cast<int>(state.range(0));
    const auto kind = static_cast<core::ModelKind>(state.range(1));
    const auto &ops = core::standardOps(trace, core::benchScale());
    for (auto _ : state) {
        core::ModelConfig model;
        model.kind = kind;
        model.volatileBytes = 8 * kMiB;
        model.nvramBytes = kMiB;
        const auto metrics = core::runClientSim(ops, model);
        benchmark::DoNotOptimize(metrics.appWriteBytes);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(ops.ops.size()));
}
BENCHMARK(BM_ClusterSimReplay)
    ->ArgNames({"trace", "model"})
    ->ArgsProduct({{3, 4, 7}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

void
BM_FlatMapLookup(benchmark::State &state)
{
    // Mixed hit/miss point lookups against a loaded table — the
    // access pattern of the extent index's file table and the
    // per-file maps of core::replayOps.
    const auto n = static_cast<std::uint64_t>(state.range(0));
    util::FlatMap<std::uint64_t, std::uint64_t, util::SplitMix64Hash>
        map;
    map.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i)
        map.insertOrAssign(i * 2, i); // even keys present, odd absent
    util::Rng rng(5);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        const auto key = static_cast<std::uint64_t>(
            rng.uniformInt(0, static_cast<int>(2 * n - 1)));
        const std::uint64_t *found = map.find(key);
        sum += found == nullptr ? 1 : *found;
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlatMapLookup)->Arg(1024)->Arg(65536);

void
BM_OpStreamReplay(benchmark::State &state)
{
    // Pure op-dispatch scan over the SoA columns, the shape of the
    // ClusterSim::run() main loop minus the model work.
    const auto &ops = core::standardOps(7, 0.05);
    const prep::OpColumns &col = ops.ops;
    for (auto _ : state) {
        Bytes read = 0;
        Bytes written = 0;
        std::uint64_t other = 0;
        for (std::size_t i = 0; i < col.size(); ++i) {
            switch (col.type[i]) {
              case prep::OpType::Read:
                read += col.length[i];
                break;
              case prep::OpType::Write:
                written += col.length[i];
                break;
              default:
                other += col.file[i];
                break;
            }
        }
        benchmark::DoNotOptimize(read + written + other);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(col.size()));
}
BENCHMARK(BM_OpStreamReplay);

void
BM_ReplayGrid(benchmark::State &state)
{
    // The replay grid scheduler itself: all three models on trace 4,
    // fanned out at explicit width jobs (1 = the serial model loop the
    // grid is bit-identical to).  The jobs:N / jobs:1 real-time ratio
    // is the grid speedup in BENCH_e2e.json.
    const auto width = static_cast<unsigned>(state.range(0));
    const auto &ops = core::standardOps(4, 0.05);
    std::vector<core::ModelConfig> models;
    for (const auto kind :
         {core::ModelKind::Volatile, core::ModelKind::WriteAside,
          core::ModelKind::Unified}) {
        core::ModelConfig model;
        model.kind = kind;
        model.volatileBytes = 8 * kMiB;
        model.nvramBytes = kMiB;
        models.push_back(model);
    }
    for (auto _ : state) {
        const auto results =
            core::runClientGrid(ops, models, 42, width);
        benchmark::DoNotOptimize(results.front().appWriteBytes);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(models.size()));
}
BENCHMARK(BM_ReplayGrid)
    ->ArgName("jobs")
    ->Arg(1)->Arg(2)->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_CurveSweep(benchmark::State &state)
{
    // The multi-size sweep both ways: curve=1 is one single-pass
    // replay classifying every event against all sizes at once;
    // curve=0 is one replay per size on the client models
    // (ClusterSim), one after another (runClientSim and the replay
    // grid would replay those cells on the curve engine themselves).
    // The per-size:curve time ratio is the curve_speedups entry in
    // BENCH_e2e.json.  nvram=1 sweeps NVRAM sizes under the unified
    // model (the Fig 3-4 grid), nvram=2 under the write-aside model
    // (Fig 5's write-aside column), and nvram=0 sweeps volatile cache
    // sizes (the Fig 6 volatile series).
    const auto nvram_axis = state.range(0);
    const bool curve = state.range(1) != 0;
    const auto &ops = core::standardOps(7, core::benchScale());
    core::CurveSpec spec;
    if (nvram_axis != 0) {
        spec.base.kind = nvram_axis == 1 ? core::ModelKind::Unified
                                         : core::ModelKind::WriteAside;
        spec.base.volatileBytes = 8 * kMiB;
        spec.axis = core::CurveAxis::NvramBytes;
        spec.sizes = bench::nvramSizeGridBytes();
    } else {
        spec.base.kind = core::ModelKind::Volatile;
        spec.axis = core::CurveAxis::VolatileBytes;
        for (const double extra : {0.0, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0})
            spec.sizes.push_back(
                8 * kMiB + static_cast<Bytes>(extra * kMiB));
    }
    const std::vector<core::ModelConfig> models =
        core::curveGridModels(spec);
    for (auto _ : state) {
        if (curve) {
            const auto rows = core::runCurveSim(ops, spec);
            benchmark::DoNotOptimize(rows.front().appWriteBytes);
            continue;
        }
        for (const core::ModelConfig &model : models) {
            core::ClusterConfig config;
            config.model = model;
            config.seed = spec.seed;
            core::ClusterSim sim(config, ops.clientCount);
            const core::Metrics row = sim.run(ops);
            benchmark::DoNotOptimize(row.appWriteBytes);
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(spec.sizes.size()));
}
BENCHMARK(BM_CurveSweep)
    ->ArgNames({"nvram", "curve"})
    ->Args({0, 0})->Args({0, 1})
    ->Args({1, 0})->Args({1, 1})
    ->Args({2, 0})->Args({2, 1})
    ->Unit(benchmark::kMillisecond);

void
BM_HostReference(benchmark::State &state)
{
    // Fixed work apart from the simulator, perfbench's host reference:
    // sort 64K fresh pseudo-random keys on one thread.  bench_compare.py
    // divides every whole-trace replay by it, so the e2e gate compares
    // the simulator's speed, not the host's.
    std::vector<std::uint32_t> keys(std::size_t{1} << 16);
    std::uint64_t lcg = 7;
    for (auto _ : state) {
        for (std::uint32_t &key : keys) {
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            key = static_cast<std::uint32_t>(lcg >> 32);
        }
        std::sort(keys.begin(), keys.end());
        benchmark::DoNotOptimize(keys.front());
    }
}
BENCHMARK(BM_HostReference)->Unit(benchmark::kMillisecond);

void
BM_PipelinedSweep(benchmark::State &state)
{
    // perfbench's client_figures shape at runner width Arg(0): traces
    // 3, 4 and 7 through runPipelined, each replaying the Fig 5 grid
    // (three models, 0.5-4 MB of extra memory on an 8 MB volatile
    // cache) and then the volatile and unified curves over the ten
    // paper sizes.  Width 1 runs the points one after another; wider
    // runs overlap them and share the pool with their grids.
    const double scale = 0.05;
    const std::vector<int> traces{3, 4, 7};
    for (const int t : traces)
        core::standardOps(t, scale);
    std::vector<core::ModelConfig> grid;
    for (const double mb : {0.5, 1.0, 2.0, 4.0}) {
        const auto extra = static_cast<Bytes>(mb * kMiB);
        for (const auto kind :
             {core::ModelKind::Volatile, core::ModelKind::WriteAside,
              core::ModelKind::Unified}) {
            core::ModelConfig model;
            model.kind = kind;
            model.volatileBytes = 8 * kMiB;
            if (kind == core::ModelKind::Volatile)
                model.volatileBytes += extra;
            else
                model.nvramBytes = extra;
            grid.push_back(model);
        }
    }
    std::vector<core::CurveSpec> curves(2);
    curves[0].base.kind = core::ModelKind::Volatile;
    curves[0].axis = core::CurveAxis::VolatileBytes;
    curves[1].base.kind = core::ModelKind::Unified;
    curves[1].axis = core::CurveAxis::NvramBytes;
    for (const Bytes size : bench::nvramSizeGridBytes()) {
        curves[0].sizes.push_back(8 * kMiB + size);
        curves[1].sizes.push_back(size);
    }
    const core::SweepRunner runner(
        static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        const auto tables = runner.runPipelined(
            traces,
            [scale](const int &t) -> const prep::OpStream & {
                return core::standardOps(t, scale);
            },
            [&](const prep::OpStream &ops) {
                std::vector<std::vector<core::Metrics>> rows{
                    runner.runClientSweep(ops, grid)};
                for (const core::CurveSpec &spec : curves)
                    rows.push_back(runner.runCurveSweep(ops, spec));
                return rows;
            });
        benchmark::DoNotOptimize(tables.front().front().front());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(
            traces.size() *
            (grid.size() + curves[0].sizes.size() +
             curves[1].sizes.size())));
}
BENCHMARK(BM_PipelinedSweep)
    ->ArgName("jobs")
    ->Arg(1)->Arg(2)->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

// BENCHMARK_MAIN() expanded so the obs export hooks (NVFS_STATS_OUT /
// NVFS_TRACE_OUT) register before any benchmark runs —
// bench_compare.py reads the JSON snapshot to attach counter deltas
// to BENCH_e2e.json entries.
int
main(int argc, char **argv)
{
    nvfs::obs::autoExportFromEnv();
    // bench_compare.py records the build type beside the core count.
    benchmark::AddCustomContext("nvfs_build_type", NVFS_BUILD_TYPE);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

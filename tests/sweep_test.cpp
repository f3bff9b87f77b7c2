/**
 * @file
 * SweepRunner determinism and the pool's claim loop: a parallel sweep
 * must return exactly what the serial loop it replaces would have,
 * in the same order, for any worker count — and the memoized
 * experiment caches must be safe to hit from concurrent tasks.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/sim/sweep.hpp"
#include "prep/converter.hpp"
#include "trace/stream.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace nvfs::core {
namespace {

constexpr double kScale = 0.02;

/**
 * One cell replayed on the models (ClusterSim), the oracle for the
 * grid: runClientSim and runClientGrid replay LRU cells on the curve
 * engine, so comparing against them would compare the curve with
 * itself.
 */
Metrics
modelReplay(const prep::OpStream &ops, const ModelConfig &model)
{
    ClusterConfig config;
    config.model = model;
    ClusterSim sim(config, std::max<std::uint32_t>(1, ops.clientCount));
    return sim.run(ops);
}

/** The grid every determinism test sweeps: 3 models x 4 sizes. */
std::vector<ModelConfig>
standardGrid()
{
    std::vector<ModelConfig> models;
    for (const double mb : {0.25, 0.5, 1.0, 2.0}) {
        for (const auto kind :
             {ModelKind::Volatile, ModelKind::WriteAside,
              ModelKind::Unified}) {
            ModelConfig model;
            model.kind = kind;
            model.volatileBytes = 4 * kMiB;
            model.nvramBytes = static_cast<Bytes>(mb * kMiB);
            models.push_back(model);
        }
    }
    return models;
}

/** Labels nothing: bodies run under the caller's own TaskLabel. */
std::string
noLabel(std::size_t)
{
    return {};
}

TEST(ThreadPool, DefaultJobCountIsPositive)
{
    EXPECT_GE(util::defaultJobCount(), 1u);
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    // Pools of 1, 2 and 8 workers under a loop 16 wide: every body
    // runs, however many helpers the pool can actually lend.
    for (const unsigned jobs : {1u, 2u, 8u}) {
        util::ThreadPool pool(jobs);
        std::atomic<int> count{0};
        pool.forEach(100, 16, noLabel,
                     [&count](std::size_t) { ++count; });
        EXPECT_EQ(count.load(), 100) << "at " << jobs << " jobs";
    }
}

TEST(ThreadPool, WaitIsReusable)
{
    // forEach returns only once every body ran, so one pool serves
    // loop after loop, a one-index loop (no helpers at all) included.
    util::ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.forEach(1, 2, noLabel, [&count](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 1);
    pool.forEach(2, 2, noLabel, [&count](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    // forEach is the pool's parallel for.  Widths 1, 2 and 8 on a
    // 4-worker pool, and 64, far above it: every index must run
    // once, and only once, whoever claims it.
    util::ThreadPool pool(4);
    const std::size_t n = 1009;
    for (const unsigned width : {1u, 2u, 8u, 64u}) {
        std::vector<std::atomic<int>> touched(n);
        pool.forEach(n, width, noLabel, [&touched](std::size_t i) {
            touched[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(touched[i].load(), 1)
                << "index " << i << " at width " << width;
    }
}

TEST(ThreadPool, ForEachRethrowsLowestIndexException)
{
    // Two indices throw; every body still runs, and the lowest
    // index's exception wins whichever thread reached it first — so
    // the error matches the serial loop's at every width.
    util::ThreadPool pool(4);
    for (const unsigned width : {1u, 4u}) {
        std::atomic<int> ran{0};
        std::string what;
        try {
            pool.forEach(
                64, width,
                [](std::size_t i) { return "cell " + std::to_string(i); },
                [&ran](std::size_t i) {
                    ++ran;
                    if (i == 3 || i == 10)
                        throw std::runtime_error("failed");
                });
        } catch (const util::TaskError &error) {
            what = error.what();
        }
        EXPECT_EQ(what, "cell 3: failed") << "at width " << width;
        EXPECT_EQ(ran.load(), 64) << "at width " << width;
    }
}

TEST(ThreadPool, NestedLoopsFinish)
{
    // The map -> grid shape, two levels deep on one small pool: every
    // outer body runs an inner loop of its own.  Callers never wait
    // on a queued helper, so the pool's two workers being busy with
    // outer bodies cannot wedge the inner loops.
    util::ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.forEach(8, 8, noLabel, [&](std::size_t) {
        pool.forEach(8, 8, noLabel, [&](std::size_t) {
            pool.forEach(4, 4, noLabel, [&](std::size_t) { ++count; });
        });
    });
    EXPECT_EQ(count.load(), 8 * 8 * 4);
}

TEST(ThreadPool, ThrowingTaskSurfacesToWaitAndPoolStaysUsable)
{
    // A loop whose bodies throw must still finish every body and
    // surface the error when it returns; the next loops on the pool
    // run normally.
    util::ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.forEach(32, 4, noLabel,
                              [&ran](std::size_t i) {
                                  ++ran;
                                  if (i % 8 == 0)
                                      throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 32);
    for (int loop = 0; loop < 3; ++loop)
        pool.forEach(8, 4, noLabel, [&ran](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 32 + 3 * 8);
}

TEST(ThreadPool, ThrowingTasksDoNotDeadlockDestruction)
{
    // Destroying a pool right after loops whose bodies all threw
    // (helpers may still be queued) must join cleanly.
    util::ThreadPool pool(4);
    for (int loop = 0; loop < 16; ++loop) {
        EXPECT_THROW(pool.forEach(64, 4, noLabel,
                                  [](std::size_t) {
                                      throw std::runtime_error("x");
                                  }),
                     std::runtime_error);
    }
}

TEST(SweepRunner, MapPreservesSubmissionOrder)
{
    // More tasks than threads: results must still land in order.
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 64; ++i)
        tasks.push_back([i] { return i * i; });
    const SweepRunner runner(4);
    const auto results = runner.map(tasks);
    ASSERT_EQ(results.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(results[i], i * i);
}

TEST(SweepRunner, MapRethrowsTaskExceptions)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back([i]() -> int {
            if (i == 5)
                throw std::runtime_error("task 5 failed");
            return i;
        });
    }
    const SweepRunner runner(4);
    EXPECT_THROW(runner.map(tasks), std::runtime_error);
}

TEST(SweepRunner, EmptySweepIsEmpty)
{
    const SweepRunner runner(4);
    EXPECT_TRUE(runner.map(std::vector<std::function<int()>>{})
                    .empty());
    EXPECT_TRUE(runner
                    .runClientSweep(standardOps(7, kScale), {})
                    .empty());
}

TEST(SweepRunner, JobsResolveToAtLeastOne)
{
    EXPECT_GE(SweepRunner().jobs(), 1u);
    EXPECT_EQ(SweepRunner(3).jobs(), 3u);
}

TEST(SweepRunner, ClientSweepMatchesSerialForAnyWorkerCount)
{
    const auto &ops = standardOps(7, kScale);
    const auto models = standardGrid();

    std::vector<Metrics> serial;
    for (const ModelConfig &model : models)
        serial.push_back(modelReplay(ops, model));

    for (const unsigned jobs : {1u, 2u, 8u}) {
        const SweepRunner runner(jobs);
        const auto parallel = runner.runClientSweep(ops, models);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(parallel[i], serial[i])
                << "config " << i << " diverged at " << jobs
                << " jobs";
    }
}

TEST(SweepRunner, ServerSweepMatchesSerial)
{
    const TimeUs duration = kUsPerHour / 2;
    std::vector<ServerSweepConfig> configs;
    for (const Bytes buffer : {Bytes{0}, Bytes{128 * kKiB}})
        configs.push_back({duration, 0.1, buffer});

    std::vector<ServerRunResult> serial;
    for (const ServerSweepConfig &config : configs)
        serial.push_back(runServerSim(config.duration, config.scale,
                                      config.nvramBufferBytes,
                                      config.seed));

    const SweepRunner runner(2);
    const auto parallel = runner.runServerSweep(configs);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].totalDiskWrites,
                  serial[i].totalDiskWrites);
        EXPECT_EQ(parallel[i].totalDataBytes,
                  serial[i].totalDataBytes);
        ASSERT_EQ(parallel[i].fs.size(), serial[i].fs.size());
        for (std::size_t f = 0; f < serial[i].fs.size(); ++f) {
            EXPECT_EQ(parallel[i].fs[f].log.segmentsWritten,
                      serial[i].fs[f].log.segmentsWritten);
            EXPECT_EQ(parallel[i].fs[f].log.dataBytes,
                      serial[i].fs[f].log.dataBytes);
        }
    }
}

TEST(SweepRunner, ConcurrentFirstTouchOfMemoizedCaches)
{
    // Many tasks hitting the same *cold* memoized entries: the mutex
    // guards must serialize generation and hand every task the same
    // stable reference.  Uses a (trace, scale) pair no other test
    // warms first.
    std::vector<std::function<const prep::OpStream *()>> tasks;
    for (int i = 0; i < 16; ++i) {
        tasks.push_back(
            [] { return &standardOps(3, 0.011); });
    }
    const SweepRunner runner(8);
    const auto pointers = runner.map(tasks);
    for (const prep::OpStream *ops : pointers)
        EXPECT_EQ(ops, pointers.front());

    // Same for the lifetime and oracle caches.
    std::vector<std::function<const void *()>> more;
    for (int i = 0; i < 8; ++i)
        more.push_back(
            [] { return static_cast<const void *>(
                     &standardLifetimes(3, 0.011)); });
    for (int i = 0; i < 8; ++i)
        more.push_back(
            [] { return static_cast<const void *>(
                     &standardOracle(3, 0.011)); });
    const auto stable = runner.map(more);
    for (int i = 1; i < 8; ++i)
        EXPECT_EQ(stable[i], stable[0]);
    for (int i = 9; i < 16; ++i)
        EXPECT_EQ(stable[i], stable[8]);
}

TEST(SweepRunner, StressManyMoreTasksThanThreads)
{
    const auto &ops = standardOps(7, kScale);
    ModelConfig model;
    model.kind = ModelKind::Unified;
    model.volatileBytes = 4 * kMiB;
    model.nvramBytes = kMiB;
    // Clock has no curve pass, so the grid replays every cell alone.
    model.nvramPolicy = cache::PolicyKind::Clock;
    const Metrics expected = modelReplay(ops, model);

    // 32 identical sims through 4 threads: every slot must hold the
    // same metrics (no cross-task state leakage).
    const std::vector<ModelConfig> models(32, model);
    const SweepRunner runner(4);
    const auto results = runner.runClientSweep(ops, models);
    ASSERT_EQ(results.size(), 32u);
    for (const Metrics &metrics : results)
        EXPECT_EQ(metrics, expected);
}

TEST(SweepRunner, PipelinedPreservesPointOrderAndResults)
{
    // Points run concurrently, yet the results come back in point
    // order, each replayed from its own point's prepared value, and
    // every point is prepared and replayed exactly once.
    std::vector<int> points(9);
    std::iota(points.begin(), points.end(), 0);
    for (const unsigned width : {1u, 2u, 8u}) {
        std::vector<std::atomic<int>> prepared(points.size());
        std::vector<std::atomic<int>> replayed(points.size());
        const auto results = SweepRunner(width).runPipelined(
            points,
            [&prepared](const int &p) {
                prepared[static_cast<std::size_t>(p)].fetch_add(1);
                return p * 10;
            },
            [&replayed](int v) {
                replayed[static_cast<std::size_t>(v / 10)].fetch_add(1);
                return v + 1;
            });
        ASSERT_EQ(results.size(), points.size()) << "width " << width;
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_EQ(results[i], static_cast<int>(i) * 10 + 1)
                << "width " << width;
            EXPECT_EQ(prepared[i].load(), 1)
                << "point " << i << ", width " << width;
            EXPECT_EQ(replayed[i].load(), 1)
                << "point " << i << ", width " << width;
        }
    }
}

TEST(SweepRunner, PipelinedRethrowsPrepareErrorAtItsPoint)
{
    // Prepares at points 3 and 5 throw.  Every point still runs, the
    // other six replay, and the lowest failing point's error surfaces
    // named by its point, at every width.
    std::vector<int> points(8);
    std::iota(points.begin(), points.end(), 0);
    for (const unsigned width : {1u, 4u}) {
        std::vector<std::atomic<int>> prepared(points.size());
        std::vector<std::atomic<int>> replayed(points.size());
        try {
            SweepRunner(width).runPipelined(
                points,
                [&prepared](const int &p) {
                    prepared[static_cast<std::size_t>(p)].fetch_add(1);
                    if (p == 3 || p == 5)
                        throw std::runtime_error(
                            "prepare " + std::to_string(p) + " failed");
                    return p;
                },
                [&replayed](int v) {
                    replayed[static_cast<std::size_t>(v)].fetch_add(1);
                    return v;
                });
            FAIL() << "runPipelined must rethrow (width " << width << ")";
        } catch (const util::TaskError &error) {
            EXPECT_STREQ(error.what(), "sweep point 3: prepare 3 failed")
                << "width " << width;
        }
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_EQ(prepared[i].load(), 1)
                << "point " << i << ", width " << width;
            EXPECT_EQ(replayed[i].load(), i == 3 || i == 5 ? 0 : 1)
                << "point " << i << ", width " << width;
        }
    }
}

TEST(SweepRunner, PipelinedPointsOverlap)
{
    // At width 2, point 1 is prepared while point 0 replays: point
    // 0's replay waits (up to 10 s) to see point 1's prepare start.
    // A serial sweep prepares point 1 only after that replay returns.
    std::atomic<bool> second_prepared{false};
    const std::vector<int> points{0, 1};
    const auto saw_second = SweepRunner(2).runPipelined(
        points,
        [&second_prepared](const int &p) {
            if (p == 1)
                second_prepared.store(true);
            return p;
        },
        [&second_prepared](int p) {
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (p == 0 && !second_prepared.load() &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return second_prepared.load();
        });
    ASSERT_EQ(saw_second.size(), points.size());
    EXPECT_TRUE(saw_second[0])
        << "point 1 was not prepared while point 0 replayed";
}

/** All three models at a 4 MB volatile / 512 KB NVRAM point. */
std::vector<ModelConfig>
gridModels()
{
    std::vector<ModelConfig> models;
    for (const auto kind : {ModelKind::Volatile, ModelKind::WriteAside,
                            ModelKind::Unified}) {
        ModelConfig model;
        model.kind = kind;
        model.volatileBytes = 4 * kMiB;
        model.nvramBytes = kMiB / 2;
        models.push_back(model);
    }
    return models;
}

TEST(SweepRunner, GridMatchesSerialEveryTraceEngineAndModel)
{
    // The replay grid must be bit-identical to replaying each cell on
    // the models in a serial loop, for any width, with the invariant
    // audits on: traces 3/4/7, all three models.
    ::setenv("NVFS_AUDIT", "2048", 1);
    const auto models = gridModels();
    for (const int t : {3, 4, 7}) {
        const auto &ops = standardOps(t, kScale);

        std::vector<Metrics> serial;
        serial.reserve(models.size());
        for (const ModelConfig &model : models)
            serial.push_back(modelReplay(ops, model));

        const auto one = runClientGrid(ops, models, 42, 1);
        const auto eight = runClientGrid(ops, models, 42, 8);

        ASSERT_EQ(one.size(), models.size());
        ASSERT_EQ(eight.size(), models.size());
        for (std::size_t c = 0; c < models.size(); ++c) {
            EXPECT_EQ(one[c], serial[c])
                << "trace " << t << " model " << c
                << " diverged at grid width 1";
            EXPECT_EQ(eight[c], serial[c])
                << "trace " << t << " model " << c
                << " diverged at grid width 8";
        }
    }
    ::unsetenv("NVFS_AUDIT");
}

TEST(SweepRunner, GridGroupsMatchPerCellReplay)
{
    // runClientGrid replays each group of cells that differ only in
    // the swept size as one curve pass and every other cell alone; at
    // any width every row must still be its cell's own replay on the
    // models.  The grid holds Fig 5's three columns (a curve pass
    // each), a Clock group (no curve pass: its cells replay alone on
    // the models), a lone cell (a one-size pass), and unified cells on
    // a second volatile size, which share NVRAM sizes with the Fig 5
    // column but not its volatile cache.
    std::vector<ModelConfig> models;
    for (const double mb : {0.0, 0.5, 1.0, 2.0}) {
        const auto extra = static_cast<Bytes>(mb * kMiB);
        for (const auto kind : {ModelKind::Volatile, ModelKind::WriteAside,
                                ModelKind::Unified}) {
            ModelConfig model;
            model.kind = kind;
            model.volatileBytes = 4 * kMiB;
            if (kind == ModelKind::Volatile)
                model.volatileBytes += extra;
            else
                model.nvramBytes = extra == 0 ? kBlockSize : extra;
            models.push_back(model);
        }
    }
    for (const Bytes nvram : {kMiB / 2, kMiB}) {
        ModelConfig clock;
        clock.kind = ModelKind::Unified;
        clock.volatileBytes = 4 * kMiB;
        clock.nvramBytes = nvram;
        clock.nvramPolicy = cache::PolicyKind::Clock;
        models.push_back(clock);
        ModelConfig smaller = clock;
        smaller.nvramPolicy = cache::PolicyKind::Lru;
        smaller.volatileBytes = 2 * kMiB;
        models.push_back(smaller);
    }
    ModelConfig lone;
    lone.kind = ModelKind::WriteAside;
    lone.volatileBytes = 2 * kMiB;
    lone.nvramBytes = kMiB;
    models.push_back(lone);

    for (const int t : {3, 7}) {
        const auto &ops = standardOps(t, kScale);
        std::vector<Metrics> serial;
        for (const ModelConfig &model : models)
            serial.push_back(modelReplay(ops, model));
        for (const unsigned width : {1u, 8u}) {
            const auto grid = runClientGrid(ops, models, 42, width);
            ASSERT_EQ(grid.size(), models.size());
            for (std::size_t c = 0; c < models.size(); ++c) {
                EXPECT_EQ(grid[c], serial[c])
                    << "trace " << t << " model " << c << " ("
                    << modelKindName(models[c].kind)
                    << ") diverged at grid width " << width;
            }
        }
    }
}

TEST(SweepRunner, GridExplicitWidthMatchesSerial)
{
    // Widths beyond the model count or the pool size must not change
    // results either.
    const auto &ops = standardOps(3, kScale);
    const auto models = gridModels();
    const auto serial = runClientGrid(ops, models, 42, 1);
    for (const unsigned width : {2u, 3u, 64u}) {
        const auto wide = runClientGrid(ops, models, 42, width);
        ASSERT_EQ(wide.size(), serial.size());
        for (std::size_t c = 0; c < models.size(); ++c)
            EXPECT_EQ(wide[c], serial[c])
                << "model " << c << " diverged at width " << width;
    }
}

TEST(SweepRunner, GridJunkAuditKnobIsFatalOnWorkers)
{
    // NVFS_AUDIT is read inside every replay, so a wide grid meets a
    // junk value on several pool workers at once; the process must
    // still end cleanly with the message and status 1.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto &ops = standardOps(3, kScale);
    const auto models = gridModels();
    ::setenv("NVFS_AUDIT", "often", 1);
    EXPECT_EXIT(runClientGrid(ops, models, 42, 8),
                ::testing::ExitedWithCode(1),
                "NVFS_AUDIT='often' is not an integer in");
    ::unsetenv("NVFS_AUDIT");
}

TEST(SweepRunner, GridInsidePipelinedSweepMatchesSerial)
{
    // Full acceptance path, in perfbench's client_figures shape: real
    // trace files through runPipelined (mmap ingest + prep), each
    // point replaying a model grid and then a volatile and a unified
    // curve sweep, at runner width 8 (points and grid cells race; the
    // TSan job runs this at NVFS_JOBS=8) and width 1: the metric
    // tables must be byte-identical.
    const std::string dir = testing::TempDir() + "nvfs_grid_sweep";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<std::string> paths;
    for (const int t : {3, 4, 7}) {
        const std::string path =
            dir + "/trace" + std::to_string(t) + ".nvt";
        trace::writeTraceFile(
            path, workload::generateStandardTrace(t, 0.01));
        paths.push_back(path);
    }
    const auto models = gridModels();
    std::vector<CurveSpec> curves(2);
    curves[0].base.kind = ModelKind::Volatile;
    curves[0].axis = CurveAxis::VolatileBytes;
    curves[1].base.kind = ModelKind::Unified;
    curves[1].base.volatileBytes = 4 * kMiB;
    curves[1].axis = CurveAxis::NvramBytes;
    for (const double mb : {0.25, 0.5, 1.0, 2.0}) {
        const auto nvram = static_cast<Bytes>(mb * kMiB);
        curves[0].sizes.push_back(4 * kMiB + nvram);
        curves[1].sizes.push_back(nvram);
    }
    auto sweep = [&](unsigned width) {
        const SweepRunner runner(width);
        return runner.runPipelined(
            paths,
            [](const std::string &path) {
                return prep::convertTrace(trace::readTraceFile(path));
            },
            [&](const prep::OpStream &ops) {
                std::vector<std::vector<Metrics>> tables{
                    runner.runClientSweep(ops, models)};
                for (const CurveSpec &spec : curves)
                    tables.push_back(runner.runCurveSweep(ops, spec));
                return tables;
            });
    };

    const auto serial = sweep(1);
    const auto wide = sweep(8);
    ASSERT_EQ(serial.size(), paths.size());
    ASSERT_EQ(wide.size(), paths.size());
    for (std::size_t r = 0; r < paths.size(); ++r) {
        ASSERT_EQ(wide[r].size(), 1 + curves.size());
        ASSERT_EQ(wide[r][0].size(), models.size());
        for (std::size_t t = 0; t < wide[r].size(); ++t) {
            ASSERT_EQ(wide[r][t].size(), serial[r][t].size());
            for (std::size_t c = 0; c < wide[r][t].size(); ++c)
                EXPECT_EQ(wide[r][t][c], serial[r][t][c])
                    << "trace " << r << " table " << t << " cell " << c
                    << " diverged under pipelined replay";
        }
    }
}

} // namespace
} // namespace nvfs::core

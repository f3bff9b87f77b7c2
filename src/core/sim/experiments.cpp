#include "core/sim/experiments.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "core/sim/curve.hpp"
#include "obs/obs.hpp"
#include "prep/converter.hpp"
#include "trace/validate.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"
#include "workload/server_workload.hpp"

namespace nvfs::core {

namespace {

using TraceKey = std::tuple<int, double, bool>;

/**
 * Per-key memoization with per-key generation.  The first caller of a
 * key becomes its builder and runs build() *outside* the map lock;
 * concurrent callers of the same key block on that key's future while
 * callers of different keys build in parallel.  This replaces the
 * PR-1 scheme of one mutex held across the whole generate+validate+
 * convert call, which serialized all sweep workers on first touch.
 * Values are shared_ptrs pinned by the future map, so returned
 * references stay valid for the process lifetime.
 */
template <typename Key, typename Value>
class OnceMap
{
  public:
    template <typename Build>
    const Value &
    get(const Key &key, Build &&build)
    {
        std::promise<std::shared_ptr<const Value>> promise;
        std::shared_future<std::shared_ptr<const Value>> future;
        bool builder = false;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            auto it = futures_.find(key);
            if (it == futures_.end()) {
                it = futures_
                         .emplace(key, promise.get_future().share())
                         .first;
                builder = true;
            }
            future = it->second;
        }
        if (builder) {
            try {
                promise.set_value(
                    std::make_shared<const Value>(build()));
            } catch (...) {
                promise.set_exception(std::current_exception());
                throw;
            }
        }
        return *future.get();
    }

  private:
    std::mutex mutex_;
    std::map<Key, std::shared_future<std::shared_ptr<const Value>>>
        futures_;
};

OnceMap<TraceKey, prep::OpStream> &
traceCache()
{
    static OnceMap<TraceKey, prep::OpStream> cache;
    return cache;
}

OnceMap<std::pair<int, double>, LifetimeResult> &
lifetimeCache()
{
    static OnceMap<std::pair<int, double>, LifetimeResult> cache;
    return cache;
}

OnceMap<std::pair<int, double>, NextModifyIndex> &
oracleCache()
{
    static OnceMap<std::pair<int, double>, NextModifyIndex> cache;
    return cache;
}

/** Generate + validate + convert (the expensive cold path). */
prep::OpStream
generateOps(int paper_number, double scale, bool sprite_compat)
{
    trace::TraceBuffer buffer = workload::generateStandardTrace(
        paper_number, scale, sprite_compat);
    const auto report = trace::validateTrace(buffer);
    if (!report.ok()) {
        util::panic(util::format(
            "generated trace %d failed validation: %zu issues, "
            "first: %s",
            paper_number, report.issues.size(),
            report.issues.front().message.c_str()));
    }
    return prep::convertTrace(buffer);
}

} // namespace

const prep::OpStream &
standardOps(int paper_number, double scale, bool sprite_compat)
{
    return traceCache().get(
        TraceKey{paper_number, scale, sprite_compat}, [&] {
            return generateOps(paper_number, scale, sprite_compat);
        });
}

prep::OpStream
opsWithSeed(int paper_number, double scale, std::uint64_t seed)
{
    workload::GeneratorOptions options;
    options.seed = seed;
    workload::ClientTraceGenerator generator(
        workload::standardProfile(paper_number, scale), options);
    return prep::convertTrace(generator.generate());
}

const LifetimeResult &
standardLifetimes(int paper_number, double scale)
{
    return lifetimeCache().get(
        std::pair<int, double>{paper_number, scale}, [&] {
            return analyzeLifetimes(standardOps(paper_number, scale));
        });
}

const NextModifyIndex &
standardOracle(int paper_number, double scale)
{
    return oracleCache().get(
        std::pair<int, double>{paper_number, scale}, [&] {
            return NextModifyIndex(standardOps(paper_number, scale));
        });
}

Metrics
runClientSim(const prep::OpStream &ops, const ModelConfig &model,
             std::uint64_t seed)
{
    const CurveSpec spec = cellSpec(model, seed);
    if (curveSupported(spec))
        return runCurveSim(ops, spec).front();
    ClusterConfig config;
    config.model = model;
    config.seed = seed;
    ClusterSim sim(config, std::max<std::uint32_t>(1, ops.clientCount));
    return sim.run(ops);
}

namespace {

/**
 * One task of the replay grid: cells of one curve group replayed as
 * one curve pass (`spec` sweeps their sizes, one row per cell, in
 * `cells` order), or one cell replayed alone (`spec.sizes` empty).
 */
struct GridTask
{
    std::vector<std::size_t> cells;
    CurveSpec spec;
};

/** The size a model's grid axis sweeps: the volatile model's cache,
 *  the NVRAM models' NVRAM. */
template <typename Model>
auto &
sweptBytes(Model &model)
{
    return model.kind == ModelKind::Volatile ? model.volatileBytes
                                             : model.nvramBytes;
}

/**
 * Split a grid into tasks.  Cells equal in every ModelConfig field but
 * the swept size form a group (first appearance first).  A group whose
 * spec curveSupported accepts runs as curve passes of at most
 * kCurveMaxSizes sizes, in even chunks (a group of one is a one-size
 * pass); every other cell runs alone on the models.
 */
std::vector<GridTask>
planGrid(const std::vector<ModelConfig> &models, std::uint64_t seed)
{
    std::vector<ModelConfig> bases;
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < models.size(); ++i) {
        ModelConfig base = models[i];
        sweptBytes(base) = 0;
        const auto found = std::find(bases.begin(), bases.end(), base);
        if (found == bases.end()) {
            bases.push_back(base);
            groups.emplace_back(1, i);
        } else {
            groups[static_cast<std::size_t>(found - bases.begin())]
                .push_back(i);
        }
    }
    std::vector<GridTask> tasks;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const std::vector<std::size_t> &group = groups[g];
        const std::size_t n = group.size();
        const std::size_t chunks =
            (n + kCurveMaxSizes - 1) / kCurveMaxSizes;
        for (std::size_t c = 0; c < chunks; ++c) {
            GridTask pass;
            pass.cells.assign(
                group.begin() + static_cast<std::ptrdiff_t>(c * n / chunks),
                group.begin() +
                    static_cast<std::ptrdiff_t>((c + 1) * n / chunks));
            pass.spec.base = bases[g];
            pass.spec.axis = bases[g].kind == ModelKind::Volatile
                                 ? CurveAxis::VolatileBytes
                                 : CurveAxis::NvramBytes;
            pass.spec.seed = seed;
            for (const std::size_t i : pass.cells)
                pass.spec.sizes.push_back(sweptBytes(models[i]));
            if (curveSupported(pass.spec)) {
                tasks.push_back(std::move(pass));
                continue;
            }
            for (const std::size_t i : pass.cells)
                tasks.push_back(GridTask{{i}, {}});
        }
    }
    return tasks;
}

/** TaskError context for one grid task. */
std::string
gridTaskContext(const GridTask &task,
                const std::vector<ModelConfig> &models)
{
    const std::string kind = modelKindName(models[task.cells[0]].kind);
    if (task.spec.sizes.empty()) {
        return "replay grid model " + std::to_string(task.cells[0]) +
               " (" + kind + ")";
    }
    std::string cells;
    for (const std::size_t i : task.cells)
        cells += (cells.empty() ? "" : ", ") + std::to_string(i);
    return "replay grid models " + cells + " (" + kind +
           ", one curve pass)";
}

} // namespace

std::vector<Metrics>
runClientGrid(const prep::OpStream &ops,
              const std::vector<ModelConfig> &models,
              std::uint64_t seed, unsigned width)
{
    static const obs::Counter cells("grid.cells");
    static const obs::Timer cellTimer("grid.cell");
    const std::vector<GridTask> tasks = planGrid(models, seed);
    // A grid that is all one curve group (every runCurveSweep) is a
    // curve sweep: curve.passes and curve.sizes count it, and the
    // grid counters count the other grids' cells and tasks.
    const bool curve_sweep =
        std::all_of(tasks.begin(), tasks.end(), [&](const GridTask &t) {
            return !t.spec.sizes.empty() &&
                   t.spec.base == tasks.front().spec.base;
        });
    if (!curve_sweep)
        cells.add(models.size());
    // Each task is self-contained (a fresh simulator, Metrics and Rng
    // per replay) and writes only its own cells' rows, so the result
    // vector is the same whichever thread replays which task.
    std::vector<Metrics> results(models.size());
    const auto replay = [&](const GridTask &task) {
        if (task.spec.sizes.empty()) {
            results[task.cells[0]] =
                runClientSim(ops, models[task.cells[0]], seed);
            return;
        }
        std::vector<Metrics> rows = runCurveSim(ops, task.spec);
        for (std::size_t r = 0; r < rows.size(); ++r)
            results[task.cells[r]] = rows[r];
    };
    util::ThreadPool::global().forEach(
        tasks.size(), width == 0 ? util::defaultJobCount() : width,
        [&](std::size_t t) { return gridTaskContext(tasks[t], models); },
        [&](std::size_t t) {
            if (curve_sweep) {
                replay(tasks[t]);
                return;
            }
            const obs::StageTimer stage(cellTimer, "grid.cell");
            replay(tasks[t]);
        });
    return results;
}

ServerRunResult
runServerSim(TimeUs duration, double scale, Bytes nvram_buffer_bytes,
             std::uint64_t seed)
{
    const auto profiles = workload::standardFsProfiles(scale);
    const auto ops = workload::generateServerOps(profiles, duration,
                                                 seed);
    std::vector<std::string> names;
    names.reserve(profiles.size());
    for (const auto &profile : profiles)
        names.push_back(profile.name);

    server::ServerConfig config;
    config.nvramBufferBytes = nvram_buffer_bytes;
    server::FileServer fs(names, config);
    fs.run(ops);

    ServerRunResult result;
    for (FsId i = 0; i < names.size(); ++i)
        result.fs.push_back(fs.stats(i));
    result.totalDiskWrites = fs.totalDiskWrites();
    result.totalDataBytes = fs.totalDataBytes();
    return result;
}

namespace {

/** Collects the client sims' server-bound traffic as ServerOps. */
class OpCollector : public ServerWriteSink
{
  public:
    void
    onServerWrite(TimeUs now, FileId file, std::uint32_t block,
                  Bytes bytes, WriteCause) override
    {
        ops_.push_back({now, 0, file,
                        Bytes{block} * kBlockSize, bytes,
                        workload::ServerOp::Kind::Write});
    }

    void
    onFsync(TimeUs now, FileId file) override
    {
        ops_.push_back({now, 0, file, 0, 0,
                        workload::ServerOp::Kind::Fsync});
    }

    std::vector<workload::ServerOp> take() { return std::move(ops_); }

  private:
    std::vector<workload::ServerOp> ops_;
};

/**
 * The cell's replay (runClientSim: a one-size curve pass when
 * curveSupported accepts it) with an OpCollector as its sink; returns
 * the server-bound stream and, into `client`, the cell's Metrics.
 */
std::vector<workload::ServerOp>
replayCollecting(const prep::OpStream &ops, ModelConfig model,
                 std::uint64_t seed, Metrics &client)
{
    OpCollector collector;
    model.sink = &collector;
    client = runClientSim(ops, model, seed);
    return collector.take();
}

} // namespace

std::vector<workload::ServerOp>
collectServerOps(const prep::OpStream &ops, const ModelConfig &model,
                 std::uint64_t seed)
{
    Metrics client;
    return replayCollecting(ops, model, seed, client);
}

EndToEndResult
runEndToEnd(const prep::OpStream &ops, const ModelConfig &model,
            Bytes server_buffer_bytes, std::uint64_t seed)
{
    EndToEndResult result;
    std::vector<workload::ServerOp> server_ops =
        replayCollecting(ops, model, seed, result.client);

    server::ServerConfig config;
    config.nvramBufferBytes = server_buffer_bytes;
    server::FileServer fs({"/users"}, config);
    fs.run(server_ops);
    result.server = fs.stats(0);
    return result;
}

double
benchScale()
{
    // A zero/negative scale would make every workload degenerate, so
    // the accepted range starts just above zero.
    return util::envDouble("NVFS_SCALE", 1.0, 1e-6, 1e6);
}

} // namespace nvfs::core

/**
 * @file
 * perfbench_run — one run of a paper-regeneration workload, timed
 * from outside the simulator.
 *
 *   perfbench_run --workload client_figures|server_buffer|crash_explore
 *                    --seed N --seconds S --trace 0|1 --workdir DIR
 *
 * A run generates its inputs in memory from the seed (set-up, timed and
 * repeated; the first repetitions also warm the allocator), writes the
 * ones read from files into DIR once, then repeats the measured part
 * until S seconds have passed, timing a few more set-ups after each
 * iteration.  Passes of a fixed host reference are timed around every
 * iteration and after every set-up, so run.py can report the timings
 * at a nominal host speed.  The pool width is NVFS_JOBS (see
 * util::defaultJobCount()), which run.py pins.  With --trace 1 every
 * second iteration records spans around each call into a layer's
 * public API and takes obs counter deltas around the iteration; the
 * others stay untraced so the tracing overhead can be measured within
 * the same run.
 *
 * Every iteration checks its outputs cell by cell (a grid cell, a
 * curve size, a server configuration, a crash-exploration cell) and
 * hashes every result into a digest that must repeat across
 * iterations.  Results go to DIR/result.json and, when traced,
 * DIR/spans.json; DIR/progress.jsonl is appended after every iteration
 * so a parent can account for cells left unfinished by a crash.
 * run.py in this directory is the user-facing entry point.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/sim/experiments.hpp"
#include "core/sim/sweep.hpp"
#include "crash/explore.hpp"
#include "crash/registry.hpp"
#include "obs/obs.hpp"
#include "prep/converter.hpp"
#include "trace/stream.hpp"
#include "util/env.hpp"
#include "util/flat_map.hpp"
#include "util/log.hpp"
#include "workload/generator.hpp"
#include "workload/profile.hpp"
#include "workload/server_workload.hpp"

using namespace nvfs;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Process CPU seconds, user + system, summed over every thread. */
double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/** Peak resident set of the process so far, in MiB. */
double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Fixed work that measures how fast the host runs right now, apart
 * from the simulator: sorting 64K pseudo-random keys on one thread.
 * Like the simulator's replay loops it is branchy and works in the
 * core's own caches, so it slows as they do when another tenant shares
 * the core.  A loop that waits on memory hardly slowed at all, and the
 * same sort run on both pool threads at once tracked the iterations
 * less well (NOTES.md, "Host speed").
 */
class HostReference
{
  public:
    /** Seconds one pass of the fixed work takes. */
    double
    time()
    {
        for (std::uint32_t &key : keys_) {
            state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
            key = static_cast<std::uint32_t>(state_ >> 32);
        }
        const auto start = Clock::now();
        std::sort(keys_.begin(), keys_.end());
        return secondsBetween(start, Clock::now());
    }

  private:
    std::vector<std::uint32_t> keys_ = std::vector<std::uint32_t>(1 << 16);
    std::uint64_t state_ = 7;
};

/** Decorrelated per-input seed from the run seed and an input tag. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t tag)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// ---- JSON output ------------------------------------------------------

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

// ---- output digest ----------------------------------------------------

/** FNV-1a over every simulated result, word by word. */
class Digest
{
  public:
    void
    add(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (word >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ULL;
        }
    }

    void
    add(const std::string &text)
    {
        add(text.size());
        for (const char c : text)
            add(static_cast<unsigned char>(c));
    }

    void
    add(const core::Metrics &m)
    {
        add(m.appWriteBytes);
        add(m.appReadBytes);
        for (const Bytes bytes : m.serverWriteBytes)
            add(bytes);
        add(m.serverReadBytes);
        add(m.busBytes);
        add(m.nvramReadAccesses);
        add(m.nvramWriteAccesses);
        add(m.cacheToNvramBytes);
        add(m.nvramToCacheBytes);
        add(m.absorbedDeletedBytes);
        add(m.absorbedOverwrittenBytes);
        add(m.lostDirtyBytes);
    }

    void
    add(const server::FsStats &fs)
    {
        add(fs.name);
        const lfs::LogStats &log = fs.log;
        for (const std::uint64_t v :
             {log.segmentsWritten, log.fullSegments, log.partialSegments,
              log.partialsByFsync, log.partialsByTimeout,
              log.cleanerSegments, log.dataBytes, log.metadataBytes,
              log.summaryBytes, log.fsyncDataBytes, log.partialDataBytes,
              log.cleanerCopiedBytes})
            add(v);
        add(fs.arrivedBytes);
        add(fs.fsyncs);
        add(fs.fsyncsAbsorbed);
        add(fs.bufferOverflows);
    }

    void
    add(const crash::ExploreResult &r)
    {
        add(r.sitesTotal);
        for (const std::uint64_t n : r.sitesByKind)
            add(n);
        add(r.crashesExplored);
        add(r.violations.size());
        for (const crash::Violation &v : r.violations) {
            add(v.site);
            add(v.what);
        }
        add(r.segmentsQuarantined);
        add(r.blocksLost);
        add(r.metaOpsLost);
    }

    void
    add(const core::LifetimeResult &life)
    {
        add(life.totalWritten);
        for (const Bytes bytes : life.byFate)
            add(bytes);
        add(life.runs.size());
    }

    void
    add(const std::vector<workload::ServerOp> &ops)
    {
        add(ops.size());
        for (const workload::ServerOp &op : ops) {
            add(op.time);
            add((std::uint64_t{op.fs} << 8) |
                static_cast<std::uint64_t>(op.kind));
            add(op.file);
            add(op.offset);
            add(op.length);
        }
    }

    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(hash_));
        return buf;
    }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// ---- spans ------------------------------------------------------------

/** One recorded call into a layer. */
struct Span
{
    const char *name = "";
    std::int64_t parent = -1; ///< index into the same log; -1 = none
    double start = 0;         ///< seconds since the log's epoch
    double end = 0;
};

/** In-memory span buffer of one traced iteration (thread-safe). */
class SpanLog
{
  public:
    std::int64_t
    open(const char *name, std::int64_t parent)
    {
        const double now = secondsBetween(epoch_, Clock::now());
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, parent, now, now});
        return static_cast<std::int64_t>(spans_.size() - 1);
    }

    void
    close(std::int64_t id)
    {
        const double now = secondsBetween(epoch_, Clock::now());
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end = now;
    }

    /** Call only once every span is closed. */
    const std::vector<Span> &spans() const { return spans_; }

  private:
    const Clock::time_point epoch_ = Clock::now();
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/** The innermost open span on this thread (default parent). */
thread_local std::int64_t tlsOpenSpan = -1;

/** RAII span; a no-op when the iteration is untraced (log == null). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name)
        : ScopedSpan(log, name, tlsOpenSpan)
    {
    }

    /** Explicit parent, for spans opened on a pool worker. */
    ScopedSpan(SpanLog *log, const char *name, std::int64_t parent)
        : log_(log), saved_(tlsOpenSpan)
    {
        if (log_ != nullptr) {
            id_ = log_->open(name, parent);
            tlsOpenSpan = id_;
        }
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan()
    {
        if (log_ != nullptr) {
            log_->close(id_);
            tlsOpenSpan = saved_;
        }
    }

    std::int64_t id() const { return id_; }

  private:
    SpanLog *log_;
    std::int64_t saved_;
    std::int64_t id_ = -1;
};

/**
 * Self time of every span: its duration minus the union of its
 * children's intervals clipped to it (children on pool workers may
 * overlap one another).
 */
std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &span : spans) {
        if (span.parent >= 0) {
            children[static_cast<std::size_t>(span.parent)].push_back(
                {span.start, span.end});
        }
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0;
        double reach = spans[i].start;
        for (auto [begin, end] : kids) {
            begin = std::max(begin, reach);
            end = std::min(end, spans[i].end);
            if (end > begin) {
                covered += end - begin;
                reach = end;
            }
        }
        self[i] = std::max(0.0, spans[i].end - spans[i].start - covered);
    }
    return self;
}

// ---- one iteration ----------------------------------------------------

/** Counts seen at the API calls, for the per-layer metrics. */
struct Tally
{
    double traceEvents = 0;
    double prepOps = 0;
    double lifetimeRuns = 0;
    double gridCells = 0;    ///< cells requested from runClientGrid
    double gridCellOps = 0;  ///< op-stream length x those cells
    double curveSizeOps = 0; ///< op-stream length x curve sizes
    double serverOps = 0;    ///< ops replayed here via FileServer::run
    double diskBytes = 0;
    double dataBytes = 0;
    double diskWrites = 0;
    double cleanerSegments = 0;
    double bufferedFsyncs = 0;
    double fsyncsAbsorbed = 0;
    double bufferOverflows = 0;
    double sitesTotal = 0;
    double crashes = 0;
    double violations = 0;
    double quarantined = 0;
    double blocksLost = 0;

    void
    addFs(const server::FsStats &fs, bool buffered)
    {
        diskBytes += static_cast<double>(fs.log.diskBytes());
        dataBytes += static_cast<double>(fs.log.dataBytes);
        diskWrites += static_cast<double>(fs.diskWrites());
        cleanerSegments += static_cast<double>(fs.log.cleanerSegments);
        bufferOverflows += static_cast<double>(fs.bufferOverflows);
        if (buffered) {
            bufferedFsyncs += static_cast<double>(fs.fsyncs);
            fsyncsAbsorbed += static_cast<double>(fs.fsyncsAbsorbed);
        }
    }
};

/** State one iteration fills in. */
struct Iteration
{
    SpanLog *spans = nullptr; ///< null: untraced
    std::uint64_t attempted = 0;
    std::uint64_t passed = 0;
    std::vector<std::string> failures;
    Digest digest;
    double simOps = 0;
    double probeSeconds = 0; ///< traced-only extra work (crash census)
    Tally tally;

    /** Record one result cell's output check. */
    void
    cell(bool ok, const std::string &what)
    {
        if (ok) {
            ++passed;
        } else if (failures.size() < 20) {
            failures.push_back(what);
        }
    }
};

/** A workload: inputs generated from a seed, and a measured part. */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual std::uint64_t cellsPerIteration() const = 0;
    /** Generates the inputs in memory; timed and repeated. */
    virtual void setup(std::uint64_t seed) = 0;
    /** Once, untimed, after the last setup(): writes inputs that the
     *  measured part reads from files into dir. */
    virtual void store(const std::string &dir) { (void)dir; }
    virtual void run(Iteration &it) = 0;
};

core::ModelConfig
modelOf(core::ModelKind kind)
{
    core::ModelConfig model;
    model.kind = kind;
    return model;
}

constexpr core::ModelKind kModels[] = {core::ModelKind::Volatile,
                                       core::ModelKind::WriteAside,
                                       core::ModelKind::Unified};

/**
 * Figures 3-6: traces 3, 4 and 7 read from binary trace files through
 * the pipelined sweep; each is prepared (ingest, prep, lifetime pass)
 * and then replayed through the Fig 5 model grid and the volatile and
 * unified size curves.
 */
class ClientFigures final : public Workload
{
  public:
    ClientFigures()
    {
        for (const double mb : kGridMb) {
            const auto nvram = static_cast<Bytes>(mb * kMiB);
            for (const core::ModelKind kind : kModels) {
                core::ModelConfig model = modelOf(kind);
                if (kind == core::ModelKind::Volatile) {
                    model.volatileBytes = kBaseVolatile + nvram;
                } else {
                    model.volatileBytes = kBaseVolatile;
                    model.nvramBytes = nvram;
                }
                grid_.push_back(model);
            }
        }
        for (const core::ModelKind kind :
             {core::ModelKind::Volatile, core::ModelKind::Unified}) {
            core::CurveSpec spec;
            spec.base = modelOf(kind);
            spec.base.volatileBytes = kBaseVolatile;
            spec.axis = kind == core::ModelKind::Volatile
                            ? core::CurveAxis::VolatileBytes
                            : core::CurveAxis::NvramBytes;
            for (const Bytes size : bench::nvramSizeGridBytes()) {
                spec.sizes.push_back(
                    kind == core::ModelKind::Volatile
                        ? kBaseVolatile + size
                        : size);
            }
            curves_.push_back(spec);
        }
    }

    std::uint64_t
    cellsPerIteration() const override
    {
        std::size_t per_trace = grid_.size();
        for (const core::CurveSpec &spec : curves_)
            per_trace += spec.sizes.size();
        return std::size(kTraces) * per_trace;
    }

    void
    setup(std::uint64_t seed) override
    {
        traces_.clear();
        for (const int number : kTraces) {
            workload::GeneratorOptions options;
            options.seed = mixSeed(seed, static_cast<std::uint64_t>(number));
            workload::ClientTraceGenerator generator(
                workload::standardProfile(number, kScale), options);
            traces_.push_back(generator.generate());
        }
    }

    /** The files are written once: writing them in every timed set-up
     *  would time the checkout's file system and its dirty-page
     *  throttling, which other processes on the host share. */
    void
    store(const std::string &dir) override
    {
        paths_.clear();
        for (std::size_t t = 0; t < traces_.size(); ++t) {
            const std::string path =
                dir + "/trace" + std::to_string(kTraces[t]) + ".trace";
            trace::writeTraceFile(path, traces_[t]);
            paths_.push_back(path);
        }
        traces_.clear();
    }

    void
    run(Iteration &it) override
    {
        struct Prepared
        {
            std::uint64_t events = 0;
            prep::OpStream ops;
            core::LifetimeResult life;
        };
        struct Row
        {
            std::uint64_t events = 0;
            std::uint64_t ops = 0;
            core::LifetimeResult life;
            std::vector<core::Metrics> grid;
            std::vector<std::vector<core::Metrics>> curves;
        };

        const core::SweepRunner runner;
        std::vector<Row> rows;
        {
            const ScopedSpan pipeline(it.spans, "sweep.pipelined");
            const std::int64_t parent = pipeline.id();
            rows = runner.runPipelined(
                paths_,
                [&](const std::string &path) {
                    const ScopedSpan prepare(it.spans, "sweep.prepare",
                                             parent);
                    Prepared prepared;
                    trace::TraceBuffer raw;
                    {
                        const ScopedSpan span(it.spans, "trace.read");
                        raw = trace::readTraceFile(path);
                    }
                    prepared.events = raw.size();
                    {
                        const ScopedSpan span(it.spans, "prep.convert");
                        prepared.ops = prep::convertTrace(raw);
                    }
                    {
                        const ScopedSpan span(it.spans,
                                              "lifetime.analyze");
                        prepared.life =
                            core::analyzeLifetimes(prepared.ops);
                    }
                    return prepared;
                },
                [&](Prepared prepared) {
                    const ScopedSpan replay(it.spans, "sweep.replay");
                    Row row;
                    row.events = prepared.events;
                    row.ops = prepared.ops.ops.size();
                    row.life = std::move(prepared.life);
                    {
                        const ScopedSpan span(it.spans, "client.grid");
                        row.grid = core::runClientGrid(prepared.ops, grid_);
                    }
                    for (const core::CurveSpec &spec : curves_) {
                        const ScopedSpan span(it.spans, "curve.sweep");
                        row.curves.push_back(
                            runner.runCurveSweep(prepared.ops, spec));
                    }
                    return row;
                });
        }

        const ScopedSpan check(it.spans, "check");
        for (std::size_t t = 0; t < rows.size(); ++t) {
            const Row &row = rows[t];
            const std::string trace = "trace " + std::to_string(kTraces[t]);
            Tally &tally = it.tally;
            const auto ops = static_cast<double>(row.ops);
            tally.traceEvents += static_cast<double>(row.events);
            tally.prepOps += ops;
            tally.lifetimeRuns += static_cast<double>(row.life.runs.size());
            tally.gridCells += static_cast<double>(grid_.size());
            tally.gridCellOps += ops * static_cast<double>(grid_.size());
            it.simOps += ops * static_cast<double>(grid_.size());
            it.digest.add(row.life);

            // Every cell replays the same op stream, so every cell must
            // see the same application traffic (a sanity check that
            // holds almost by construction).
            const core::Metrics &first = row.grid.at(0);
            auto sameInput = [&first](const core::Metrics &m) {
                return m.appWriteBytes > 0 &&
                       m.appWriteBytes == first.appWriteBytes &&
                       m.appReadBytes == first.appReadBytes;
            };
            // The check that can fail: along each model's size axis, a
            // cell may send no more bytes to the server than the next
            // smaller size of the same model.
            SizeAxis axis;
            for (std::size_t i = 0; i < grid_.size(); ++i)
                axis[{grid_[i].kind, sweptBytes(grid_[i])}] = &row.grid.at(i);
            for (std::size_t c = 0; c < curves_.size(); ++c) {
                for (std::size_t s = 0; s < curves_[c].sizes.size(); ++s) {
                    axis[{curves_[c].base.kind, curves_[c].sizes[s]}] =
                        &row.curves.at(c).at(s);
                }
            }
            const std::set<SizeAxis::key_type> grows = trafficGrows(axis);
            auto verify = [&](const core::Metrics &m, core::ModelKind kind,
                              Bytes size, const core::Metrics *twin,
                              const std::string &what) {
                it.digest.add(m);
                std::string problem;
                if (twin != nullptr && !(m == *twin))
                    problem = " differs from the Fig 5 grid";
                else if (!sameInput(m))
                    problem = " saw different application traffic";
                else if (grows.count({kind, size}) != 0)
                    problem = " sent more bytes to the server than the "
                              "next smaller size";
                it.cell(problem.empty(), trace + ": " +
                                             core::modelKindName(kind) +
                                             " " + what + " " +
                                             std::to_string(size) + problem);
            };
            for (std::size_t i = 0; i < grid_.size(); ++i) {
                verify(row.grid.at(i), grid_[i].kind, sweptBytes(grid_[i]),
                       nullptr, "grid size");
            }
            for (std::size_t c = 0; c < curves_.size(); ++c) {
                const core::CurveSpec &spec = curves_[c];
                tally.curveSizeOps +=
                    ops * static_cast<double>(spec.sizes.size());
                it.simOps += ops * static_cast<double>(spec.sizes.size());
                // A curve size that is also a grid size must give the
                // grid's row exactly (Metrics::operator==).
                for (std::size_t s = 0; s < spec.sizes.size(); ++s) {
                    verify(row.curves.at(c).at(s), spec.base.kind,
                           spec.sizes[s],
                           gridTwin(spec, spec.sizes[s], row.grid),
                           "curve size");
                }
            }
        }
    }

  private:
    static constexpr int kTraces[] = {3, 4, 7};
    /** Scale of the generated traces: traces 3 and 4 still write
     *  200-250 MB, far beyond every cache size, while trace 7's ~30 MB
     *  mostly fits.  Small enough that an iteration takes well under a
     *  second and the simulator's own memory stays small, so a run
     *  holds dozens of iterations and a busy host's shared caches move
     *  its timings less. */
    static constexpr double kScale = 0.1;
    static constexpr double kGridMb[] = {0.5, 1, 2, 4};
    static constexpr Bytes kBaseVolatile = 8 * kMiB;

    /** Every result of one trace by (model, swept size), ascending. */
    using SizeAxis = std::map<std::pair<core::ModelKind, Bytes>,
                              const core::Metrics *>;

    /** The memory a model's size axis sweeps: the volatile model gets
     *  the NVRAM as extra volatile memory. */
    static Bytes
    sweptBytes(const core::ModelConfig &model)
    {
        return model.kind == core::ModelKind::Volatile ? model.volatileBytes
                                                       : model.nvramBytes;
    }

    /** Sizes that send more server reads or writes than the next
     *  smaller size of the same model. */
    static std::set<SizeAxis::key_type>
    trafficGrows(const SizeAxis &axis)
    {
        std::set<SizeAxis::key_type> grows;
        const SizeAxis::value_type *smaller = nullptr;
        for (const auto &entry : axis) {
            if (smaller != nullptr &&
                smaller->first.first == entry.first.first) {
                const core::Metrics &s = *smaller->second;
                const core::Metrics &m = *entry.second;
                if (m.serverReadBytes > s.serverReadBytes ||
                    m.totalServerWrites() > s.totalServerWrites())
                    grows.insert(entry.first);
            }
            smaller = &entry;
        }
        return grows;
    }

    /** The Fig 5 grid cell a curve size coincides with, if any. */
    const core::Metrics *
    gridTwin(const core::CurveSpec &spec, Bytes size,
             const std::vector<core::Metrics> &grid) const
    {
        for (std::size_t i = 0; i < grid_.size(); ++i) {
            if (grid_[i].kind == spec.base.kind &&
                sweptBytes(grid_[i]) == size)
                return &grid.at(i);
        }
        return nullptr;
    }

    std::vector<core::ModelConfig> grid_;
    std::vector<core::CurveSpec> curves_;
    std::vector<trace::TraceBuffer> traces_;
    std::vector<std::string> paths_;
};

/**
 * Section 3, the server write buffer: the eight measured file systems'
 * arrival streams (generateServerOps) replayed through a fresh
 * FileServer per NVRAM write-buffer size, fanned out, then the composed
 * client-to-server runEndToEnd path for each client model with and
 * without a buffer.
 */
class ServerBuffer final : public Workload
{
  public:
    std::uint64_t
    cellsPerIteration() const override
    {
        return std::size(kBuffers) +
               std::size(kModels) * std::size(kEndToEndBuffers);
    }

    void
    setup(std::uint64_t seed) override
    {
        const std::vector<workload::FsProfile> profiles =
            workload::standardFsProfiles();
        fsNames_.clear();
        for (const workload::FsProfile &profile : profiles)
            fsNames_.push_back(profile.name);
        serverOps_ = workload::generateServerOps(
            profiles, static_cast<TimeUs>(kHours * kUsPerHour),
            mixSeed(seed, kServerTag));
        // Fixed-length prefixes keep the simulated work the same for
        // every seed (a day's length varies by about 5% with the seed).
        serverOps_.resize(std::min(serverOps_.size(), kServerOps));
        expectWrite_.assign(profiles.size(), 0);
        expectFsyncs_.assign(profiles.size(), 0);
        for (const workload::ServerOp &op : serverOps_) {
            if (op.kind == workload::ServerOp::Kind::Write)
                expectWrite_.at(op.fs) += op.length;
            else
                ++expectFsyncs_.at(op.fs);
        }

        workload::GeneratorOptions options;
        options.seed = mixSeed(seed, kClientTrace);
        workload::ClientTraceGenerator generator(
            workload::standardProfile(kClientTrace, kClientScale),
            options);
        clientOps_ = prep::convertTrace(generator.generate());
        clientOps_.ops.resize(std::min(clientOps_.ops.size(), kClientOps));
        expectAppWrite_ = prep::totals(clientOps_).writeBytes;
    }

    void
    run(Iteration &it) override
    {
        struct Cell
        {
            std::vector<server::FsStats> fs;
            std::string auditError;
        };

        it.digest.add(serverOps_);
        const core::SweepRunner runner;
        std::vector<Cell> cells;
        {
            const ScopedSpan fanout(it.spans, "sweep.map");
            const std::int64_t parent = fanout.id();
            std::vector<std::function<Cell()>> tasks;
            for (const Bytes buffer : kBuffers) {
                tasks.push_back([this, &it, parent, buffer] {
                    server::ServerConfig config;
                    config.nvramBufferBytes = buffer;
                    server::FileServer fs(fsNames_, config);
                    {
                        const ScopedSpan span(it.spans, "server.run",
                                              parent);
                        fs.run(serverOps_);
                    }
                    Cell cell;
                    try {
                        const ScopedSpan span(it.spans, "server.audit",
                                              parent);
                        fs.auditInvariants();
                    } catch (const std::exception &error) {
                        cell.auditError = error.what();
                    }
                    for (std::size_t i = 0; i < fs.fsCount(); ++i)
                        cell.fs.push_back(fs.stats(static_cast<FsId>(i)));
                    return cell;
                });
            }
            cells = runner.map(tasks);
        }

        {
            const ScopedSpan check(it.spans, "check");
            for (std::size_t i = 0; i < cells.size(); ++i) {
                const Bytes buffer = kBuffers[i];
                // Every file system must receive exactly its stream.
                std::string problem = cells[i].auditError;
                for (std::size_t f = 0; f < cells[i].fs.size(); ++f) {
                    const server::FsStats &fs = cells[i].fs[f];
                    it.digest.add(fs);
                    it.tally.addFs(fs, buffer > 0);
                    if (problem.empty() &&
                        (fs.arrivedBytes != expectWrite_.at(f) ||
                         fs.fsyncs != expectFsyncs_.at(f))) {
                        problem = fs.name + ": arrived bytes or fsyncs "
                                            "differ from its stream";
                    }
                }
                it.tally.serverOps += static_cast<double>(serverOps_.size());
                it.simOps += static_cast<double>(serverOps_.size());
                it.cell(cells[i].fs.size() == fsNames_.size() &&
                            problem.empty(),
                        "server buffer " + std::to_string(buffer) + ": " +
                            problem);
            }
        }

        for (const core::ModelKind kind : kModels) {
            for (const Bytes buffer : kEndToEndBuffers) {
                core::EndToEndResult result;
                {
                    const ScopedSpan span(it.spans, "server.e2e");
                    result = core::runEndToEnd(clientOps_, modelOf(kind),
                                               buffer);
                }
                it.digest.add(result.client);
                it.digest.add(result.server);
                it.tally.addFs(result.server, buffer > 0);
                it.simOps += static_cast<double>(clientOps_.ops.size());
                // The server must receive exactly what the clients sent.
                it.cell(result.client.appWriteBytes == expectAppWrite_ &&
                            result.server.arrivedBytes ==
                                result.client.totalServerWrites(),
                        "end-to-end " + core::modelKindName(kind) +
                            " buffer " + std::to_string(buffer) +
                            ": client and server byte counts disagree");
            }
        }
    }

  private:
    static constexpr Bytes kBuffers[] = {0, 128 * kKiB, 512 * kKiB,
                                         1 * kMiB, 4 * kMiB};
    static constexpr Bytes kEndToEndBuffers[] = {0, 512 * kKiB};
    /** One day of server traffic, as in the paper's tables.  With the
     *  client stream at this scale the FileServer fan-out, not the
     *  serial end-to-end runs, takes most of the wall time. */
    static constexpr double kHours = 24;
    static constexpr std::uint64_t kServerTag = 100; ///< not a trace number
    static constexpr int kClientTrace = 7;
    static constexpr double kClientScale = 0.25;
    /** Below every seed's op count: 24 h gives 63,500-69,800 server
     *  ops and the client trace 44,900-51,000 ops over seeds 1-60. */
    static constexpr std::size_t kServerOps = 60000;
    static constexpr std::size_t kClientOps = 44000;

    std::vector<std::string> fsNames_;
    std::vector<workload::ServerOp> serverOps_;
    std::vector<Bytes> expectWrite_;
    std::vector<std::uint64_t> expectFsyncs_;
    prep::OpStream clientOps_;
    Bytes expectAppWrite_ = 0;
};

/**
 * Crash-schedule exploration: the first kStreamOps server-bound ops of
 * each client model over traces 3 and 7, crashed at a seeded sample of
 * persistence sites with and without the NVRAM write buffer.
 */
class CrashExplore final : public Workload
{
  public:
    std::uint64_t
    cellsPerIteration() const override
    {
        return std::size(kTraces) * std::size(kModels) *
               std::size(kBuffers);
    }

    void
    setup(std::uint64_t seed) override
    {
        seed_ = seed;
        ops_.clear();
        for (const int number : kTraces) {
            workload::GeneratorOptions options;
            options.seed = mixSeed(seed, static_cast<std::uint64_t>(number));
            workload::ClientTraceGenerator generator(
                workload::standardProfile(number, kScale), options);
            ops_.push_back(prep::convertTrace(generator.generate()));
        }
    }

    void
    run(Iteration &it) override
    {
        for (std::size_t t = 0; t < ops_.size(); ++t) {
            for (const core::ModelKind kind : kModels) {
                std::vector<workload::ServerOp> server_ops;
                {
                    const ScopedSpan span(it.spans, "server.collect");
                    server_ops =
                        core::collectServerOps(ops_[t], modelOf(kind));
                }
                it.digest.add(server_ops);
                // Explore a fixed-length prefix: trace 3's stream length
                // swings several-fold with the seed, and a crash replays
                // up to its site, so this keeps the cost of a schedule
                // the same for every seed.
                if (server_ops.size() > kStreamOps)
                    server_ops.resize(kStreamOps);
                for (const Bytes buffer : kBuffers) {
                    crash::ExploreConfig config;
                    config.server.nvramBufferBytes = buffer;
                    config.seed = seed_;
                    config.sampleSites = kSample;
                    config.shrinkOnFailure = true; // only on a violation
                    const std::uint64_t census =
                        it.spans != nullptr
                            ? censusProbe(it, server_ops, config)
                            : 0;
                    crash::ExploreResult result;
                    {
                        const ScopedSpan span(it.spans, "crash.explore");
                        result = crash::explore(server_ops, config);
                    }
                    it.digest.add(result);
                    Tally &tally = it.tally;
                    tally.sitesTotal +=
                        static_cast<double>(result.sitesTotal);
                    tally.crashes +=
                        static_cast<double>(result.crashesExplored);
                    tally.violations +=
                        static_cast<double>(result.violations.size());
                    tally.quarantined +=
                        static_cast<double>(result.segmentsQuarantined);
                    tally.blocksLost +=
                        static_cast<double>(result.blocksLost);
                    it.simOps +=
                        static_cast<double>(result.crashesExplored);
                    const bool ok =
                        result.violations.empty() &&
                        result.crashesExplored == kSample &&
                        (it.spans == nullptr ||
                         census == result.sitesTotal);
                    it.cell(ok,
                            "trace " + std::to_string(kTraces[t]) + " " +
                                core::modelKindName(kind) + " buffer " +
                                std::to_string(buffer) + ": " +
                                std::to_string(result.violations.size()) +
                                " violations, " +
                                std::to_string(result.crashesExplored) +
                                " crashes of " + std::to_string(kSample));
                }
            }
        }
    }

  private:
    static constexpr int kTraces[] = {3, 7};
    /** Every model's stream is several times longer than kStreamOps at
     *  this scale, and set-up (~20 ms) is long enough that its timing
     *  is not dominated by allocator and page-fault noise. */
    static constexpr double kScale = 0.2;
    static constexpr std::size_t kStreamOps = 800;
    static constexpr std::uint64_t kSample = 100;
    static constexpr Bytes kBuffers[] = {0, 512 * kKiB};

    /**
     * Traced iterations only: repeat the explorer's census replay from
     * outside (the same instrumented FileServer run explore() starts
     * with) so the census can be timed apart from the crash replays.
     * Returns the site count, which must match the explorer's.
     */
    std::uint64_t
    censusProbe(Iteration &it, const std::vector<workload::ServerOp> &ops,
                const crash::ExploreConfig &config)
    {
        const auto start = Clock::now();
        const ScopedSpan span(it.spans, "crash.census");
        crash::CrashSiteRegistry census;
        server::FileServer server(config.fsNames, config.server);
        server.setCrashHook(&census);
        for (std::size_t i = 0; i < server.fsCount(); ++i) {
            const auto fs = static_cast<FsId>(i);
            census.track(server.log(fs), server.nvramDevice(fs));
        }
        {
            const ScopedSpan run(it.spans, "server.run");
            server.run(ops);
        }
        it.tally.serverOps += static_cast<double>(ops.size());
        for (std::size_t i = 0; i < server.fsCount(); ++i) {
            it.tally.addFs(server.stats(static_cast<FsId>(i)),
                           config.server.nvramBufferBytes > 0);
        }
        it.probeSeconds += secondsBetween(start, Clock::now());
        return census.sitesSeen();
    }

    std::uint64_t seed_ = 0;
    std::vector<prep::OpStream> ops_;
};

// ---- per-layer metrics ------------------------------------------------

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Per-layer metrics of one traced iteration, named by module. */
std::map<std::string, double>
layerMetrics(const Iteration &it, const std::vector<Span> &spans,
             const std::vector<double> &self, const obs::Snapshot &before,
             const obs::Snapshot &after)
{
    std::map<std::string, double> total;
    double root = 0;
    double root_self = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        total[spans[i].name] += spans[i].end - spans[i].start;
        if (spans[i].parent < 0) {
            root += spans[i].end - spans[i].start;
            root_self += self[i];
        }
    }
    auto span = [&total](const char *name) {
        const auto found = total.find(name);
        return found == total.end() ? 0.0 : found->second;
    };
    auto delta = [&](const char *name) {
        return static_cast<double>(after.value(name) - before.value(name));
    };
    const Tally &tally = it.tally;
    std::map<std::string, double> m;

    m["trace.read_s"] = span("trace.read");
    m["trace.events"] = tally.traceEvents;
    m["trace.events_per_s"] = ratio(tally.traceEvents, span("trace.read"));
    m["prep.convert_s"] = span("prep.convert");
    m["prep.ops"] = tally.prepOps;
    m["lifetime.analyze_s"] = span("lifetime.analyze");
    m["lifetime.runs"] = tally.lifetimeRuns;

    m["sweep.prepare_s"] = span("sweep.prepare");
    m["sweep.replay_s"] = span("sweep.replay");
    m["sweep.pipeline_wait_s"] =
        std::max(0.0, span("sweep.pipelined") - span("sweep.replay"));

    const double grid_work = delta("grid.cell") * 1e-9;
    m["client.grid_span_s"] = span("client.grid");
    m["client.grid_work_s"] = grid_work;
    m["client.grid_parallelism"] = ratio(grid_work, span("client.grid"));
    m["client.cells"] = delta("grid.cells");
    m["client.replay_ops_per_s"] = ratio(tally.gridCellOps, grid_work);

    const double curve_replay = delta("curve.replay") * 1e-9;
    m["curve.replay_s"] = curve_replay;
    m["curve.passes"] = delta("curve.passes");
    m["curve.sizes"] = delta("curve.sizes");
    m["curve.fallback_cells"] =
        std::max(0.0, delta("grid.cells") - tally.gridCells);
    m["curve.size_ops_per_s"] = ratio(tally.curveSizeOps, curve_replay);

    const double executed = delta("pool.tasks_executed");
    m["pool.tasks_executed"] = executed;
    m["pool.tasks_stolen"] = delta("pool.tasks_stolen");
    m["pool.steal_frac"] = ratio(delta("pool.tasks_stolen"), executed);
    m["pool.queue_depth_hwm"] =
        static_cast<double>(after.value("pool.queue_depth_hwm"));

    m["server.run_s"] = span("server.run");
    m["server.ops"] = tally.serverOps;
    m["server.ops_per_s"] = ratio(tally.serverOps, span("server.run"));
    m["server.e2e_s"] = span("server.e2e");

    m["lfs.segments_sealed"] = delta("lfs.segments_sealed");
    m["lfs.partial_frac"] =
        ratio(delta("lfs.partial_segments"), delta("lfs.segments_sealed"));
    m["lfs.write_amp"] = ratio(tally.diskBytes, tally.dataBytes);
    m["lfs.cleaner_segments"] = tally.cleanerSegments;
    m["recovery.segments_quarantined"] = tally.quarantined;
    m["recovery.blocks_lost"] = tally.blocksLost;

    m["nvram.fsync_absorbed_frac"] =
        ratio(tally.fsyncsAbsorbed, tally.bufferedFsyncs);
    m["nvram.buffer_overflows"] = tally.bufferOverflows;
    m["disk.write_accesses"] = tally.diskWrites;
    m["disk.bytes"] = tally.diskBytes;

    m["crash.census_s"] = span("crash.census");
    m["crash.explore_s"] = span("crash.explore");
    m["crash.sites_total"] = tally.sitesTotal;
    m["crash.crashes"] = tally.crashes;
    m["crash.per_crash_ms"] =
        1e3 * ratio(std::max(0.0, span("crash.explore") -
                                      span("crash.census")),
                    tally.crashes);
    m["crash.violations"] = tally.violations;

    m["obs.unattributed_frac"] = ratio(root_self, root);
    return m;
}

// ---- the run ----------------------------------------------------------

#if defined(NVFS_FLATMAP_SSE2) || defined(NVFS_FLATMAP_NEON)
constexpr const char *kFlatMapProbe = "simd";
#else
constexpr const char *kFlatMapProbe = "scalar";
#endif

/** Set-ups timed after each iteration: a few per cent of its time. */
constexpr int kSetupsPerIteration = 4;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string workdir;
};

std::int64_t
intArg(const std::string &flag, const std::string &text, std::int64_t min)
{
    const auto parsed = util::tryParseInt(text);
    if (!parsed.has_value() || *parsed < min) {
        util::fatal(flag + " expects an integer >= " +
                    std::to_string(min) + ", got '" + text + "'");
    }
    return *parsed;
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            util::fatal(flag + " expects a value");
        const std::string value = argv[++i];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed =
                static_cast<std::uint64_t>(intArg(flag, value, 0));
        else if (flag == "--seconds")
            options.seconds = static_cast<double>(intArg(flag, value, 1));
        else if (flag == "--trace")
            options.trace = intArg(flag, value, 0) != 0;
        else if (flag == "--workdir")
            options.workdir = value;
        else
            util::fatal("unknown option " + flag);
    }
    if (options.workdir.empty())
        util::fatal("--workdir is required");
    if (options.seconds <= 0)
        util::fatal("--seconds is required");
    return options;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "client_figures")
        return std::make_unique<ClientFigures>();
    if (name == "server_buffer")
        return std::make_unique<ServerBuffer>();
    if (name == "crash_explore")
        return std::make_unique<CrashExplore>();
    util::fatal("unknown workload '" + name +
                "' (client_figures|server_buffer|crash_explore)");
}

/** One iteration's record for result.json. */
struct Record
{
    bool traced = false;
    double wallS = 0;
    double cpuS = 0;
    double probeS = 0;
    double simOps = 0;
    std::vector<double> referenceS; ///< host reference passes around it
    std::uint64_t attempted = 0;
    std::uint64_t passed = 0;
    std::string digest;
    std::string error;
    std::vector<std::string> failures;
    std::map<std::string, double> layers;
};

/** Aggregated self time of one span name over the traced iterations. */
struct SelfRow
{
    std::uint64_t count = 0;
    double total = 0;
    double self = 0;
};

/** Runs iterations and keeps their records, spans and counter deltas. */
class Runner
{
  public:
    Runner(Workload &workload, HostReference &reference, std::FILE *progress)
        : workload_(workload), reference_(reference), progress_(progress)
    {
    }

    void
    iterate(bool traced)
    {
        SpanLog log;
        Iteration it;
        it.spans = traced ? &log : nullptr;
        it.attempted = workload_.cellsPerIteration();
        Record record;
        // The host's speed right before and after the iteration.
        for (int i = 0; i < kReferencePasses; ++i)
            record.referenceS.push_back(reference_.time());
        const obs::Snapshot before =
            traced ? obs::snapshot() : obs::Snapshot{};
        const double cpu_start = processCpuSeconds();
        const auto start = Clock::now();
        try {
            const ScopedSpan root(it.spans, "iteration");
            workload_.run(it);
        } catch (const std::exception &error) {
            record.error = error.what();
        }
        record.wallS = secondsBetween(start, Clock::now());
        record.cpuS = processCpuSeconds() - cpu_start;
        for (int i = 0; i < kReferencePasses; ++i)
            record.referenceS.push_back(reference_.time());

        record.traced = traced;
        record.probeS = it.probeSeconds;
        record.simOps = it.simOps;
        record.attempted = it.attempted;
        record.passed = it.passed;
        record.digest = it.digest.hex();
        record.failures = std::move(it.failures);
        if (traced)
            recordTrace(it, log, before, record);

        std::fprintf(progress_,
                     "{\"iteration\":%zu,\"attempted\":%llu,"
                     "\"passed\":%llu}\n",
                     records_.size(),
                     static_cast<unsigned long long>(record.attempted),
                     static_cast<unsigned long long>(record.passed));
        std::fflush(progress_);
        records_.push_back(std::move(record));
    }

    const std::vector<Record> &records() const { return records_; }

    const std::map<std::string, SelfRow> &
    selfRows() const
    {
        return selfRows_;
    }

    std::string spansJson() const { return spansJson_.str(); }
    std::string countersJson() const { return countersJson_.str(); }

  private:
    void
    recordTrace(const Iteration &it, const SpanLog &log,
                const obs::Snapshot &before, Record &record)
    {
        const obs::Snapshot after = obs::snapshot();
        const std::vector<Span> &spans = log.spans();
        const std::vector<double> self = selfTimes(spans);
        record.layers = layerMetrics(it, spans, self, before, after);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &span = spans[i];
            SelfRow &row = selfRows_[span.name];
            ++row.count;
            row.total += span.end - span.start;
            row.self += self[i];
            spansJson_ << (spansJson_.tellp() > 0 ? ",\n" : "")
                       << "{\"iteration\":" << records_.size()
                       << ",\"id\":" << i
                       << ",\"name\":" << jsonString(span.name)
                       << ",\"parent\":" << span.parent
                       << ",\"start_s\":" << jsonNumber(span.start)
                       << ",\"end_s\":" << jsonNumber(span.end) << "}";
        }
        countersJson_ << (countersJson_.tellp() > 0 ? ",\n" : "")
                      << "{\"iteration\":" << records_.size()
                      << ",\"deltas\":{";
        bool first = true;
        for (const obs::StatValue &stat : after.stats) {
            // High-water marks are process-wide; report them as read.
            const bool max = stat.kind == obs::StatKind::Max;
            const obs::StatValue *old = before.find(stat.name);
            const std::uint64_t base =
                max || old == nullptr ? 0 : old->total;
            countersJson_ << (first ? "" : ",") << jsonString(stat.name)
                          << ":" << (max ? stat.max : stat.total - base);
            first = false;
        }
        countersJson_ << "}}";
    }

    /** Host reference passes on each side of an iteration. */
    static constexpr int kReferencePasses = 2;

    Workload &workload_;
    HostReference &reference_;
    std::FILE *progress_;
    std::vector<Record> records_;
    std::map<std::string, SelfRow> selfRows_;
    std::ostringstream spansJson_;
    std::ostringstream countersJson_;
};

void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        util::fatal("cannot write " + path);
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), file) == text.size();
    if (std::fclose(file) != 0 || !ok)
        util::fatal("cannot write " + path);
}

std::string
resultJson(const Options &options, const std::vector<double> &setup,
           const std::vector<double> &reference_s, const Runner &runner,
           std::uint64_t cells)
{
    auto array = [](const std::vector<double> &values) {
        std::string out = "[";
        for (std::size_t i = 0; i < values.size(); ++i)
            out += (i ? "," : "") + jsonNumber(values[i]);
        return out + "]";
    };
    std::ostringstream out;
    out << "{\"workload\":" << jsonString(options.workload)
        << ",\"seed\":" << options.seed << ",\"trace\":" << options.trace
        << ",\"cells_per_iteration\":" << cells
        << ",\"provenance\":{\"pool_width\":" << util::defaultJobCount()
        << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
        << ",\"flatmap_probe\":" << jsonString(kFlatMapProbe) << "}"
        << ",\"setup_s\":" << array(setup)
        << ",\"reference_s\":" << array(reference_s)
        << ",\"peak_rss_mb\":" << jsonNumber(peakRssMb())
        << ",\"iterations\":[";
    const auto &records = runner.records();
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Record &r = records[i];
        out << (i ? ",\n" : "\n") << "{\"traced\":" << r.traced
            << ",\"wall_s\":" << jsonNumber(r.wallS)
            << ",\"cpu_s\":" << jsonNumber(r.cpuS)
            << ",\"probe_s\":" << jsonNumber(r.probeS)
            << ",\"sim_ops\":" << jsonNumber(r.simOps)
            << ",\"reference_s\":" << array(r.referenceS)
            << ",\"attempted\":" << r.attempted
            << ",\"passed\":" << r.passed
            << ",\"digest\":" << jsonString(r.digest)
            << ",\"error\":" << jsonString(r.error) << ",\"failures\":[";
        for (std::size_t f = 0; f < r.failures.size(); ++f)
            out << (f ? "," : "") << jsonString(r.failures[f]);
        out << "],\"layers\":{";
        bool first = true;
        for (const auto &[name, value] : r.layers) {
            out << (first ? "" : ",") << jsonString(name) << ":"
                << jsonNumber(value);
            first = false;
        }
        out << "}}";
    }
    out << "],\"self_time\":[";
    bool first = true;
    for (const auto &[name, row] : runner.selfRows()) {
        out << (first ? "\n" : ",\n") << "{\"name\":" << jsonString(name)
            << ",\"count\":" << row.count
            << ",\"total_s\":" << jsonNumber(row.total)
            << ",\"self_s\":" << jsonNumber(row.self) << "}";
        first = false;
    }
    out << "]}\n";
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    // Construct the obs registry before any thread pool exists, so it
    // outlives the pools' worker slabs at exit.
    (void)obs::snapshot();

    const Options options = parseOptions(argc, argv);
    std::unique_ptr<Workload> workload = makeWorkload(options.workload);
    const std::uint64_t cells = workload->cellsPerIteration();

    const std::string progress_path = options.workdir + "/progress.jsonl";
    std::FILE *progress = std::fopen(progress_path.c_str(), "w");
    if (progress == nullptr)
        util::fatal("cannot write " + progress_path);
    std::fprintf(progress, "{\"cells_per_iteration\":%llu}\n",
                 static_cast<unsigned long long>(cells));
    std::fflush(progress);

    // Set-up is short, so it is repeated: a burst before the first
    // iteration and a few more after every iteration, so that its
    // samples span the run as the iterations do.  Each is followed by
    // a pass of the host reference, which run.py uses to express the
    // timings at a fixed host speed.
    std::vector<double> setup;
    std::vector<double> reference_s;
    HostReference reference;
    auto timeSetup = [&] {
        const auto start = Clock::now();
        workload->setup(options.seed);
        setup.push_back(secondsBetween(start, Clock::now()));
        reference_s.push_back(reference.time());
    };
    const auto setup_start = Clock::now();
    while (setup.size() < 5 ||
           (setup.size() < 100 &&
            secondsBetween(setup_start, Clock::now()) < 0.5))
        timeSetup();
    workload->store(options.workdir);

    Runner runner(*workload, reference, progress);
    const auto start = Clock::now();
    const int min_iterations = options.trace ? 4 : 3;
    for (int done = 0;
         done < min_iterations ||
         secondsBetween(start, Clock::now()) < options.seconds;
         ++done) {
        // Traced runs alternate untraced and traced iterations so the
        // overhead comparison sees the same machine conditions.
        runner.iterate(options.trace && done % 2 == 1);
        for (int i = 0; i < kSetupsPerIteration; ++i)
            timeSetup();
    }
    std::fclose(progress);

    writeFile(options.workdir + "/result.json",
              resultJson(options, setup, reference_s, runner, cells));
    if (options.trace) {
        writeFile(options.workdir + "/spans.json",
                  "{\"spans\":[\n" + runner.spansJson() +
                      "],\n\"counter_deltas\":[\n" +
                      runner.countersJson() + "]}\n");
    }
    return 0;
}

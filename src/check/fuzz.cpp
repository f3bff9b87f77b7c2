#include "check/fuzz.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <sstream>
#include <vector>

#include "check/shrink.hpp"
#include "core/client/cluster_sim.hpp"
#include "core/sim/curve.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"

namespace nvfs::check {

using core::ClusterConfig;
using core::ClusterSim;
using core::Metrics;
using core::ModelKind;
using prep::Op;
using prep::OpStream;
using prep::OpType;

namespace {

/** Open file handle the generator still owes a Close for. */
struct OpenHandle
{
    ClientId client;
    ProcId pid;
    FileId file;
};

constexpr ModelKind kModels[] = {ModelKind::Volatile,
                                 ModelKind::WriteAside,
                                 ModelKind::Unified};

/** One event a replay sent its ServerWriteSink. */
struct SinkEvent
{
    TimeUs time = 0;
    FileId file = 0;
    std::uint32_t block = 0;
    Bytes bytes = 0;
    core::WriteCause cause = core::WriteCause::Replacement;
    bool fsync = false;

    bool operator==(const SinkEvent &other) const = default;
};

/** Records the server-bound stream of one replay. */
class StreamRecorder : public core::ServerWriteSink
{
  public:
    void
    onServerWrite(TimeUs now, FileId file, std::uint32_t block,
                  Bytes bytes, core::WriteCause cause) override
    {
        events.push_back({now, file, block, bytes, cause, false});
    }

    void
    onFsync(TimeUs now, FileId file) override
    {
        events.push_back({now, file, 0, 0, core::WriteCause::Fsync, true});
    }

    std::vector<SinkEvent> events;
};

std::string
describeEvent(const std::vector<SinkEvent> &events, std::size_t i)
{
    if (i >= events.size())
        return "none";
    const SinkEvent &e = events[i];
    std::ostringstream out;
    if (e.fsync) {
        out << "fsync t=" << e.time << " file=" << e.file;
    } else {
        out << core::writeCauseName(e.cause) << " t=" << e.time
            << " file=" << e.file << " block=" << e.block
            << " bytes=" << e.bytes;
    }
    return out.str();
}

/**
 * The production replay (ClusterSim) of `kind`.  Audits
 * (util::AuditError) and simulator invariant panics
 * (util::PanicError via NVFS_REQUIRE) both count as failures;
 * anything escaping the replay is folded into the description.  A
 * `sink` records the replay's server-bound stream.
 */
std::optional<Metrics>
runOne(const OpStream &ops, ModelKind kind, const FuzzConfig &config,
       std::string &error, core::ServerWriteSink *sink = nullptr)
{
    ClusterConfig cluster;
    cluster.model.kind = kind;
    cluster.model.volatileBytes = config.volatileBytes;
    cluster.model.nvramBytes = config.nvramBytes;
    cluster.model.sink = sink;
    cluster.seed = config.seed;
    cluster.auditEvery = config.auditEvery;
    try {
        ClusterSim sim(cluster, ops.clientCount);
        return sim.run(ops);
    } catch (const std::exception &e) {
        error = core::modelKindName(kind) + "/production: " + e.what();
        return std::nullopt;
    }
}

/** The headline counters of two disagreeing legs, "a vs b". */
std::string
describeMismatch(const Metrics &a, const Metrics &b)
{
    std::ostringstream out;
    out << "(appWrite " << a.appWriteBytes << " vs " << b.appWriteBytes
        << ", serverRead " << a.serverReadBytes << " vs "
        << b.serverReadBytes << ", serverWrite " << a.totalServerWrites()
        << " vs " << b.totalServerWrites() << ", absorbed "
        << a.absorbedOverwrittenBytes + a.absorbedDeletedBytes << " vs "
        << b.absorbedOverwrittenBytes + b.absorbedDeletedBytes << ", bus "
        << a.busBytes << " vs " << b.busBytes << ")";
    return out.str();
}

/**
 * The curve arm: one curve pass of `kind` over sizes around the
 * configured memory (one block, half, the configured size and
 * double), each row bit-compared with the production replay at that
 * size; `configured` is the production replay already run at the
 * configured size.
 */
std::optional<std::string>
runCurveArm(const OpStream &ops, ModelKind kind, const FuzzConfig &config,
            const Metrics &configured)
{
    core::CurveSpec spec;
    spec.base.kind = kind;
    spec.base.volatileBytes = config.volatileBytes;
    spec.base.nvramBytes = config.nvramBytes;
    spec.axis = kind == ModelKind::Volatile ? core::CurveAxis::VolatileBytes
                                            : core::CurveAxis::NvramBytes;
    const bool volatile_axis = spec.axis == core::CurveAxis::VolatileBytes;
    const Bytes size =
        volatile_axis ? config.volatileBytes : config.nvramBytes;
    spec.sizes = {kBlockSize, std::max<Bytes>(kBlockSize, size / 2), size,
                  2 * size};
    spec.seed = config.seed;
    spec.auditEvery = config.auditEvery;
    if (!core::curveSupported(spec))
        return std::nullopt;
    std::vector<Metrics> rows;
    try {
        rows = core::runCurveSim(ops, spec);
    } catch (const std::exception &e) {
        return core::modelKindName(kind) + "/curve: " + e.what();
    }
    for (std::size_t k = 0; k < rows.size(); ++k) {
        std::optional<Metrics> production = configured;
        if (spec.sizes[k] != size) {
            FuzzConfig at_size = config;
            (volatile_axis ? at_size.volatileBytes : at_size.nvramBytes) =
                spec.sizes[k];
            std::string error;
            production = runOne(ops, kind, at_size, error);
            if (!production.has_value())
                return error;
        }
        if (!(rows[k] == *production)) {
            std::ostringstream out;
            out << core::modelKindName(kind)
                << ": curve pass and production replay disagree at "
                << (volatile_axis ? "volatile" : "NVRAM") << " size "
                << spec.sizes[k] << " "
                << describeMismatch(rows[k], *production);
            return out.str();
        }
    }
    return std::nullopt;
}

/**
 * The stream arm: a one-size curve pass of `kind` at the configured
 * size with a sink, whose server-bound stream must equal `expected`,
 * the production replay's, event for event.
 */
std::optional<std::string>
runStreamArm(const OpStream &ops, ModelKind kind, const FuzzConfig &config,
             const std::vector<SinkEvent> &expected)
{
    StreamRecorder recorder;
    core::ModelConfig model;
    model.kind = kind;
    model.volatileBytes = config.volatileBytes;
    model.nvramBytes = config.nvramBytes;
    model.sink = &recorder;
    core::CurveSpec spec = core::cellSpec(model, config.seed);
    spec.auditEvery = config.auditEvery;
    if (!core::curveSupported(spec))
        return std::nullopt;
    try {
        core::runCurveSim(ops, spec);
    } catch (const std::exception &e) {
        return core::modelKindName(kind) + "/curve stream: " + e.what();
    }
    const std::vector<SinkEvent> &got = recorder.events;
    std::size_t i = 0;
    while (i < got.size() && i < expected.size() && got[i] == expected[i])
        ++i;
    if (i == got.size() && i == expected.size())
        return std::nullopt;
    std::ostringstream out;
    out << core::modelKindName(kind)
        << ": one-size curve pass and production replay send different "
           "server streams at event "
        << i << " of " << expected.size() << " (curve "
        << describeEvent(got, i) << ", production "
        << describeEvent(expected, i) << ")";
    return out.str();
}

/** Rebuild a stream from a row-wise op vector (shrink candidates). */
OpStream
makeStream(const std::vector<Op> &rows, std::uint32_t client_count)
{
    OpStream stream;
    stream.clientCount = client_count;
    stream.ops.reserve(rows.size());
    for (const Op &op : rows)
        stream.ops.push_back(op);
    if (!rows.empty())
        stream.duration = rows.back().time;
    return stream;
}

/** Row-wise copy of a stream (shrink working set). */
std::vector<Op>
toRows(const OpStream &stream)
{
    std::vector<Op> rows;
    rows.reserve(stream.ops.size());
    for (std::size_t i = 0; i < stream.ops.size(); ++i)
        rows.push_back(stream.ops[i]);
    return rows;
}

/**
 * Delta-debugging shrink over the op rows.  Removing ops cannot break
 * stream validity — timestamps stay sorted and ids stay in range — so
 * every candidate is a legal input.  Each probe replays every leg of
 * runDifferential; the default deltaShrink budget keeps that bounded.
 */
std::vector<Op>
shrinkOps(std::vector<Op> rows, std::uint32_t client_count,
          const FuzzConfig &config, std::string &what)
{
    return deltaShrink(
        std::move(rows), [&](const std::vector<Op> &candidate) {
            const auto failure = runDifferential(
                makeStream(candidate, client_count), config);
            if (!failure.has_value())
                return false;
            what = *failure;
            return true;
        });
}

} // namespace

OpStream
generateOps(const FuzzConfig &config, std::uint64_t seed)
{
    util::Rng rng(seed);
    OpStream stream;
    stream.clientCount = config.clients;
    std::vector<OpenHandle> open;
    TimeUs now = 0;

    const auto random_client = [&] {
        return static_cast<ClientId>(
            rng.uniformInt(0, config.clients - 1));
    };
    const auto random_file = [&] {
        return static_cast<FileId>(rng.uniformInt(1, config.files));
    };
    // Mostly block-aligned ranges with a partial-block tail mixed in,
    // clustered near file start so streams actually collide.
    const auto random_offset = [&] {
        Bytes offset = rng.uniformInt(0, 96) * kBlockSize;
        if (rng.chance(0.3))
            offset += rng.uniformInt(0, kBlockSize - 1);
        return offset;
    };
    const auto random_length = [&]() -> Bytes {
        if (rng.chance(0.25))
            return rng.uniformInt(1, kBlockSize);
        return rng.uniformInt(1, 16) * kBlockSize;
    };

    for (std::size_t i = 0; i < config.opsPerRun; ++i) {
        // Mostly bursts at the same instant; occasionally jump far
        // enough to trigger write-back sweeps (5 s) and age-out
        // flushes (30 s).
        if (rng.chance(0.4))
            now += rng.uniformInt(0, kUsPerSecond / 5);
        if (rng.chance(0.02))
            now += rng.uniformInt(1, 40) * kUsPerSecond;

        Op op;
        op.time = now;
        op.client = random_client();
        op.pid = static_cast<ProcId>(op.client * 4 +
                                     rng.uniformInt(0, 3));
        op.file = random_file();

        const std::uint64_t roll = rng.uniformInt(0, 99);
        if (roll < 30) {
            op.type = OpType::Read;
            op.offset = random_offset();
            op.length = random_length();
        } else if (roll < 70) {
            op.type = OpType::Write;
            op.offset = random_offset();
            op.length = random_length();
        } else if (roll < 78) {
            op.type = OpType::Fsync;
        } else if (roll < 82) {
            op.type = OpType::Delete;
        } else if (roll < 86) {
            op.type = OpType::Truncate;
            // Half the cuts land inside a block, where the boundary
            // block keeps only its dirty bytes below the cut.
            op.length = rng.uniformInt(0, 64) * kBlockSize;
            if (rng.chance(0.5))
                op.length += rng.uniformInt(1, kBlockSize - 1);
        } else if (roll < 93) {
            op.type = OpType::Open;
            op.openForRead = true;
            op.openForWrite = rng.chance(0.5);
            open.push_back({op.client, op.pid, op.file});
        } else if (roll < 97 && !open.empty()) {
            const std::size_t pick =
                rng.uniformInt(0, open.size() - 1);
            const OpenHandle handle = open[pick];
            open[pick] = open.back();
            open.pop_back();
            op.type = OpType::Close;
            op.client = handle.client;
            op.pid = handle.pid;
            op.file = handle.file;
        } else {
            op.type = OpType::Migrate;
            op.targetClient = random_client();
        }
        stream.ops.push_back(op);
    }

    // Balance the books: close what is still open, then End.
    for (const OpenHandle &handle : open) {
        Op op;
        op.time = now;
        op.type = OpType::Close;
        op.client = handle.client;
        op.pid = handle.pid;
        op.file = handle.file;
        stream.ops.push_back(op);
    }
    Op end;
    end.time = now;
    end.type = OpType::End;
    stream.ops.push_back(end);
    stream.duration = now;
    return stream;
}

std::optional<std::string>
runDifferential(const OpStream &ops, const FuzzConfig &config)
{
    for (ModelKind kind : kModels) {
        std::string error;
        StreamRecorder stream;
        const auto production = runOne(ops, kind, config, error, &stream);
        if (!production.has_value())
            return error;
        if (auto failure = runCurveArm(ops, kind, config, *production))
            return failure;
        if (auto failure =
                runStreamArm(ops, kind, config, stream.events))
            return failure;
    }
    return std::nullopt;
}

FuzzResult
fuzz(const FuzzConfig &config, std::size_t runs)
{
    FuzzResult result;
    const auto start = std::chrono::steady_clock::now();
    const auto expired = [&] {
        if (config.maxSeconds <= 0.0)
            return false;
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        return elapsed.count() >= config.maxSeconds;
    };

    for (std::size_t run = 0; run < runs && !expired(); ++run) {
        const std::uint64_t seed = config.seed + run;
        FuzzConfig run_config = config;
        run_config.seed = seed;
        const OpStream ops = generateOps(run_config, seed);
        auto failure = runDifferential(ops, run_config);
        result.opsExecuted += ops.ops.size();
        if (!failure.has_value()) {
            ++result.runs;
            continue;
        }
        FuzzFailure found;
        found.seed = seed;
        found.what = *failure;
        found.originalOps = ops.ops.size();
        std::vector<Op> rows = toRows(ops);
        if (config.shrink) {
            rows = shrinkOps(std::move(rows), ops.clientCount,
                             run_config, found.what);
        }
        found.ops = makeStream(rows, ops.clientCount);
        result.failure = std::move(found);
        break;
    }
    return result;
}

std::string
describeOps(const OpStream &ops)
{
    std::ostringstream out;
    for (std::size_t i = 0; i < ops.ops.size(); ++i) {
        const Op op = ops.ops[i];
        out << i << ": t=" << op.time << " "
            << prep::opTypeName(op.type)
            << " file=" << op.file << " client=" << op.client
            << " pid=" << op.pid;
        switch (op.type) {
          case OpType::Read:
          case OpType::Write:
            out << " off=" << op.offset << " len=" << op.length;
            break;
          case OpType::Truncate:
            out << " len=" << op.length;
            break;
          case OpType::Open:
            out << (op.openForWrite ? " rw" : " ro");
            break;
          case OpType::Migrate:
            out << " target=" << op.targetClient;
            break;
          default:
            break;
        }
        out << "\n";
    }
    return out.str();
}

} // namespace nvfs::check

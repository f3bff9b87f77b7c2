/**
 * @file
 * Experiment drivers shared by the benchmark harnesses, examples, and
 * integration tests: generate a standard trace, preprocess it, run the
 * lifetime pass or a cluster simulation, and run the server-side LFS
 * study.  Generated traces are memoized per (trace, scale, dialect) so
 * parameter sweeps don't regenerate them.  Memoization is per-key:
 * the first caller of a key builds it while callers of other keys
 * build concurrently, so SweepRunner tasks never serialize on an
 * unrelated trace's generation.  References stay valid for the
 * process lifetime.
 */

#pragma once

#include <vector>

#include "core/client/cluster_sim.hpp"
#include "core/lifetime/lifetime.hpp"
#include "core/lifetime/next_modify.hpp"
#include "prep/ops.hpp"
#include "server/file_server.hpp"

namespace nvfs::core {

/**
 * Processed ops of paper trace `paper_number` (1..8).  Memoized; the
 * reference stays valid for the process lifetime.
 * @param sprite_compat exercise the offset-deduction pipeline
 */
const prep::OpStream &standardOps(int paper_number, double scale = 1.0,
                                  bool sprite_compat = false);

/**
 * Non-memoized variant with an explicit generator seed, for
 * sensitivity studies across trace realizations.
 */
prep::OpStream opsWithSeed(int paper_number, double scale,
                           std::uint64_t seed);

/** Memoized lifetime analysis of a standard trace. */
const LifetimeResult &standardLifetimes(int paper_number,
                                        double scale = 1.0);

/** Memoized next-modify oracle of a standard trace. */
const NextModifyIndex &standardOracle(int paper_number,
                                      double scale = 1.0);

/**
 * Replay one cell over an op stream: a one-size curve pass when
 * curveSupported(cellSpec(model, seed)) accepts it (every LRU cell
 * without dirty preference or dynamic sizing, a model.sink included),
 * otherwise the client models (ClusterSim).  The two are
 * bit-identical in Metrics and in the sink's stream.
 */
Metrics runClientSim(const prep::OpStream &ops, const ModelConfig &model,
                     std::uint64_t seed = 42);

/**
 * Replay one op stream through every model concurrently.  Cells equal
 * in every ModelConfig field but the swept size (volatileBytes for
 * the volatile model, nvramBytes for the NVRAM models) form a group,
 * and each group that curveSupported accepts replays as one
 * runCurveSim pass (at most kCurveMaxSizes sizes per pass; a group of
 * one is a one-size pass); every other cell replays alone on the
 * models.  Each pass or lone cell is one
 * index of the shared pool's claim loop (util::ThreadPool::forEach)
 * with its own simulator and Metrics, and the results come back in
 * model order.  Bit-identical to calling runClientSim on each model
 * in sequence for any width: tasks share only the read-only op
 * stream, each owns its simulator and RNG, every task runs, and if
 * several threw, the lowest-index task's exception is rethrown
 * (deterministic).  `width` 0 means util::defaultJobCount() (the
 * NVFS_JOBS width); width 1 (or a single task) replays every task on
 * the calling thread.
 */
std::vector<Metrics>
runClientGrid(const prep::OpStream &ops,
              const std::vector<ModelConfig> &models,
              std::uint64_t seed = 42, unsigned width = 0);

/** Result of one server-side run. */
struct ServerRunResult
{
    std::vector<server::FsStats> fs;
    std::uint64_t totalDiskWrites = 0;
    Bytes totalDataBytes = 0;
};

/**
 * Run the Section 3 server study over the standard file-system
 * profiles.
 * @param nvram_buffer_bytes 0 = baseline (no write buffer)
 */
ServerRunResult runServerSim(TimeUs duration, double scale,
                             Bytes nvram_buffer_bytes,
                             std::uint64_t seed = 7);

/**
 * Default scale for benches; override with the NVFS_SCALE env var.
 * Accepted values are finite reals in [1e-6, 1e6] (typically
 * 0.01-1.0); anything else is a fatal error naming the variable.
 */
double benchScale();

/**
 * Derive the server-bound op stream a client simulation produces:
 * replay the cell (runClientSim) with a collecting ServerWriteSink
 * and return the write/fsync traffic that reached the server, in
 * time order.  This is the workload the crash-schedule explorer
 * replays against an instrumented FileServer.
 */
std::vector<workload::ServerOp>
collectServerOps(const prep::OpStream &ops, const ModelConfig &model,
                 std::uint64_t seed = 42);

/** Result of composing both halves of the paper. */
struct EndToEndResult
{
    Metrics client;        ///< cluster-wide client metrics
    server::FsStats server; ///< the one file system behind the clients
};

/**
 * End-to-end run: the client simulation's server-bound write stream
 * (collected as collectServerOps does) is replayed against the LFS
 * file server, so client-side NVRAM choices propagate into server
 * disk accesses.
 * @param server_buffer_bytes the server's own NVRAM write buffer
 */
EndToEndResult runEndToEnd(const prep::OpStream &ops,
                           const ModelConfig &model,
                           Bytes server_buffer_bytes = 0,
                           std::uint64_t seed = 42);

} // namespace nvfs::core

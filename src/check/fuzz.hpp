/**
 * @file
 * nvfs::check — the differential fuzz driver.
 *
 * Generates randomized (but valid: time-sorted, bounded ids) op
 * streams and replays each one, for all three client cache models,
 * through the client models (ClusterSim, the production leg) with
 * structural audits enabled; through one curve pass per model
 * (core::runCurveSim) over sizes around the configured memory; and
 * through a one-size curve pass with a sink at the configured size.
 * A run fails when an audit throws util::AuditError, a simulator
 * invariant panics, a curve pass disagrees with the production replay
 * on any Metrics counter, or the one-size pass sends the server a
 * different stream.
 * Failures are shrunk to a minimal reproducing op stream before being
 * reported.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "prep/ops.hpp"

namespace nvfs::check {

/** Knobs for the fuzz driver. */
struct FuzzConfig
{
    std::uint64_t seed = 1;      ///< base seed (run r uses seed + r)
    std::size_t opsPerRun = 2000;
    std::uint32_t clients = 4;
    std::uint32_t files = 48;
    /** Audit every N dispatched ops inside each simulation. */
    std::uint64_t auditEvery = 64;
    /**
     * Deliberately small memories so the streams force evictions,
     * write-back, and NVRAM pressure.
     */
    Bytes volatileBytes = 48 * kBlockSize;
    Bytes nvramBytes = 16 * kBlockSize;
    /** Wall-clock budget; 0 = unlimited (runs decide). */
    double maxSeconds = 0.0;
    /** Skip the shrink phase (CI smoke wants fast failure). */
    bool shrink = true;
};

/** A shrunk failing case. */
struct FuzzFailure
{
    std::uint64_t seed = 0;    ///< seed of the failing run
    std::string what;          ///< audit message / metrics mismatch
    prep::OpStream ops;        ///< minimal reproducing stream
    std::size_t originalOps = 0; ///< stream size before shrinking
};

/** Outcome of a fuzz campaign. */
struct FuzzResult
{
    /** Streams fully replayed; with no failure, fewer than the runs
     *  asked for means maxSeconds cut the campaign short. */
    std::size_t runs = 0;
    std::size_t opsExecuted = 0; ///< generated ops across those runs
    std::optional<FuzzFailure> failure;

    bool ok() const { return !failure.has_value(); }
};

/**
 * Generate a random valid op stream: non-decreasing timestamps,
 * client/pid/file ids within bounds, and a mix of reads, writes,
 * opens/closes, fsyncs, deletes, truncates, and process migrations.
 */
prep::OpStream generateOps(const FuzzConfig &config,
                           std::uint64_t seed);

/**
 * Replay `ops` through the production simulator for each of the three
 * models (audits every config.auditEvery ops); then run one curve
 * pass per model over one block, half, the configured size and double
 * (the volatile cache for the volatile model, the NVRAM for the
 * others) and compare each row with the production replay at that
 * size; then bit-compare the server-bound stream (every sink event:
 * time, file, block, bytes, cause, fsyncs) of a one-size pass at the
 * configured size with the production replay's.  Returns a
 * description of the first failure, or nullopt when every pairing
 * agrees and no audit fires.
 */
std::optional<std::string>
runDifferential(const prep::OpStream &ops, const FuzzConfig &config);

/**
 * Run up to `runs` independent streams (stopping early on failure or
 * when config.maxSeconds expires).  The first failure is shrunk to a
 * minimal reproducer unless config.shrink is false.
 */
FuzzResult fuzz(const FuzzConfig &config, std::size_t runs);

/** Human-readable reproducer dump, one op per line. */
std::string describeOps(const prep::OpStream &ops);

} // namespace nvfs::check

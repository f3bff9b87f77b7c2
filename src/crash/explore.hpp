/**
 * @file
 * The crash-schedule explorer: enumerate every persistence point of a
 * workload and prove recovery at each one, instead of hand-picking
 * fault indices.
 *
 * One census run replays the workload against an instrumented
 * FileServer and counts every crash site it reaches (seal begins,
 * inode-map updates, seal commits, journal appends, checkpoints,
 * NVRAM puts).  The explorer then replays the workload once per
 * selected site, crashing there with the site kind's natural failure
 * mode — power-fail, torn write, or dropped device put — and checks
 * the durability oracle against the post-crash log:
 *
 *  1. roll-forward recovery reproduces exactly the durable state at
 *     the last successful seal commit (nothing acked-durable lost,
 *     nothing fabricated or resurrected);
 *  2. recovery is idempotent: a second roll-forward of the same
 *     post-crash log is identical;
 *  3. quarantining recovery agrees with strict recovery and accounts
 *     for every damaged segment;
 *  4. in buffered mode, the NVRAM write buffer covers every block the
 *     crash caught pending or torn (the paper's reliability claim);
 *  5. the post-crash log still passes its structural audit.
 *
 * Site selection is exhaustive by default.  ExploreConfig::sampleSites
 * (nvfs_sim crashsweep --sample) draws a seeded uniform sample
 * instead, and NVFS_CRASH_SITES=3,17,40 pins the 1-based sites to
 * crash at (strict-parsed; a malformed or out-of-range list is a hard
 * error).
 *
 * The crash replays are independent, so they run on the shared
 * NVFS_JOBS pool (util::ThreadPool::global()).  Each verdict goes to
 * its site's slot and the slots merge in site order, so the result
 * is the same at every width.
 *
 * A violating schedule is then shrunk, serially and in site order,
 * with the fuzzer's delta-debugging machinery to a minimal op stream
 * that still reaches the crash site and still violates the oracle
 * there.
 */

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "crash/registry.hpp"
#include "lfs/recovery.hpp"
#include "server/file_server.hpp"
#include "workload/server_workload.hpp"

namespace nvfs::crash {

/** Explorer parameters. */
struct ExploreConfig
{
    server::ServerConfig server;    ///< incl. nvramBufferBytes
    std::vector<std::string> fsNames = {"/fs"};
    std::uint64_t seed = 42;        ///< seeds the site sampling
    /** Crash at a seeded uniform sample of this many sites instead of
     *  all of them (0 = exhaustive).  NVFS_CRASH_SITES takes
     *  precedence when set. */
    std::uint64_t sampleSites = 0;
    bool shrinkOnFailure = true;
    std::size_t shrinkBudget = 100; ///< replays spent minimizing
};

/** One oracle violation (a durability bug). */
struct Violation
{
    std::uint64_t site = 0; ///< 1-based crash site that exposed it
    nvram::CrashSiteKind kind = nvram::CrashSiteKind::SealBegin;
    std::string what;
    /** Minimal reproducing op stream (empty if shrinking was off or
     *  the budget ran out before any reduction held). */
    std::vector<workload::ServerOp> repro;
};

/** Verdict of one crash replay (exposed for tests). */
struct CrashVerdict
{
    bool crashed = false; ///< the armed site was reached
    std::optional<Violation> violation;
    /** Quarantining recovery's damage accounting, summed over the
     *  server's file systems. */
    lfs::RecoveryReport quarantine;
};

/** Aggregate result of one exploration. */
struct ExploreResult
{
    std::uint64_t sitesTotal = 0; ///< census: schedule-space size
    SiteCounts sitesByKind{};
    std::uint64_t crashesExplored = 0;
    std::vector<Violation> violations;
    /** Damage totals from the quarantining recovery of every explored
     *  crash (what a skip-and-continue recovery would have reported
     *  instead of aborting). */
    std::uint64_t segmentsQuarantined = 0;
    std::uint64_t blocksLost = 0;
    std::uint64_t metaOpsLost = 0;
};

/**
 * Check the durability oracle against a crashed registry's tracked
 * file systems.  Returns the first violation's description, nullopt
 * when recovery is provably correct.  When `aggregate` is non-null,
 * the quarantining recovery's damage report (summed over tracked
 * logs) is added into it even on success.
 */
std::optional<std::string>
verifyDurability(const CrashSiteRegistry &registry,
                 lfs::RecoveryReport *aggregate = nullptr);

/**
 * Replay `ops` against a fresh instrumented FileServer, crashing at
 * the 1-based `site`, and run the oracle.  The building block of
 * explore(); exposed for tests and for shrinking.
 */
CrashVerdict exploreOne(const std::vector<workload::ServerOp> &ops,
                        const ExploreConfig &config,
                        std::uint64_t site);

/**
 * One crash replay of explore(): exploreOne, or a test's stand-in.
 * The census runs without it, so a stand-in must reach the sites the
 * census counts (a tear marked at a seal commit does).
 */
using CrashReplay = CrashVerdict (*)(
    const std::vector<workload::ServerOp> &ops,
    const ExploreConfig &config, std::uint64_t site);

/**
 * Census the workload's crash sites, then crash at every selected
 * site (all of them, config.sampleSites of them, or the
 * NVFS_CRASH_SITES pin) on the shared pool through `replay`, and
 * shrink each violation with the same replay.  Violations come out in
 * site order at every NVFS_JOBS width.
 */
ExploreResult explore(const std::vector<workload::ServerOp> &ops,
                      const ExploreConfig &config,
                      CrashReplay replay = exploreOne);

} // namespace nvfs::crash

/**
 * @file
 * The crash-schedule explorer: enumerate every persistence point of a
 * workload and prove recovery at each one, instead of hand-picking
 * fault indices.
 *
 * One census run replays the workload against an instrumented
 * FileServer and counts every crash site it reaches (seal begins,
 * inode-map updates, seal commits, journal appends, checkpoints,
 * NVRAM puts), and how many it had reached before each op and before
 * the end-of-run drain.  The explorer then crashes the workload at
 * each selected site with the site kind's natural failure mode —
 * power-fail, torn write, or dropped device put — and checks the
 * durability oracle against the post-crash log:
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
 * A crash is not replayed from the first op.  The selected sites
 * split into contiguous runs, one task each on the shared NVFS_JOBS
 * pool (util::ThreadPool::global()).  A task steps one forward
 * server, whose registry only counts, through the stream; at the op
 * holding each of its sites (or at the drain) it copies the server
 * and the registry, arms the copy at the site and resumes the run on
 * the copy from that op, so the crash fires inside it exactly as in a
 * replay from scratch (exploreOne, the tests' reference).  Each
 * verdict goes to its site's slot and the slots merge in site order,
 * so the result is the same at every width.
 *
 * A violating schedule is then shrunk, serially and in site order,
 * with the fuzzer's delta-debugging machinery to a minimal op stream
 * that still reaches the crash site and still violates the oracle
 * there; each candidate stream is replayed from scratch.
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

/** Crash replays one violation's shrink may spend minimizing. */
inline constexpr std::size_t kShrinkBudget = 100;

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
 * Sites to crash at, 1-based and ascending: NVFS_CRASH_SITES when set
 * (strict-parsed; malformed values are hard errors), else a seeded
 * sample of config.sampleSites sites when positive and below `total`,
 * else every site the census counted.
 */
std::vector<std::uint64_t> selectSites(std::uint64_t total,
                                       const ExploreConfig &config);

/**
 * A defect a test plants between the registry and the logs and
 * devices of every server the explorer builds: told each site and the
 * registry's answer, it returns the action they obey.  It keeps no
 * state, so a forked server carries the defect in its forward state.
 */
using SiteFilter = nvram::CrashAction (*)(nvram::CrashSiteKind kind,
                                          std::uint64_t detail,
                                          nvram::CrashAction answer);

/**
 * Replay `ops` from the first op against a fresh instrumented
 * FileServer, crashing at the 1-based `site`, and run the oracle.
 * Shrinking replays its candidate streams this way, and the tests
 * hold explore()'s forked crashes to it.
 */
CrashVerdict exploreOne(const std::vector<workload::ServerOp> &ops,
                        const ExploreConfig &config, std::uint64_t site,
                        SiteFilter filter = nullptr);

/**
 * Census the workload's crash sites, then crash at every selected
 * site (all of them, config.sampleSites of them, or the
 * NVFS_CRASH_SITES pin) by forking forward replays on the shared
 * pool, and shrink each violation with exploreOne.  `filter` (tests
 * only) sits in front of every registry.  Violations come out in site
 * order at every NVFS_JOBS width.
 */
ExploreResult explore(const std::vector<workload::ServerOp> &ops,
                      const ExploreConfig &config,
                      SiteFilter filter = nullptr);

} // namespace nvfs::crash

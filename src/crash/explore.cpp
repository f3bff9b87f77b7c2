#include "crash/explore.hpp"

#include <algorithm>
#include <set>

#include "check/shrink.hpp"
#include "obs/obs.hpp"
#include "util/audit.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace nvfs::crash {

namespace {

/**
 * Pool tasks per worker: more, shorter runs of sites even out the
 * tasks' costs (later sites recover longer logs), at the price of one
 * more forward replay per task.
 */
constexpr std::size_t kRunsPerWorker = 2;

/** The NVRAM ledger tag FileServer stages a block under. */
std::uint64_t
blockTag(FileId file, std::uint32_t block)
{
    return (static_cast<std::uint64_t>(file) << 32) | block;
}

/** A seeded uniform sample of `want` distinct 1-based sites. */
std::vector<std::uint64_t>
sampleSites(std::uint64_t total, std::uint64_t want,
            std::uint64_t seed)
{
    util::Rng rng(seed);
    std::set<std::uint64_t> picked;
    while (picked.size() < want)
        picked.insert(rng.uniformInt(1, total));
    return {picked.begin(), picked.end()};
}

/**
 * The hook every server of the explorer reports to: its registry,
 * behind the test filter when there is one.
 */
class FilteredRegistry final : public nvram::CrashSiteHook
{
  public:
    FilteredRegistry(CrashSiteRegistry &registry, SiteFilter filter)
        : registry_(registry), filter_(filter)
    {
    }

    nvram::CrashAction
    onSite(nvram::CrashSiteKind kind, std::uint64_t detail,
           const void *origin) override
    {
        const nvram::CrashAction answer =
            registry_.onSite(kind, detail, origin);
        return filter_ == nullptr ? answer
                                  : filter_(kind, detail, answer);
    }

    bool dead() const override { return registry_.dead(); }

    SiteFilter filter() const { return filter_; }

  private:
    CrashSiteRegistry &registry_;
    SiteFilter filter_;
};

/**
 * A FileServer whose logs and devices report to its own registry.
 * Copying one forks the replay: the copy's registry keeps the counts
 * and sealed snapshots and follows the copied logs and devices.
 */
struct Replay
{
    CrashSiteRegistry registry;
    FilteredRegistry hook;
    server::FileServer server;

    Replay(const ExploreConfig &config, SiteFilter filter)
        : hook(registry, filter), server(config.fsNames, config.server)
    {
        server.setCrashHook(&hook);
        for (std::size_t i = 0; i < server.fsCount(); ++i) {
            const auto fs = static_cast<FsId>(i);
            registry.track(server.log(fs), server.nvramDevice(fs));
        }
    }

    Replay(const Replay &other)
        : registry(other.registry), hook(registry, other.hook.filter()),
          server(other.server)
    {
        server.setCrashHook(&hook);
        for (std::size_t i = 0; i < server.fsCount(); ++i) {
            const auto fs = static_cast<FsId>(i);
            registry.retarget(i, server.log(fs), server.nvramDevice(fs));
        }
    }

    Replay &operator=(const Replay &) = delete;

    /** Run ops[first..] (and the drain) until the armed crash fires. */
    void
    crashFrom(const std::vector<workload::ServerOp> &ops,
              std::size_t first)
    {
        server.run(ops, [this] { return registry.dead(); }, first);
    }

    /** The oracle's verdict once the replay armed at `site` ran. */
    CrashVerdict
    verdict(std::uint64_t site) const
    {
        CrashVerdict verdict;
        verdict.crashed = registry.crash().has_value();
        if (!verdict.crashed) {
            // The census counted this site, so a deterministic replay
            // must reach it again.
            verdict.violation =
                Violation{site, nvram::CrashSiteKind::SealBegin,
                          "armed crash site was never reached on "
                          "replay (nondeterministic schedule)",
                          {}};
            return verdict;
        }
        if (const auto what =
                verifyDurability(registry, &verdict.quarantine)) {
            verdict.violation = Violation{site, registry.crash()->kind,
                                          *what, {}};
        }
        return verdict;
    }
};

/** Count damaged (torn/corrupt) segments of a log. */
std::uint32_t
damagedSegments(const lfs::LfsLog &log)
{
    std::uint32_t damaged = 0;
    for (const lfs::Segment &segment : log.segments()) {
        if (segment.torn || segment.corrupt)
            ++damaged;
    }
    return damaged;
}

} // namespace

std::vector<std::uint64_t>
selectSites(std::uint64_t total, const ExploreConfig &config)
{
    const char *list = util::envRaw("NVFS_CRASH_SITES");
    std::vector<std::uint64_t> sites;
    if (list != nullptr && *list != '\0') {
        const std::string spec(list);
        std::size_t pos = 0;
        while (pos < spec.size()) {
            std::size_t comma = spec.find(',', pos);
            if (comma == std::string::npos)
                comma = spec.size();
            const std::string item = spec.substr(pos, comma - pos);
            pos = comma + 1;
            if (item.empty())
                continue;
            const auto site = util::tryParseInt(item);
            if (!site || *site <= 0) {
                util::fatal(util::format(
                    "NVFS_CRASH_SITES: item '%s' is not a positive "
                    "site index",
                    item.c_str()));
            }
            if (static_cast<std::uint64_t>(*site) > total) {
                util::fatal(util::format(
                    "NVFS_CRASH_SITES: site %lld is out of range "
                    "(the workload has %llu sites)",
                    static_cast<long long>(*site),
                    static_cast<unsigned long long>(total)));
            }
            sites.push_back(static_cast<std::uint64_t>(*site));
        }
        std::sort(sites.begin(), sites.end());
        sites.erase(std::unique(sites.begin(), sites.end()),
                    sites.end());
        return sites;
    }
    // A sample covering everything is exhaustive enumeration.
    if (config.sampleSites > 0 && config.sampleSites < total)
        return sampleSites(total, config.sampleSites, config.seed);
    sites.reserve(total);
    for (std::uint64_t site = 1; site <= total; ++site)
        sites.push_back(site);
    return sites;
}

std::optional<std::string>
verifyDurability(const CrashSiteRegistry &registry,
                 lfs::RecoveryReport *aggregate)
{
    for (const CrashSiteRegistry::TrackedFs &fs : registry.tracked()) {
        const lfs::LfsLog &log = *fs.log;

        // 5. The post-crash in-memory model must still be coherent —
        // a crash leaves durable state incomplete, never corrupt.
        try {
            log.auditInvariants();
        } catch (const util::AuditError &error) {
            return std::string("post-crash audit failed: ") +
                   error.what();
        }

        // 1. Strict roll-forward reproduces the durable state of the
        // last successful seal commit exactly: nothing acked-durable
        // is lost, nothing the host never sealed appears.
        const lfs::RecoveryResult strict = lfs::rollForward(log);
        if (!(strict.inodes == fs.sealedSnapshot)) {
            return util::format(
                "recovered inode map diverges from the durable state "
                "at the last seal commit (%zu blocks recovered, %zu "
                "expected)",
                static_cast<std::size_t>(strict.inodes.blockCount()),
                static_cast<std::size_t>(
                    fs.sealedSnapshot.blockCount()));
        }

        // 2. Recovery is idempotent: replaying the same post-crash
        // log again must be byte-for-byte identical.
        const lfs::RecoveryResult again = lfs::rollForward(log);
        if (!(strict == again))
            return "strict roll-forward is not idempotent";

        // 3. Quarantining recovery: skips (not aborts) every damaged
        // segment, reports the damage, and — with no segments sealed
        // after a crash — agrees with strict recovery on the map.
        const lfs::RecoveryOptions quarantine{true};
        const lfs::RecoveryResult skipped =
            lfs::rollForward(log, nullptr, quarantine);
        if (!(skipped ==
              lfs::rollForward(log, nullptr, quarantine)))
            return "quarantining roll-forward is not idempotent";
        if (skipped.stoppedAtTornSegment)
            return "quarantining roll-forward aborted at a damaged "
                   "segment instead of skipping it";
        if (skipped.report.segmentsQuarantined != damagedSegments(log)) {
            return util::format(
                "quarantine accounted %u damaged segments, log has "
                "%u",
                skipped.report.segmentsQuarantined,
                damagedSegments(log));
        }
        if (!(skipped.inodes == strict.inodes)) {
            return "quarantining and strict recovery disagree on a "
                   "crash-terminated log";
        }
        if (aggregate != nullptr) {
            aggregate->segmentsScanned +=
                skipped.report.segmentsScanned;
            aggregate->segmentsQuarantined +=
                skipped.report.segmentsQuarantined;
            aggregate->blocksLost += skipped.report.blocksLost;
            aggregate->metaOpsLost += skipped.report.metaOpsLost;
        }

        // 4. Buffered mode: the NVRAM write buffer covers every block
        // the crash caught outside a durable segment — acked data
        // survives any crash, the paper's central claim.
        if (fs.device != nullptr) {
            // NvramDevice::tags() is ascending.
            const std::vector<std::uint64_t> &staged = fs.stagedAtCrash;
            const auto is_staged = [&staged](std::uint64_t tag) {
                return std::binary_search(staged.begin(), staged.end(),
                                          tag);
            };
            for (const auto &[file, block] : fs.pendingAtCrash) {
                if (!is_staged(blockTag(file, block))) {
                    return util::format(
                        "block (file %u, block %u) was pending at "
                        "the crash but not staged in NVRAM",
                        file, block);
                }
            }
            for (const lfs::Segment &segment : log.segments()) {
                if (!(segment.torn || segment.corrupt) ||
                    segment.cause == lfs::SealCause::Cleaner)
                    continue;
                for (const lfs::SegmentEntry &entry :
                     segment.entries) {
                    if (entry.kind != lfs::EntryKind::Data)
                        continue;
                    if (!is_staged(
                            blockTag(entry.file, entry.blockIndex))) {
                        return util::format(
                            "block (file %u, block %u) was lost with "
                            "torn segment %u and is not staged in "
                            "NVRAM",
                            entry.file, entry.blockIndex, segment.id);
                    }
                }
            }
        }
    }
    return std::nullopt;
}

CrashVerdict
exploreOne(const std::vector<workload::ServerOp> &ops,
           const ExploreConfig &config, std::uint64_t site,
           SiteFilter filter)
{
    Replay replay(config, filter);
    replay.registry.armCrash(site);
    replay.crashFrom(ops, 0);
    return replay.verdict(site);
}

ExploreResult
explore(const std::vector<workload::ServerOp> &ops,
        const ExploreConfig &config, SiteFilter filter)
{
    static const obs::Counter explored("crash.crashes_explored");
    static const obs::Counter violated("crash.oracle_violations");

    ExploreResult result;

    // Census: one clean replay counts the schedule space.
    // reachedBefore[i] is the number of sites reached before op i, and
    // reachedBefore[ops.size()] before the drain.
    std::vector<std::uint64_t> reachedBefore;
    reachedBefore.reserve(ops.size() + 1);
    {
        Replay census(config, filter);
        for (const workload::ServerOp &op : ops) {
            reachedBefore.push_back(census.registry.sitesSeen());
            census.server.step(op);
        }
        reachedBefore.push_back(census.registry.sitesSeen());
        census.server.run(ops, {}, ops.size());
        result.sitesTotal = census.registry.sitesSeen();
        result.sitesByKind = census.registry.sitesByKind();
    }
    // The op (ops.size(): the drain) during which `site` is reached.
    const auto opHolding = [&reachedBefore](std::uint64_t site) {
        const auto after = std::lower_bound(reachedBefore.begin(),
                                            reachedBefore.end(), site);
        return static_cast<std::size_t>(after - reachedBefore.begin()) -
               1;
    };

    // Crash once per selected site and oracle-check the recovery.  The
    // sites (ascending) split into contiguous runs, one pool task
    // each.  A task steps a forward replay, which only counts, to the
    // op holding each of its sites, forks it there and resumes the
    // fork armed at the site, so each crash costs its own op and the
    // oracle rather than a replay of its whole prefix.  Verdicts land
    // in per-site slots and merge below in site order: the result is
    // the same at every NVFS_JOBS width.
    const std::vector<std::uint64_t> sites =
        selectSites(result.sitesTotal, config);
    const unsigned width = util::defaultJobCount();
    const std::size_t runs =
        std::min<std::size_t>(sites.size(), kRunsPerWorker * width);
    const auto runStart = [&](std::size_t run) {
        return run * sites.size() / runs;
    };
    std::vector<CrashVerdict> verdicts(sites.size());
    util::ThreadPool::global().forEach(
        runs, width,
        [&](std::size_t run) {
            return util::format(
                "crash sites %llu-%llu",
                static_cast<unsigned long long>(sites[runStart(run)]),
                static_cast<unsigned long long>(
                    sites[runStart(run + 1) - 1]));
        },
        [&](std::size_t run) {
            Replay forward(config, filter);
            std::size_t stepped = 0;
            for (std::size_t i = runStart(run); i < runStart(run + 1);
                 ++i) {
                const std::size_t at = opHolding(sites[i]);
                for (; stepped < at; ++stepped)
                    forward.server.step(ops[stepped]);
                Replay fork(forward);
                fork.registry.armCrash(sites[i]);
                fork.crashFrom(ops, at);
                verdicts[i] = fork.verdict(sites[i]);
            }
        });

    for (CrashVerdict &verdict : verdicts) {
        ++result.crashesExplored;
        explored.add();
        result.segmentsQuarantined +=
            verdict.quarantine.segmentsQuarantined;
        result.blocksLost += verdict.quarantine.blocksLost;
        result.metaOpsLost += verdict.quarantine.metaOpsLost;
        if (!verdict.violation.has_value())
            continue;
        violated.add();
        Violation violation = std::move(*verdict.violation);
        if (config.shrinkOnFailure) {
            // Minimize the op stream while the same crash site keeps
            // violating the oracle.  Dropping ops keeps the stream
            // legal (times stay sorted); the site numbering shifts,
            // so the predicate re-runs the full crash replay.  A
            // candidate too short to reach the site does not count:
            // its "never reached" verdict would shrink any repro to
            // nothing.
            const std::uint64_t site = violation.site;
            violation.repro = check::deltaShrink(
                ops,
                [&](const std::vector<workload::ServerOp>
                        &candidate) {
                    const CrashVerdict probe =
                        exploreOne(candidate, config, site, filter);
                    return probe.crashed && probe.violation.has_value();
                },
                kShrinkBudget);
        }
        result.violations.push_back(std::move(violation));
    }
    return result;
}

} // namespace nvfs::crash

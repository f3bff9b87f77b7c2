/**
 * @file
 * CrashSiteRegistry: the CrashSiteHook implementation behind the
 * crash-schedule explorer (nvfs::crash).
 *
 * A registry runs a workload in one of two modes:
 *
 *  - census (default): count every crash site the workload reaches,
 *    per kind, without crashing.  The count defines the schedule
 *    space the explorer enumerates.
 *  - crash: armCrash(n) makes the registry fire at the nth site (the
 *    same 1-based numbering the census produced) with the site
 *    kind's natural failure mode — power-fail at seal-begin /
 *    journal-append / checkpoint, torn write at inode-update /
 *    seal-commit, dropped put at device-put.  From that instant the
 *    registry reports dead() and answers Dead everywhere, so the
 *    instrumented components treat the host as powered off.
 *
 * While alive, the registry maintains the durability ground truth the
 * oracle needs: a snapshot of each tracked log's inode map taken at
 * every successful seal commit — by construction exactly the state
 * roll-forward recovery must reproduce after a crash.  At the crash
 * instant it captures each log's pending (acked-but-unsealed) blocks
 * and each NVRAM device's staged tags, before any post-crash code can
 * disturb them.
 */

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "lfs/log.hpp"
#include "nvram/crash_site.hpp"
#include "nvram/device.hpp"

namespace nvfs::crash {

constexpr std::size_t kSiteKinds =
    static_cast<std::size_t>(nvram::CrashSiteKind::Count_);

/** Per-kind site counts from one run. */
using SiteCounts = std::array<std::uint64_t, kSiteKinds>;

class CrashSiteRegistry : public nvram::CrashSiteHook
{
  public:
    /** One instrumented file system the oracle will check. */
    struct TrackedFs
    {
        const lfs::LfsLog *log = nullptr;
        /** Write-buffer ledger; nullptr when unbuffered. */
        const nvram::NvramDevice *device = nullptr;
        /** Durable inode state as of the last successful seal commit
         *  — what recovery must reproduce after a crash. */
        lfs::InodeMap sealedSnapshot;
        /** The log's pending (acked, unsealed) blocks at the crash
         *  instant; a power failure loses exactly these from disk. */
        std::vector<std::pair<FileId, std::uint32_t>> pendingAtCrash;
        /** The device's staged tags at the crash instant, ascending. */
        std::vector<std::uint64_t> stagedAtCrash;
    };

    /** The crash that fired, if any. */
    struct CrashInfo
    {
        std::uint64_t site = 0; ///< 1-based site index
        nvram::CrashSiteKind kind = nvram::CrashSiteKind::SealBegin;
        nvram::CrashAction action = nvram::CrashAction::None;
        std::uint64_t detail = 0;
    };

    /** Register a file system for oracle bookkeeping.  Call for every
     *  log/device the hook will be attached to, before the run. */
    void track(const lfs::LfsLog &log,
               const nvram::NvramDevice *device);

    /**
     * Point the `index`th tracked file system (in track() order) at
     * another log and device.  A copied registry keeps its counts and
     * sealed snapshots; retargeted at a copied server's logs and
     * devices, it follows the forked replay.
     */
    void retarget(std::size_t index, const lfs::LfsLog &log,
                  const nvram::NvramDevice *device);

    /** Arm a crash at the 1-based `site`; 0 disarms (census mode). */
    void armCrash(std::uint64_t site) { armedSite_ = site; }

    nvram::CrashAction onSite(nvram::CrashSiteKind kind,
                              std::uint64_t detail,
                              const void *origin) override;

    bool dead() const override { return dead_; }

    /** Sites reached so far (census: the schedule-space size). */
    std::uint64_t sitesSeen() const { return sites_; }

    /** Per-kind site counts. */
    const SiteCounts &sitesByKind() const { return byKind_; }

    /** The crash that fired; nullopt while alive / in census mode. */
    const std::optional<CrashInfo> &crash() const { return crash_; }

    /** Oracle state of every tracked file system. */
    const std::vector<TrackedFs> &tracked() const { return tracked_; }

  private:
    /** Freeze pending/staged state of every tracked fs at the crash
     *  instant. */
    void captureAtCrash();

    std::vector<TrackedFs> tracked_;
    std::uint64_t sites_ = 0;
    SiteCounts byKind_{};
    std::uint64_t armedSite_ = 0;
    bool dead_ = false;
    std::optional<CrashInfo> crash_;
};

} // namespace nvfs::crash

#include "crash/registry.hpp"

#include "obs/obs.hpp"
#include "util/log.hpp"

namespace nvfs::crash {

void
CrashSiteRegistry::track(const lfs::LfsLog &log,
                         const nvram::NvramDevice *device)
{
    TrackedFs fs;
    fs.log = &log;
    fs.device = device;
    tracked_.push_back(std::move(fs));
}

void
CrashSiteRegistry::retarget(std::size_t index, const lfs::LfsLog &log,
                            const nvram::NvramDevice *device)
{
    NVFS_REQUIRE(index < tracked_.size(), "retarget of an untracked fs");
    tracked_[index].log = &log;
    tracked_[index].device = device;
}

void
CrashSiteRegistry::captureAtCrash()
{
    for (TrackedFs &fs : tracked_) {
        fs.pendingAtCrash = fs.log->pendingBlocks();
        if (fs.device != nullptr)
            fs.stagedAtCrash = fs.device->tags();
    }
}

nvram::CrashAction
CrashSiteRegistry::onSite(nvram::CrashSiteKind kind,
                          std::uint64_t detail, const void *origin)
{
    static const obs::Counter seen("crash.sites_seen");

    if (dead_)
        return nvram::CrashAction::Dead;

    ++sites_;
    ++byKind_[static_cast<std::size_t>(kind)];
    seen.add();

    if (armedSite_ != 0 && sites_ == armedSite_) {
        const nvram::CrashAction action = nvram::crashModeOf(kind);
        crash_ = CrashInfo{sites_, kind, action, detail};
        dead_ = true;
        // Freeze the oracle's view before the instrumented component
        // acts on the returned action (a power-failing seal is about
        // to clear the very pending set we need).
        captureAtCrash();
        return action;
    }

    if (kind == nvram::CrashSiteKind::SealCommit) {
        // A seal just committed: its log's live inode map IS the
        // durable state roll-forward must reproduce from now on.
        for (TrackedFs &fs : tracked_) {
            if (fs.log == origin) {
                fs.sealedSnapshot = fs.log->inodes();
                return nvram::CrashAction::None;
            }
        }
        util::panic("SealCommit from an untracked log — call "
                    "CrashSiteRegistry::track() for every "
                    "instrumented log");
    }
    return nvram::CrashAction::None;
}

} // namespace nvfs::crash

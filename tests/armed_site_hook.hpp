/**
 * @file
 * ArmedSiteHook: a test-side crash-site hook that answers one armed
 * action at the nth site of one kind, counted across every log and
 * device it is attached to, and never declares the host dead.  It is
 * how tests inject one failure into the production crash-site seam:
 *
 *  - a torn seal:      SealCommit, Torn (the summary never lands);
 *  - a power failure:  SealBegin, PowerFail (the open segment is lost);
 *  - a dropped put:    DevicePut, Drop (the old contents survive).
 *
 * It can wrap an inner hook: the inner hook sees every site first and
 * its answer wins unless it is None, so two armed failures (a dropped
 * put under a torn seal) can share one server.
 */

#pragma once

#include <cstdint>

#include "nvram/crash_site.hpp"

namespace nvfs {

class ArmedSiteHook final : public nvram::CrashSiteHook
{
  public:
    ArmedSiteHook(nvram::CrashSiteKind kind, std::uint64_t nth,
                  nvram::CrashAction action,
                  nvram::CrashSiteHook *inner = nullptr)
        : kind_(kind), nth_(nth), action_(action), inner_(inner)
    {
    }

    nvram::CrashAction
    onSite(nvram::CrashSiteKind kind, std::uint64_t detail,
           const void *origin) override
    {
        const nvram::CrashAction answer =
            inner_ == nullptr ? nvram::CrashAction::None
                              : inner_->onSite(kind, detail, origin);
        if (answer != nvram::CrashAction::None || kind != kind_ ||
            ++seen_ != nth_)
            return answer;
        fired_ = true;
        return action_;
    }

    bool
    dead() const override
    {
        return inner_ != nullptr && inner_->dead();
    }

    /** True once the armed action has been answered. */
    bool fired() const { return fired_; }

  private:
    nvram::CrashSiteKind kind_;
    std::uint64_t nth_;
    nvram::CrashAction action_;
    nvram::CrashSiteHook *inner_;
    std::uint64_t seen_ = 0;
    bool fired_ = false;
};

} // namespace nvfs

/**
 * @file
 * The NVRAM device model: battery-backed RAM with capacity, access
 * latency, and battery redundancy.  Section 4 of the paper discusses
 * the system-design consequences — data in a crashed client's NVRAM
 * must be recoverable by moving the component to another machine —
 * so the device supports detach/attach with contents preserved, and
 * battery-failure injection for reliability tests.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/flat_map.hpp"
#include "util/types.hpp"

namespace nvfs::nvram {

class CrashSiteHook;

/** Static properties of an NVRAM part. */
struct DeviceParams
{
    Bytes capacity = kMiB;
    double readLatencyNs = 70.0;  ///< per-access; Table 1 parts: 70 ns
    double writeLatencyNs = 70.0;
    int batteries = 2;            ///< lithium cells (redundancy)
};

/**
 * A battery-backed memory holding opaque tagged contents.
 *
 * Contents survive detach()/attach() (power loss of the host) as long
 * as at least one battery is good; failBattery() injects cell death.
 * Used by the client models to prove the recovery story and by the
 * reliability tests.
 */
class NvramDevice
{
  public:
    explicit NvramDevice(const DeviceParams &params = {});

    const DeviceParams &params() const { return params_; }

    /** Working batteries left. */
    int goodBatteries() const { return goodBatteries_; }

    /** True when contents are still guaranteed. */
    bool contentsValid() const { return contentsValid_; }

    /** Bytes currently stored. */
    Bytes usedBytes() const { return used_; }

    /** Bytes still free. */
    Bytes
    freeBytes() const
    {
        return used_ >= params_.capacity ? 0 : params_.capacity - used_;
    }

    /**
     * Store `bytes` under `tag` (replaces any previous value for the
     * tag).  Returns false (and stores nothing) if it would exceed
     * capacity.  Counts a write access.
     */
    bool put(std::uint64_t tag, Bytes bytes);

    /** Bytes stored under `tag`; counts a read access. */
    std::optional<Bytes> get(std::uint64_t tag);

    /** Remove a tag; returns the bytes freed. */
    Bytes erase(std::uint64_t tag);

    /** True if the tag currently holds data (no access counted). */
    bool holds(std::uint64_t tag) const
    {
        return contents_.contains(tag);
    }

    /** Every stored tag, ascending (recovery walks the contents). */
    std::vector<std::uint64_t> tags() const;

    /**
     * Remove every tag for which pred(tag) holds, as erase() would
     * one by one; returns how many went.
     */
    template <typename Pred>
    std::size_t
    eraseIf(Pred &&pred)
    {
        return contents_.eraseIf([&](std::uint64_t tag, Bytes bytes) {
            if (!pred(tag))
                return false;
            used_ -= bytes;
            return true;
        });
    }

    /** Drop everything. */
    void clear();

    /**
     * Host lost power (client crash).  Contents are preserved iff a
     * battery is good.
     */
    void detach();

    /** Re-attach to a (possibly different) host. */
    void attach();

    /** Kill one battery; contents are lost when none remain while
     *  detached. */
    void failBattery();

    /** Access counters (Section 2.6 compares these across models). */
    std::uint64_t readAccesses() const { return reads_; }
    std::uint64_t writeAccesses() const { return writes_; }

    /**
     * Attach a crash-site hook (nvfs::crash); nullptr detaches.  Not
     * owned.  Every put() is a DevicePut crash site: the hook can
     * count it, drop it (power fails mid-write; previous contents
     * survive), or declare the host dead (the put never happens).
     */
    void setCrashHook(CrashSiteHook *hook) { crashHook_ = hook; }

  private:
    DeviceParams params_;
    util::FlatMap<std::uint64_t, Bytes, util::SplitMix64Hash> contents_;
    Bytes used_ = 0;
    int goodBatteries_;
    bool attached_ = true;
    bool contentsValid_ = true;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    CrashSiteHook *crashHook_ = nullptr;
};

} // namespace nvfs::nvram

#include "nvram/device.hpp"

#include <algorithm>

#include "nvram/crash_site.hpp"
#include "util/log.hpp"

namespace nvfs::nvram {

NvramDevice::NvramDevice(const DeviceParams &params)
    : params_(params), goodBatteries_(params.batteries)
{
    NVFS_REQUIRE(params_.capacity > 0, "NVRAM needs capacity");
}

bool
NvramDevice::put(std::uint64_t tag, Bytes bytes)
{
    if (crashHook_ != nullptr) {
        switch (crashHook_->onSite(CrashSiteKind::DevicePut, tag,
                                   this)) {
          case CrashAction::Drop:
            // Power failed mid-write: the access was issued (count
            // it) but the cell never committed; the old value for the
            // tag survives.
            ++writes_;
            return false;
          case CrashAction::Dead:
            // The host is already down — the put is never issued.
            return false;
          default:
            break;
        }
    }
    Bytes *stored = contents_.find(tag);
    const Bytes old = stored == nullptr ? 0 : *stored;
    if (used_ - old + bytes > params_.capacity)
        return false;
    used_ = used_ - old + bytes;
    if (stored != nullptr)
        *stored = bytes;
    else
        contents_.insertOrAssign(tag, bytes);
    ++writes_;
    return true;
}

std::optional<Bytes>
NvramDevice::get(std::uint64_t tag)
{
    ++reads_;
    const Bytes *stored = contents_.find(tag);
    if (stored == nullptr)
        return std::nullopt;
    return *stored;
}

std::vector<std::uint64_t>
NvramDevice::tags() const
{
    std::vector<std::uint64_t> out;
    out.reserve(contents_.size());
    contents_.forEach(
        [&out](std::uint64_t tag, Bytes) { out.push_back(tag); });
    std::sort(out.begin(), out.end());
    return out;
}

Bytes
NvramDevice::erase(std::uint64_t tag)
{
    const Bytes *stored = contents_.find(tag);
    if (stored == nullptr)
        return 0;
    const Bytes bytes = *stored;
    used_ -= bytes;
    contents_.erase(tag);
    return bytes;
}

void
NvramDevice::clear()
{
    contents_.clear();
    used_ = 0;
}

void
NvramDevice::detach()
{
    attached_ = false;
    if (goodBatteries_ <= 0) {
        contents_.clear();
        used_ = 0;
        contentsValid_ = false;
    }
}

void
NvramDevice::attach()
{
    attached_ = true;
}

void
NvramDevice::failBattery()
{
    if (goodBatteries_ > 0)
        --goodBatteries_;
    if (goodBatteries_ <= 0 && !attached_) {
        contents_.clear();
        used_ = 0;
        contentsValid_ = false;
    }
}

} // namespace nvfs::nvram

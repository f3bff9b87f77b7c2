/**
 * @file
 * Fundamental identifiers, time and size types shared by every nvfs
 * library.
 *
 * The simulator measures time in microseconds (signed 64-bit) and data
 * in bytes (unsigned 64-bit).  File-system objects are identified by
 * small dense integer ids handed out by the workload generator.
 */

#pragma once

#include <cstdint>
#include <limits>

namespace nvfs {

/** Simulated time in microseconds since the start of a trace. */
using TimeUs = std::int64_t;

/** A number of bytes. */
using Bytes = std::uint64_t;

/** Identifies a file within a trace (dense, starting at 0). */
using FileId = std::uint32_t;

/** Identifies a client workstation within the cluster. */
using ClientId = std::uint16_t;

/** Identifies a process on a client. */
using ProcId = std::uint32_t;

/** Identifies one of the server's file systems (Section 3). */
using FsId = std::uint16_t;

/** Sentinel meaning "no time" / "not scheduled". */
inline constexpr TimeUs kNoTime = std::numeric_limits<TimeUs>::min();

/** Sentinel meaning "infinitely far in the future". */
inline constexpr TimeUs kTimeInfinity = std::numeric_limits<TimeUs>::max();

/** Sentinel file id meaning "no file". */
inline constexpr FileId kNoFile = std::numeric_limits<FileId>::max();

/** Cache block size used throughout the paper: four kilobytes. */
inline constexpr Bytes kBlockSize = 4096;

/** One kilobyte/megabyte in bytes. */
inline constexpr Bytes kKiB = 1024;
inline constexpr Bytes kMiB = 1024 * 1024;

/** One second/minute/hour in microseconds. */
inline constexpr TimeUs kUsPerSecond = 1'000'000;
inline constexpr TimeUs kUsPerMinute = 60 * kUsPerSecond;
inline constexpr TimeUs kUsPerHour = 60 * kUsPerMinute;

/**
 * Sprite's delayed write-back, on the clients and the server alike: a
 * block cleaner wakes every 5 seconds and writes back dirty data
 * older than 30 seconds.
 */
inline constexpr TimeUs kSweepInterval = 5 * kUsPerSecond;
inline constexpr TimeUs kWriteBackAge = 30 * kUsPerSecond;

/** Convert seconds (fractional allowed) to microseconds. */
constexpr TimeUs
secondsUs(double seconds)
{
    return static_cast<TimeUs>(seconds * static_cast<double>(kUsPerSecond));
}

/** Convert a byte count to (fractional) megabytes. */
constexpr double
toMiB(Bytes bytes)
{
    return static_cast<double>(bytes) / static_cast<double>(kMiB);
}

/** Number of whole blocks covering `bytes` (ceiling division). */
constexpr std::uint64_t
blocksCovering(Bytes bytes)
{
    return (bytes + kBlockSize - 1) / kBlockSize;
}

} // namespace nvfs

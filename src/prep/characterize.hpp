/**
 * @file
 * Workload characterization in the style of Baker et al.'s 1991
 * measurement study [1] (the paper this reproduction's Section 2
 * leans on): file-size and access-size distributions, run lengths,
 * sequentiality, open durations, and read/write balance.  Used to
 * sanity-check the synthetic generator against the published Sprite
 * behaviour and to profile user-supplied traces.
 */

#pragma once

#include <cstdint>
#include <string>

#include "prep/ops.hpp"
#include "util/stats.hpp"

namespace nvfs::prep {

/** Distribution summaries of one processed trace. */
struct WorkloadProfile
{
    // Access patterns.
    util::Accumulator readSize;   ///< bytes per read op
    util::Accumulator writeSize;  ///< bytes per write op
    util::Accumulator fileSize;   ///< max size of each file touched
    util::Accumulator openSeconds; ///< open -> close duration

    Bytes readBytes = 0;
    Bytes writeBytes = 0;
    std::uint64_t opens = 0;
    std::uint64_t deletes = 0;
    std::uint64_t fsyncs = 0;

    /** Fraction of sequential accesses (next op continues the last). */
    double sequentialReadFraction = 0.0;
    double sequentialWriteFraction = 0.0;

    /** Fraction of opened files that are read-only / write-only. */
    double readOnlyOpenFraction = 0.0;
    double writeOnlyOpenFraction = 0.0;

    /** read bytes : write bytes. */
    double
    readWriteRatio() const
    {
        return writeBytes > 0
                   ? static_cast<double>(readBytes) /
                         static_cast<double>(writeBytes)
                   : 0.0;
    }

    /** Multi-line human-readable rendering. */
    std::string render(const std::string &title) const;
};

/** Characterize a processed trace in one forward scan of its ops. */
WorkloadProfile characterize(const prep::OpStream &ops);

} // namespace nvfs::prep

/**
 * @file
 * The infinite-cache byte-lifetime analysis (pass 3 of the paper's
 * methodology).
 *
 * Simulates a non-volatile client cache of infinite size: dirty bytes
 * stay until they are overwritten, deleted, or truncated (they "die in
 * the NVRAM" and never reach the server), until the consistency
 * mechanism or a process migration recalls them (server traffic), or
 * until the trace ends (pessimistically counted as traffic).  The
 * resulting byte-run log drives Figure 2 (traffic versus write-back
 * delay), Table 2 (the fate of written bytes), and the omniscient
 * replacement policy's oracle.
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "prep/ops.hpp"
#include "util/types.hpp"

namespace nvfs::core {

/** What finally happened to a run of written bytes. */
enum class ByteFate : std::uint8_t {
    Overwritten, ///< killed in the cache by a later write
    Deleted,     ///< killed by delete/truncate
    CalledBack,  ///< recalled by consistency or migration
    Concurrent,  ///< written while caching was disabled
    Remaining,   ///< still in the cache at the end of the trace
    Count_,
};

/** Printable fate name. */
std::string byteFateName(ByteFate fate);

/** One run of bytes with a single birth time and fate. */
struct ByteRun
{
    FileId file = kNoFile;
    Bytes begin = 0;
    Bytes end = 0;
    TimeUs birth = 0;
    TimeUs death = kTimeInfinity; ///< kTimeInfinity for Remaining
    ByteFate fate = ByteFate::Remaining;

    Bytes length() const { return end - begin; }
};

/** Output of the lifetime pass. */
struct LifetimeResult
{
    /** Every run, in the order the pass ended them (analyzeLifetimes). */
    std::vector<ByteRun> runs;
    Bytes totalWritten = 0;
    std::array<Bytes, static_cast<std::size_t>(ByteFate::Count_)>
        byFate{};

    /** Bytes with a given fate. */
    Bytes
    fateBytes(ByteFate fate) const
    {
        return byFate[static_cast<std::size_t>(fate)];
    }

    /** Bytes absorbed by an infinite cache (overwritten + deleted). */
    Bytes
    absorbedBytes() const
    {
        return fateBytes(ByteFate::Overwritten) +
               fateBytes(ByteFate::Deleted);
    }

    /**
     * Figure 2: net write traffic (% of written bytes) when every
     * byte is flushed `delay` after it was written.  A byte escapes
     * the flush only by dying first; called-back, concurrent, and
     * remaining bytes always count as traffic.
     */
    double netWriteTrafficPct(TimeUs delay) const;
};

/**
 * Run the pass over a processed trace in one forward scan of its
 * ops.  Runs are logged in stream order of the op that ended them;
 * the files one migration flushes, and the Remaining runs at the end,
 * follow hash-map order.  Consumers aggregate the log, they don't
 * replay it.
 */
LifetimeResult analyzeLifetimes(const prep::OpStream &ops);

} // namespace nvfs::core

/**
 * @file
 * Per-file extent index over the block-cache arena: the one block ->
 * slot map of BlockCache and of the curve engine.
 *
 * For every file with resident blocks, keeps a sorted vector of
 * (block index, arena slot) pairs.  Because the simulator's traces are
 * dominated by sequential I/O, the common mutations are appends at the
 * tail (sequential fill) and removals at the head (LRU eviction of a
 * sequential stream); both are O(1) thanks to a gap kept at the front
 * of the vector.  Everything else is a binary search plus a shift
 * bounded by the file's resident-block count.
 *
 * The payoff is range resolution: a (file, first..last) span resolves
 * to runs of consecutive resident blocks with ONE probe into this
 * index (hash the file, binary-search the first block), instead of one
 * hash-map probe per 4 KB block.  The monotone quantity
 * `entry[j].block - j` makes finding the end of a consecutive run a
 * second binary search rather than a scan.  A single-block find() is
 * the same file probe plus a search that starts at the file's last
 * answer, so a sequential stream resolves each block in a comparison
 * or two.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "obs/obs.hpp"
#include "util/audit.hpp"
#include "util/flat_map.hpp"
#include "util/log.hpp"
#include "util/types.hpp"

namespace nvfs::cache {

/** Sorted per-file (block, arena slot) runs. */
class ExtentIndex
{
  public:
    ExtentIndex() = default;

    /**
     * Flush the locally-accumulated probe counters into the obs
     * registry.  Counting per probe would put an obs TLS access in
     * the replay inner loop; plain member increments here are free,
     * and every index is destroyed (sim teardown) before a snapshot
     * is read at a quiescent point, so the totals stay exact.
     */
    ~ExtentIndex()
    {
        if (hot_.probes == 0 && hot_.runInserts == 0)
            return;
        static const obs::Counter probes("cache.extent_probes");
        static const obs::Counter hintHits("cache.extent_hint_hits");
        static const obs::Counter runBlocks("cache.extent_run_blocks");
        static const obs::Counter runInserts("cache.range_inserts");
        if (hot_.probes != 0) {
            probes.add(hot_.probes);
            hintHits.add(hot_.hintHits);
            runBlocks.add(hot_.runBlocks);
        }
        if (hot_.runInserts != 0)
            runInserts.add(hot_.runInserts);
    }

    /** A copy holds the same blocks; its probe counters start at
     *  zero, so the two never flush the same probes. */
    ExtentIndex(const ExtentIndex &) = default;
    ExtentIndex(ExtentIndex &&) = default;
    ExtentIndex &operator=(ExtentIndex &&) = default;

    /** find()'s answer for a block that is not resident. */
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    /** One resident block of a file. */
    struct Entry
    {
        std::uint32_t block = 0;
        std::uint32_t slot = 0;
    };

    /** Residency probe result: the state of a block and how far the
     *  run of blocks in the same state extends (one past, clamped to
     *  last + 1). */
    struct Run
    {
        bool resident = false;
        std::uint32_t end = 0;
    };

    /** Record `block` of `file` living at arena `slot`. */
    void
    insert(FileId file, std::uint32_t block, std::uint32_t slot)
    {
        FileExtents &fx = files_[file];
        if (fx.v.size() == fx.begin || fx.v.back().block < block) {
            fx.v.push_back({block, slot});
            return;
        }
        if (block < fx.v[fx.begin].block) {
            if (fx.begin > 0) {
                fx.v[--fx.begin] = {block, slot};
                return;
            }
            fx.v.insert(fx.v.begin(), {block, slot});
            return;
        }
        const std::size_t pos = fx.lowerBound(block);
        NVFS_REQUIRE(pos == fx.v.size() || fx.v[pos].block != block,
                     "extent index: duplicate block");
        fx.v.insert(fx.v.begin() + static_cast<std::ptrdiff_t>(pos),
                    {block, slot});
    }

    /**
     * Record a contiguous run [first, first+count) living at
     * consecutive state `slots[0..count)`.  None may be present.
     */
    void
    insertRun(FileId file, std::uint32_t first,
              const std::uint32_t *slots, std::uint32_t count)
    {
        if (count == 0)
            return;
        ++hot_.runInserts;
        FileExtents &fx = files_[file];
        std::size_t pos = fx.lowerBound(first);
        NVFS_REQUIRE(pos == fx.v.size() ||
                         fx.v[pos].block >= first + count,
                     "extent index: run overlaps resident blocks");
        fx.v.insert(fx.v.begin() + static_cast<std::ptrdiff_t>(pos),
                    count, Entry{});
        for (std::uint32_t i = 0; i < count; ++i)
            fx.v[pos + i] = {first + i, slots[i]};
    }

    /** Forget `block` of `file`. */
    void
    remove(FileId file, std::uint32_t block)
    {
        FileExtents *fx = files_.find(file);
        NVFS_REQUIRE(fx != nullptr, "extent index: unknown file");
        const std::size_t pos = fx->lowerBound(block);
        NVFS_REQUIRE(pos < fx->v.size() && fx->v[pos].block == block,
                     "extent index: unknown block");
        if (pos == fx->begin) {
            ++fx->begin;
            // Reclaim the front gap once it dominates the vector, so
            // a long-running eviction stream cannot pin memory.
            if (fx->begin == fx->v.size()) {
                files_.erase(file);
            } else if (fx->begin >= 64 &&
                       fx->begin * 2 >= fx->v.size()) {
                fx->v.erase(fx->v.begin(),
                            fx->v.begin() +
                                static_cast<std::ptrdiff_t>(fx->begin));
                fx->begin = 0;
            }
            return;
        }
        if (pos + 1 == fx->v.size()) {
            fx->v.pop_back();
            return;
        }
        fx->v.erase(fx->v.begin() + static_cast<std::ptrdiff_t>(pos));
    }

    /** Forget every block of `file` at once. */
    void removeFile(FileId file) { files_.erase(file); }

    /** Arena slot of `block` of `file`; kNoSlot when not resident. */
    std::uint32_t
    find(FileId file, std::uint32_t block) const
    {
        const FileExtents *fx = files_.find(file);
        if (fx == nullptr)
            return kNoSlot;
        const std::size_t pos = fx->lowerBound(block);
        return pos < fx->v.size() && fx->v[pos].block == block
                   ? fx->v[pos].slot
                   : kNoSlot;
    }

    /**
     * Residency of `block` and the end of its same-state run within
     * [block, last].  One binary search for the position, one for the
     * run end.
     */
    Run
    probeRun(FileId file, std::uint32_t block, std::uint32_t last) const
    {
        ++hot_.probes;
        const FileExtents *fx = files_.find(file);
        if (fx == nullptr)
            return {false, last + 1};
        const std::size_t previous_hint = fx->hint;
        const std::size_t pos = fx->lowerBound(block);
        hot_.hintHits +=
            static_cast<std::uint64_t>(pos == previous_hint);
        if (pos == fx->v.size())
            return {false, last + 1};
        if (fx->v[pos].block != block) {
            return {false,
                    std::min<std::uint32_t>(fx->v[pos].block, last + 1)};
        }
        // entry[j].block - j is non-decreasing; the run of consecutive
        // blocks starting at pos is exactly the prefix where it stays
        // equal to entry[pos].block - pos.  Branchless search for the
        // last index of that prefix (same conditional-move shape as
        // lowerBound; `base` always satisfies the predicate).
        const std::uint64_t key =
            std::uint64_t{fx->v[pos].block} - pos;
        const Entry *data = fx->v.data();
        const Entry *base = data + pos;
        std::size_t n = fx->v.size() - pos;
        while (n > 1) {
            const std::size_t half = n / 2;
            const std::size_t j =
                static_cast<std::size_t>(base - data) + half;
            base += (std::uint64_t{data[j].block} - j == key) ? half
                                                              : 0;
            n -= half;
        }
        const std::uint32_t run_end = base->block + 1;
        const std::uint32_t end =
            std::min<std::uint32_t>(run_end, last + 1);
        hot_.runBlocks += end - block;
        return {true, end};
    }

    /** Visit (block, slot) of resident blocks in [first, last]. */
    template <typename Fn>
    void
    forEachInRange(FileId file, std::uint32_t first, std::uint32_t last,
                   Fn &&fn) const
    {
        const FileExtents *fx = files_.find(file);
        if (fx == nullptr)
            return;
        for (std::size_t pos = fx->lowerBound(first);
             pos < fx->v.size() && fx->v[pos].block <= last; ++pos) {
            fn(fx->v[pos].block, fx->v[pos].slot);
        }
    }

    /** Visit (block, slot) of every resident block, ascending. */
    template <typename Fn>
    void
    forEachOfFile(FileId file, Fn &&fn) const
    {
        const FileExtents *fx = files_.find(file);
        if (fx == nullptr)
            return;
        for (std::size_t pos = fx->begin; pos < fx->v.size(); ++pos)
            fn(fx->v[pos].block, fx->v[pos].slot);
    }

    /**
     * Visit (file, block, slot) of every resident block: files in
     * table order (arbitrary), each file's blocks ascending.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        files_.forEach([&](FileId file, const FileExtents &fx) {
            for (std::size_t pos = fx.begin; pos < fx.v.size(); ++pos)
                fn(file, fx.v[pos].block, fx.v[pos].slot);
        });
    }

    /**
     * Structural audit (nvfs::check): the underlying file map sound,
     * no file retained without live entries, every file's live region
     * sorted by strictly increasing block, and the front gap inside
     * the vector; then the map into the owner's arena of `arena_size`
     * slots: every entry names a slot inside it that no other entry
     * names and that holds the entry's block (`holds(slot, file,
     * block)`; those violations name `owner`).  Returns, per arena
     * slot, 1 when an entry names it, so the owner can check that its
     * lists and free list cover exactly the named and unnamed slots.
     * Throws AuditError on violation.
     */
    template <typename Holds>
    std::vector<char>
    auditInvariants(std::size_t arena_size, const char *owner,
                    Holds &&holds) const
    {
        files_.auditInvariants();
        std::vector<char> named(arena_size, 0);
        files_.forEach([&](FileId file, const FileExtents &fx) {
            NVFS_AUDIT_CHECK(fx.begin < fx.v.size(), "ExtentIndex",
                             "file retained with no live entries "
                             "(front gap swallowed the vector)");
            for (std::size_t pos = fx.begin; pos < fx.v.size(); ++pos) {
                const Entry &entry = fx.v[pos];
                NVFS_AUDIT_CHECK(
                    pos == fx.begin || fx.v[pos - 1].block < entry.block,
                    "ExtentIndex",
                    "live entries not strictly increasing by block");
                NVFS_AUDIT_CHECK(entry.slot < arena_size, owner,
                                 "extent entry names a slot outside the "
                                 "arena");
                NVFS_AUDIT_CHECK(named[entry.slot] == 0, owner,
                                 "two extent entries name one arena "
                                 "slot");
                named[entry.slot] = 1;
                NVFS_AUDIT_CHECK(holds(entry.slot, file, entry.block),
                                 owner,
                                 "arena slot holds another block than "
                                 "its extent entry names");
            }
        });
        return named;
    }

  private:
    struct FileExtents
    {
        /** Sorted by block; [begin, v.size()) are the live entries
         *  (the prefix is the front gap). */
        std::vector<Entry> v;
        std::size_t begin = 0;
        /** Last lowerBound() result.  Sequential streams probe the
         *  same neighbourhood over and over; one comparison against
         *  the hint halves the remaining range (or nails the answer)
         *  before the search starts.  Purely an accelerator: the hint
         *  is validated by that comparison, so a stale value can never
         *  change the result, only the split points. */
        mutable std::size_t hint = 0;

        /** Index of the first live entry with block >= `block`.
         *  Branchless: the search range is narrowed with conditional
         *  moves (no data-dependent branch for the predictor to miss
         *  on — block indices from a replay are effectively random
         *  probes into the extent vector). */
        std::size_t
        lowerBound(std::uint32_t block) const
        {
            std::size_t lo = begin;
            std::size_t hi = v.size();
            const std::size_t h = hint;
            if (h >= lo && h < hi) {
                // One probe at the previous answer: the result lies
                // entirely on one side of it.
                if (v[h].block < block)
                    lo = h + 1;
                else
                    hi = h + 1;
            }
            // Invariant: the answer is in [base, base + n].  Each step
            // keeps the invariant while halving n, with the direction
            // chosen by a flag-to-register move instead of a branch.
            const Entry *base = v.data() + lo;
            std::size_t n = hi - lo;
            while (n > 1) {
                const std::size_t half = n / 2;
                base += (base[half - 1].block < block) ? half : 0;
                n -= half;
            }
            std::size_t pos =
                static_cast<std::size_t>(base - v.data());
            pos += (n == 1 && base->block < block) ? 1 : 0;
            hint = pos;
            return pos;
        }
    };

    /**
     * Locally-accumulated hot-path counters, flushed to obs by the
     * destructor.  Moves zero the source and copies start at zero, so
     * no probe is flushed twice.
     */
    struct HotStats
    {
        std::uint64_t probes = 0;
        std::uint64_t hintHits = 0;
        std::uint64_t runBlocks = 0;
        std::uint64_t runInserts = 0;

        HotStats() = default;
        HotStats(const HotStats &) {}
        HotStats &operator=(const HotStats &) = delete;
        HotStats(HotStats &&other) noexcept
            : probes(other.probes), hintHits(other.hintHits),
              runBlocks(other.runBlocks), runInserts(other.runInserts)
        {
            other.probes = 0;
            other.hintHits = 0;
            other.runBlocks = 0;
            other.runInserts = 0;
        }
        HotStats &
        operator=(HotStats &&other) noexcept
        {
            probes = other.probes;
            hintHits = other.hintHits;
            runBlocks = other.runBlocks;
            runInserts = other.runInserts;
            other.probes = 0;
            other.hintHits = 0;
            other.runBlocks = 0;
            other.runInserts = 0;
            return *this;
        }
    };

    util::FlatMap<FileId, FileExtents, util::SplitMix64Hash> files_;
    mutable HotStats hot_;
};

} // namespace nvfs::cache

#include "core/sim/curve.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "cache/extent_index.hpp"
#include "core/client/replay.hpp"
#include "core/sim/experiments.hpp"
#include "obs/obs.hpp"
#include "util/audit.hpp"
#include "util/fenwick.hpp"
#include "util/interval_set.hpp"
#include "util/log.hpp"

namespace nvfs::core {

namespace {

constexpr std::uint32_t kNil = 0xffffffffu;

/** Per-(slot, size) intrusive list links. */
struct SizeLink
{
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
};

/**
 * Flat per-(slot, size) state: entry `slot * sizeCount + k`.  Both
 * engines key dirty intervals this way because dirty sets are *not*
 * nested across sizes (a large cache can flush a block on the 30 s
 * sweep while a small one evicted and re-dirtied it), so one shared
 * interval set cannot reproduce the per-size grid bit-for-bit.
 */
struct PerSizeState
{
    TimeUs dirtySince = kNoTime;
    SizeLink link; ///< dirty FIFO (volatile) / vol-or-nv LRU (unified)
    util::IntervalSet dirty;
};
static_assert(sizeof(PerSizeState) <= 40,
              "one (slot, size) entry: stamp, links, inline dirty run");

/** End-of-file clipping, shared with ClientModel::blockTransferBytes. */
Bytes
transferBytes(const cache::BlockId &id, const FileSizeMap &sizes)
{
    const Bytes *size = sizes.find(id.file);
    const Bytes start = Bytes{id.index} * kBlockSize;
    if (size == nullptr || *size <= start)
        return kBlockSize;
    return std::min<Bytes>(kBlockSize, *size - start);
}

/**
 * Protocol entry points replayOps requires but the curve engine never
 * receives: runCurveSim replays with no injected crashes and
 * whole-file callbacks only.
 */
struct CurveClientBase
{
    [[noreturn]] void
    crash(TimeUs)
    {
        util::panic("curve engine: client crashes are not modelled");
    }

    [[noreturn]] Bytes
    recallRange(FileId, Bytes, Bytes, WriteCause, TimeUs)
    {
        util::panic("curve engine: block-level callbacks are not "
                    "modelled");
    }
};

/**
 * Multi-size mirror of VolatileModel under pure LRU: one global
 * recency order (OrderStatIndex) serves every size.  The resident set
 * of size k is always the `occ[k]` most recently used blocks — LRU
 * caches of nested capacity keep nested contents (Mattson's inclusion
 * property) — so residency is one mask bit per slot and the eviction
 * victim of size k is selectFromMru(occ[k]).  Evictions happen
 * eagerly at touch time, exactly when the per-size model would evict,
 * so replacement write-backs see the same file sizes (and therefore
 * the same end-of-file clipping) as the per-size replay.
 */
class VolatileCurveClient : public CurveClientBase
{
  public:
    VolatileCurveClient(const ModelConfig &base,
                        const std::vector<Bytes> &sizes,
                        std::vector<Metrics> &metrics,
                        const FileSizeMap &file_sizes)
        : metrics_(metrics), fileSizes_(file_sizes),
          writeBackAge_(base.writeBackAge),
          sizeCount_(static_cast<std::uint32_t>(sizes.size()))
    {
        allMask_ = sizeCount_ >= 32
                       ? 0xffffffffu
                       : ((1u << sizeCount_) - 1u);
        per_.reserve(sizeCount_);
        for (const Bytes bytes : sizes) {
            SizeState s;
            s.capacity = bytes / kBlockSize;
            NVFS_REQUIRE(s.capacity > 0,
                         "volatile cache too small for one block");
            per_.push_back(s);
            slotBound_ = std::max(slotBound_, s.capacity);
        }
        // Mattson inclusion: a block is live iff it is resident at the
        // largest size, so that size's capacity bounds the live slots
        // (auditInvariants checks it) and the arena never regrows.
        arena_.reserve(slotBound_);
        perSize_.reserve(slotBound_ * sizeCount_);
    }

    void
    read(FileId file, Bytes offset, Bytes length, TimeUs now)
    {
        for (Metrics &m : metrics_)
            m.appReadBytes += length;
        if (length == 0)
            return;
        forEachBlock(file, offset, length,
                     [&](const cache::BlockId &id, Bytes, Bytes) {
                         readBlock(id, now);
                     });
    }

    void
    write(FileId file, Bytes offset, Bytes length, TimeUs now)
    {
        for (Metrics &m : metrics_)
            m.appWriteBytes += length;
        if (length == 0)
            return;
        forEachBlock(file, offset, length,
                     [&](const cache::BlockId &id, Bytes begin,
                         Bytes end) {
                         writeBlock(id, begin, end, now);
                     });
    }

    void
    fsync(FileId file, TimeUs now)
    {
        extents_.forEachOfFile(
            file, [&](std::uint32_t, std::uint32_t slot) {
                flushDirtySizes(slot, WriteCause::Fsync, now);
            });
    }

    void
    recall(FileId file, WriteCause cause, TimeUs now)
    {
        scratch_.clear();
        extents_.forEachOfFile(
            file, [&](std::uint32_t, std::uint32_t slot) {
                scratch_.push_back(slot);
            });
        for (const std::uint32_t slot : scratch_) {
            flushDirtySizes(slot, cause, now);
            dropResident(slot);
        }
        extents_.removeFile(file);
    }

    void
    removeFile(FileId file, TimeUs now)
    {
        (void)now;
        scratch_.clear();
        extents_.forEachOfFile(
            file, [&](std::uint32_t, std::uint32_t slot) {
                scratch_.push_back(slot);
            });
        for (const std::uint32_t slot : scratch_) {
            absorbDeletedSizes(slot);
            dropResident(slot);
        }
        extents_.removeFile(file);
    }

    void
    truncate(FileId file, Bytes new_size, TimeUs now)
    {
        (void)now;
        const auto first_dead =
            static_cast<std::uint32_t>(blocksCovering(new_size));
        scratch_.clear();
        scratchBlocks_.clear();
        extents_.forEachOfFile(
            file, [&](std::uint32_t block, std::uint32_t slot) {
                scratch_.push_back(slot);
                scratchBlocks_.push_back(block);
            });
        const Bytes cut = new_size % kBlockSize;
        for (std::size_t i = 0; i < scratch_.size(); ++i) {
            const std::uint32_t block = scratchBlocks_[i];
            const std::uint32_t slot = scratch_[i];
            if (block >= first_dead) {
                absorbDeletedSizes(slot);
                dropResident(slot);
                extents_.remove(file, block);
            } else if (block + 1 == first_dead && cut != 0) {
                // Boundary block: dirty bytes past the new end die.
                trimDirtySizes(slot, cut);
            }
        }
    }

    void
    tick(TimeUs now)
    {
        const TimeUs cutoff = now - writeBackAge_;
        for (std::uint32_t k = 0; k < sizeCount_; ++k) {
            // dirtySince ascends along the FIFO (set only on the
            // clean->dirty transition), same as BlockCache's list.
            while (per_[k].dirtyHead != kNil &&
                   state(per_[k].dirtyHead, k).dirtySince <= cutoff) {
                flushAt(per_[k].dirtyHead, k,
                        WriteCause::DelayedWriteBack);
            }
        }
    }

    void
    finish(TimeUs now)
    {
        (void)now;
        for (std::uint32_t k = 0; k < sizeCount_; ++k) {
            while (per_[k].dirtyHead != kNil)
                flushAt(per_[k].dirtyHead, k, WriteCause::EndOfTrace);
        }
    }

    /** nvfs::check: the threshold invariant and structure soundness. */
    void
    auditInvariants() const
    {
        recency_.auditInvariants();
        NVFS_AUDIT_CHECK(index_.size() == recency_.size(), "CurveSim",
                         "block index and recency order diverged");
        std::vector<std::uint64_t> occ(sizeCount_, 0);
        std::vector<std::uint64_t> dirty(sizeCount_, 0);
        index_.forEach([&](const cache::BlockId &id,
                           const std::uint32_t &slot) {
            NVFS_AUDIT_CHECK(slot < arena_.size() &&
                                 arena_[slot].id == id,
                             "CurveSim", "index entry points astray");
            const Slot &s = arena_[slot];
            NVFS_AUDIT_CHECK(s.residentMask != 0, "CurveSim",
                             "indexed block resident nowhere");
            NVFS_AUDIT_CHECK((s.dirtyMask & ~s.residentMask) == 0,
                             "CurveSim",
                             "dirty at a size it is not resident at");
            const std::uint32_t rank = recency_.rankFromMru(slot);
            for (std::uint32_t k = 0; k < sizeCount_; ++k) {
                const bool resident = (s.residentMask >> k & 1) != 0;
                // The inclusion property, as maintained: resident at
                // size k iff among the occ[k] most recent blocks.
                NVFS_AUDIT_CHECK(
                    resident == (rank <= per_[k].occupancy),
                    "CurveSim",
                    "resident mask violates the recency threshold");
                occ[k] += resident ? 1 : 0;
                if ((s.dirtyMask >> k & 1) != 0) {
                    ++dirty[k];
                    NVFS_AUDIT_CHECK(
                        !state(slot, k).dirty.empty() &&
                            state(slot, k).dirtySince != kNoTime,
                        "CurveSim", "dirty bit without dirty bytes");
                } else {
                    NVFS_AUDIT_CHECK(
                        state(slot, k).dirty.empty() &&
                            state(slot, k).dirtySince == kNoTime,
                        "CurveSim", "dirty bytes without dirty bit");
                }
            }
        });
        // The arena grows only when every slot in it is live, so its
        // size is the most slots ever live at once.
        NVFS_AUDIT_CHECK(arena_.size() <= slotBound_, "CurveSim",
                         "more live slots than the largest size holds");
        for (std::uint32_t k = 0; k < sizeCount_; ++k) {
            NVFS_AUDIT_CHECK(occ[k] == per_[k].occupancy, "CurveSim",
                             "occupancy counter diverged");
            NVFS_AUDIT_CHECK(per_[k].occupancy <= per_[k].capacity,
                             "CurveSim", "cache over capacity");
            // Walk the dirty FIFO: live links, ascending dirtySince.
            std::uint64_t steps = 0;
            TimeUs last_since = std::numeric_limits<TimeUs>::min();
            std::uint32_t prev = kNil;
            for (std::uint32_t slot = per_[k].dirtyHead; slot != kNil;
                 slot = state(slot, k).link.next) {
                NVFS_AUDIT_CHECK(
                    (arena_[slot].dirtyMask >> k & 1) != 0, "CurveSim",
                    "dirty FIFO visits a clean slot");
                NVFS_AUDIT_CHECK(state(slot, k).link.prev == prev,
                                 "CurveSim",
                                 "dirty FIFO back-link broken");
                NVFS_AUDIT_CHECK(state(slot, k).dirtySince >=
                                     last_since,
                                 "CurveSim",
                                 "dirty FIFO not time-ordered");
                last_since = state(slot, k).dirtySince;
                prev = slot;
                NVFS_AUDIT_CHECK(++steps <= arena_.size(), "CurveSim",
                                 "dirty FIFO has a cycle");
            }
            NVFS_AUDIT_CHECK(per_[k].dirtyTail == prev, "CurveSim",
                             "dirty FIFO tail stale");
            NVFS_AUDIT_CHECK(steps == dirty[k], "CurveSim",
                             "dirty FIFO misses dirty slots");
        }
        extents_.auditInvariants();
    }

  private:
    struct Slot
    {
        cache::BlockId id{};
        std::uint32_t residentMask = 0;
        std::uint32_t dirtyMask = 0;
        std::uint32_t nextFree = kNil;
    };

    struct SizeState
    {
        std::uint64_t capacity = 0;
        std::uint64_t occupancy = 0;
        std::uint32_t dirtyHead = kNil;
        std::uint32_t dirtyTail = kNil;
    };

    PerSizeState &
    state(std::uint32_t slot, std::uint32_t k)
    {
        return perSize_[std::size_t{slot} * sizeCount_ + k];
    }

    const PerSizeState &
    state(std::uint32_t slot, std::uint32_t k) const
    {
        return perSize_[std::size_t{slot} * sizeCount_ + k];
    }

    void
    readBlock(const cache::BlockId &id, TimeUs now)
    {
        const std::uint32_t *found = index_.find(id);
        const std::uint32_t slot = found ? *found : kNil;
        const std::uint32_t miss =
            allMask_ &
            ~(slot == kNil ? 0u : arena_[slot].residentMask);
        if (miss != 0) {
            const Bytes fetched = transferBytes(id, fileSizes_);
            for (std::uint32_t m = miss; m != 0; m &= m - 1) {
                Metrics &out =
                    metrics_[static_cast<std::uint32_t>(
                        std::countr_zero(m))];
                out.serverReadBytes += fetched;
                out.busBytes += fetched;
            }
        }
        touchResident(id, slot, miss, now);
    }

    void
    writeBlock(const cache::BlockId &id, Bytes begin, Bytes end,
               TimeUs now)
    {
        const std::uint32_t *found = index_.find(id);
        std::uint32_t slot = found ? *found : kNil;
        const std::uint32_t miss =
            allMask_ &
            ~(slot == kNil ? 0u : arena_[slot].residentMask);
        slot = touchResident(id, slot, miss, now);
        Slot &s = arena_[slot];
        for (std::uint32_t k = 0; k < sizeCount_; ++k) {
            PerSizeState &d = state(slot, k);
            Bytes absorbed;
            if (begin == 0 && end == kBlockSize) {
                // Whole-block write: everything previously dirty is
                // absorbed (BlockCache's O(1) fast path).
                absorbed = d.dirty.totalBytes();
                d.dirty.clear();
                d.dirty.insert(0, kBlockSize);
            } else {
                absorbed = d.dirty.overlapBytes(begin, end);
                d.dirty.insert(begin, end);
            }
            metrics_[k].absorbedOverwrittenBytes += absorbed;
            metrics_[k].busBytes += end - begin;
            if ((s.dirtyMask >> k & 1) == 0) {
                s.dirtyMask |= 1u << k;
                d.dirtySince = now;
                dirtyPush(slot, k);
            }
        }
    }

    /**
     * Make `id` resident and most-recent at every size: evict each
     * missing size's LRU block first (exactly the per-size model's
     * ensureSpace-then-insert schedule), then move `id` to the top of
     * the shared recency order.
     */
    std::uint32_t
    touchResident(const cache::BlockId &id, std::uint32_t slot,
                  std::uint32_t miss, TimeUs now)
    {
        (void)now;
        for (std::uint32_t m = miss; m != 0; m &= m - 1) {
            const auto k = static_cast<std::uint32_t>(
                std::countr_zero(m));
            SizeState &s = per_[k];
            if (s.occupancy == s.capacity) {
                // The LRU block of size k is the occupancy-th most
                // recent overall (threshold invariant).
                const std::uint32_t victim = recency_.selectFromMru(
                    static_cast<std::uint32_t>(s.occupancy));
                if ((arena_[victim].dirtyMask >> k & 1) != 0)
                    flushAt(victim, k, WriteCause::Replacement);
                arena_[victim].residentMask &= ~(1u << k);
                --s.occupancy;
                if (arena_[victim].residentMask == 0)
                    dropSlot(victim);
            }
            ++s.occupancy;
        }
        if (slot == kNil) {
            slot = allocSlot(id);
            arena_[slot].residentMask = allMask_;
            index_[id] = slot;
            extents_.insert(id.file, id.index, slot);
            recency_.push(slot);
        } else {
            arena_[slot].residentMask = allMask_;
            recency_.touch(slot);
        }
        return slot;
    }

    /** Replacement/recall/sweep write-back of size k's copy. */
    void
    flushAt(std::uint32_t slot, std::uint32_t k, WriteCause cause)
    {
        metrics_[k].addServerWrite(
            cause, transferBytes(arena_[slot].id, fileSizes_));
        clearDirtyAt(slot, k);
    }

    void
    flushDirtySizes(std::uint32_t slot, WriteCause cause, TimeUs now)
    {
        (void)now;
        for (std::uint32_t m = arena_[slot].dirtyMask; m != 0;
             m &= m - 1) {
            flushAt(slot,
                    static_cast<std::uint32_t>(std::countr_zero(m)),
                    cause);
        }
    }

    /** Deleted-file absorption: dirty bytes die without a transfer. */
    void
    absorbDeletedSizes(std::uint32_t slot)
    {
        for (std::uint32_t m = arena_[slot].dirtyMask; m != 0;
             m &= m - 1) {
            const auto k = static_cast<std::uint32_t>(
                std::countr_zero(m));
            metrics_[k].absorbedDeletedBytes +=
                state(slot, k).dirty.totalBytes();
            clearDirtyAt(slot, k);
        }
    }

    void
    trimDirtySizes(std::uint32_t slot, Bytes cut)
    {
        for (std::uint32_t m = arena_[slot].dirtyMask; m != 0;
             m &= m - 1) {
            const auto k = static_cast<std::uint32_t>(
                std::countr_zero(m));
            PerSizeState &d = state(slot, k);
            const Bytes before = d.dirty.totalBytes();
            d.dirty.erase(cut, kBlockSize);
            metrics_[k].absorbedDeletedBytes +=
                before - d.dirty.totalBytes();
            if (d.dirty.empty())
                clearDirtyAt(slot, k);
        }
    }

    void
    clearDirtyAt(std::uint32_t slot, std::uint32_t k)
    {
        PerSizeState &d = state(slot, k);
        d.dirty.clear();
        d.dirtySince = kNoTime;
        dirtyRemove(slot, k);
        arena_[slot].dirtyMask &= ~(1u << k);
    }

    /** Remove a block from every size's resident set (recall/delete).
     *  The caller has already flushed or absorbed its dirty bytes and
     *  handles the extent index. */
    void
    dropResident(std::uint32_t slot)
    {
        NVFS_REQUIRE(arena_[slot].dirtyMask == 0,
                     "dropping a still-dirty curve slot");
        for (std::uint32_t m = arena_[slot].residentMask; m != 0;
             m &= m - 1) {
            --per_[static_cast<std::uint32_t>(std::countr_zero(m))]
                  .occupancy;
        }
        arena_[slot].residentMask = 0;
        recency_.erase(slot);
        index_.erase(arena_[slot].id);
        freeSlot(slot);
    }

    /** Fully-evicted slot (resident nowhere): unindex and free. */
    void
    dropSlot(std::uint32_t slot)
    {
        NVFS_REQUIRE(arena_[slot].dirtyMask == 0,
                     "dropping a still-dirty curve slot");
        recency_.erase(slot);
        index_.erase(arena_[slot].id);
        extents_.remove(arena_[slot].id.file, arena_[slot].id.index);
        freeSlot(slot);
    }

    void
    dirtyPush(std::uint32_t slot, std::uint32_t k)
    {
        SizeState &s = per_[k];
        SizeLink &link = state(slot, k).link;
        link.prev = s.dirtyTail;
        link.next = kNil;
        if (s.dirtyTail != kNil)
            state(s.dirtyTail, k).link.next = slot;
        else
            s.dirtyHead = slot;
        s.dirtyTail = slot;
    }

    void
    dirtyRemove(std::uint32_t slot, std::uint32_t k)
    {
        SizeState &s = per_[k];
        SizeLink &link = state(slot, k).link;
        if (link.prev != kNil)
            state(link.prev, k).link.next = link.next;
        else
            s.dirtyHead = link.next;
        if (link.next != kNil)
            state(link.next, k).link.prev = link.prev;
        else
            s.dirtyTail = link.prev;
        link = SizeLink{};
    }

    std::uint32_t
    allocSlot(const cache::BlockId &id)
    {
        std::uint32_t slot;
        if (freeHead_ != kNil) {
            slot = freeHead_;
            freeHead_ = arena_[slot].nextFree;
            arena_[slot] = Slot{};
        } else {
            slot = static_cast<std::uint32_t>(arena_.size());
            arena_.emplace_back();
            perSize_.resize(std::size_t{slot + 1} * sizeCount_);
        }
        arena_[slot].id = id;
        return slot;
    }

    void
    freeSlot(std::uint32_t slot)
    {
        arena_[slot] = Slot{};
        arena_[slot].nextFree = freeHead_;
        freeHead_ = slot;
    }

    std::vector<Metrics> &metrics_;
    const FileSizeMap &fileSizes_;
    const TimeUs writeBackAge_;
    const std::uint32_t sizeCount_;
    std::uint32_t allMask_ = 0;
    std::vector<SizeState> per_;
    std::uint64_t slotBound_ = 0; ///< the largest size's capacity
    std::vector<Slot> arena_;
    std::vector<PerSizeState> perSize_;
    std::uint32_t freeHead_ = kNil;
    util::FlatMap<cache::BlockId, std::uint32_t, cache::BlockIdHash>
        index_;
    cache::ExtentIndex extents_;
    util::OrderStatIndex recency_;
    std::vector<std::uint32_t> scratch_;
    std::vector<std::uint32_t> scratchBlocks_;
};

/**
 * Multi-size mirror of UnifiedModel (LRU NVRAM policy): one arena and
 * block index shared by every size, per-size volatile/NVRAM LRU lists
 * over it.  A block's lastAccess is size-independent — every
 * operation touching it stamps the same time at every size — so it is
 * stored once per slot; the per-size lists replicate each size's
 * placement/demotion decisions (which *do* diverge) exactly.
 */
class UnifiedCurveClient : public CurveClientBase
{
  public:
    UnifiedCurveClient(const ModelConfig &base,
                       const std::vector<Bytes> &sizes,
                       std::vector<Metrics> &metrics,
                       const FileSizeMap &file_sizes)
        : metrics_(metrics), fileSizes_(file_sizes),
          volCapacity_(base.volatileBytes / kBlockSize),
          sizeCount_(static_cast<std::uint32_t>(sizes.size()))
    {
        NVFS_REQUIRE(volCapacity_ > 0, "volatile cache too small");
        std::uint64_t nv_most = 0;
        per_.reserve(sizeCount_);
        for (const Bytes bytes : sizes) {
            SizeState s;
            s.nvCapacity = bytes / kBlockSize;
            NVFS_REQUIRE(s.nvCapacity > 0, "NVRAM too small");
            per_.push_back(s);
            nv_most = std::max(nv_most, s.nvCapacity);
        }
        // The most slots live at once, as measured: the volatile
        // capacity plus the largest NVRAM, plus one because allocSlot
        // runs before the eviction that makes room.  Volatile contents
        // differ across sizes, so this is not proven; past it the
        // vectors just grow.
        const std::uint64_t slots = volCapacity_ + nv_most + 1;
        arena_.reserve(slots);
        perSize_.reserve(slots * sizeCount_);
    }

    void
    read(FileId file, Bytes offset, Bytes length, TimeUs now)
    {
        for (Metrics &m : metrics_)
            m.appReadBytes += length;
        if (length == 0)
            return;
        forEachBlock(file, offset, length,
                     [&](const cache::BlockId &id, Bytes, Bytes) {
                         readBlock(id, now);
                     });
    }

    void
    write(FileId file, Bytes offset, Bytes length, TimeUs now)
    {
        for (Metrics &m : metrics_)
            m.appWriteBytes += length;
        if (length == 0)
            return;
        forEachBlock(file, offset, length,
                     [&](const cache::BlockId &id, Bytes begin,
                         Bytes end) {
                         writeBlock(id, begin, end, now);
                     });
    }

    void
    fsync(FileId, TimeUs)
    {
        // Absorbed: dirty data is already permanent in the NVRAM.
    }

    void
    recall(FileId file, WriteCause cause, TimeUs now)
    {
        (void)now;
        scratch_.clear();
        extents_.forEachOfFile(
            file, [&](std::uint32_t, std::uint32_t slot) {
                scratch_.push_back(slot);
            });
        for (const std::uint32_t slot : scratch_) {
            for (std::uint32_t m = arena_[slot].dirtyMask; m != 0;
                 m &= m - 1) {
                const auto k = static_cast<std::uint32_t>(
                    std::countr_zero(m));
                metrics_[k].addServerWrite(
                    cause, transferBytes(arena_[slot].id, fileSizes_));
                ++metrics_[k].nvramReadAccesses;
                clearDirtyAt(slot, k);
            }
            dropEverywhere(slot);
        }
        extents_.removeFile(file);
    }

    void
    removeFile(FileId file, TimeUs now)
    {
        (void)now;
        scratch_.clear();
        extents_.forEachOfFile(
            file, [&](std::uint32_t, std::uint32_t slot) {
                scratch_.push_back(slot);
            });
        for (const std::uint32_t slot : scratch_) {
            for (std::uint32_t m = arena_[slot].dirtyMask; m != 0;
                 m &= m - 1) {
                const auto k = static_cast<std::uint32_t>(
                    std::countr_zero(m));
                metrics_[k].absorbedDeletedBytes +=
                    state(slot, k).dirty.totalBytes();
                clearDirtyAt(slot, k);
            }
            dropEverywhere(slot);
        }
        extents_.removeFile(file);
    }

    void
    truncate(FileId file, Bytes new_size, TimeUs now)
    {
        (void)now;
        const auto first_dead =
            static_cast<std::uint32_t>(blocksCovering(new_size));
        scratch_.clear();
        scratchBlocks_.clear();
        extents_.forEachOfFile(
            file, [&](std::uint32_t block, std::uint32_t slot) {
                scratch_.push_back(slot);
                scratchBlocks_.push_back(block);
            });
        const Bytes cut = new_size % kBlockSize;
        for (std::size_t i = 0; i < scratch_.size(); ++i) {
            const std::uint32_t block = scratchBlocks_[i];
            const std::uint32_t slot = scratch_[i];
            if (block >= first_dead) {
                for (std::uint32_t m = arena_[slot].dirtyMask; m != 0;
                     m &= m - 1) {
                    const auto k = static_cast<std::uint32_t>(
                        std::countr_zero(m));
                    metrics_[k].absorbedDeletedBytes +=
                        state(slot, k).dirty.totalBytes();
                    clearDirtyAt(slot, k);
                }
                dropEverywhere(slot);
                extents_.remove(file, block);
            } else if (block + 1 == first_dead && cut != 0) {
                for (std::uint32_t m = arena_[slot].dirtyMask; m != 0;
                     m &= m - 1) {
                    const auto k = static_cast<std::uint32_t>(
                        std::countr_zero(m));
                    PerSizeState &d = state(slot, k);
                    const Bytes before = d.dirty.totalBytes();
                    d.dirty.erase(cut, kBlockSize);
                    metrics_[k].absorbedDeletedBytes +=
                        before - d.dirty.totalBytes();
                    if (d.dirty.empty())
                        clearDirtyAt(slot, k);
                }
            }
        }
    }

    void
    tick(TimeUs)
    {
        // NVRAM contents are permanent; no delayed write-back sweep.
    }

    void
    finish(TimeUs now)
    {
        (void)now;
        for (std::uint32_t slot = 0; slot < arena_.size(); ++slot) {
            for (std::uint32_t m = arena_[slot].dirtyMask; m != 0;
                 m &= m - 1) {
                const auto k = static_cast<std::uint32_t>(
                    std::countr_zero(m));
                metrics_[k].addServerWrite(
                    WriteCause::EndOfTrace,
                    transferBytes(arena_[slot].id, fileSizes_));
                clearDirtyAt(slot, k);
            }
        }
    }

    void
    auditInvariants() const
    {
        std::uint64_t live = 0;
        index_.forEach([&](const cache::BlockId &id,
                           const std::uint32_t &slot) {
            ++live;
            const Slot &s = arena_[slot];
            NVFS_AUDIT_CHECK(slot < arena_.size() && s.id == id,
                             "CurveSim", "index entry points astray");
            NVFS_AUDIT_CHECK(s.presentMask != 0, "CurveSim",
                             "indexed block resident nowhere");
            NVFS_AUDIT_CHECK((s.nvramMask & ~s.presentMask) == 0,
                             "CurveSim", "NVRAM bit without presence");
            NVFS_AUDIT_CHECK((s.dirtyMask & ~s.nvramMask) == 0,
                             "CurveSim",
                             "dirty block outside the NVRAM");
        });
        for (std::uint32_t k = 0; k < sizeCount_; ++k) {
            const SizeState &st = per_[k];
            const auto walk = [&](std::uint32_t head,
                                  std::uint32_t tail, bool in_nvram,
                                  std::uint64_t expected) {
                std::uint64_t steps = 0;
                TimeUs last_access =
                    std::numeric_limits<TimeUs>::min();
                std::uint32_t prev = kNil;
                for (std::uint32_t slot = head; slot != kNil;
                     slot = state(slot, k).link.next) {
                    const Slot &s = arena_[slot];
                    NVFS_AUDIT_CHECK((s.presentMask >> k & 1) != 0,
                                     "CurveSim",
                                     "LRU list visits absent block");
                    NVFS_AUDIT_CHECK(((s.nvramMask >> k & 1) != 0) ==
                                         in_nvram,
                                     "CurveSim",
                                     "block on the wrong memory list");
                    NVFS_AUDIT_CHECK(state(slot, k).link.prev == prev,
                                     "CurveSim",
                                     "LRU back-link broken");
                    NVFS_AUDIT_CHECK(s.lastAccess >= last_access,
                                     "CurveSim",
                                     "LRU list not time-ordered");
                    last_access = s.lastAccess;
                    prev = slot;
                    NVFS_AUDIT_CHECK(++steps <= arena_.size(),
                                     "CurveSim", "LRU list cycle");
                }
                NVFS_AUDIT_CHECK(tail == prev, "CurveSim",
                                 "LRU tail pointer stale");
                NVFS_AUDIT_CHECK(steps == expected, "CurveSim",
                                 "occupancy counter diverged");
            };
            walk(st.volHead, st.volTail, false, st.volOccupancy);
            walk(st.nvHead, st.nvTail, true, st.nvOccupancy);
            NVFS_AUDIT_CHECK(st.volOccupancy <= volCapacity_,
                             "CurveSim", "volatile over capacity");
            NVFS_AUDIT_CHECK(st.nvOccupancy <= st.nvCapacity,
                             "CurveSim", "NVRAM over capacity");
        }
        (void)live;
        extents_.auditInvariants();
    }

  private:
    struct Slot
    {
        cache::BlockId id{};
        TimeUs lastAccess = 0;
        std::uint32_t presentMask = 0;
        std::uint32_t nvramMask = 0;
        std::uint32_t dirtyMask = 0;
        std::uint32_t nextFree = kNil;
    };

    struct SizeState
    {
        std::uint64_t nvCapacity = 0;
        std::uint64_t nvOccupancy = 0;
        std::uint64_t volOccupancy = 0;
        std::uint32_t volHead = kNil;
        std::uint32_t volTail = kNil;
        std::uint32_t nvHead = kNil;
        std::uint32_t nvTail = kNil;
        /** Last ordered-insert position (BlockCache::orderedHint_):
         *  demotions arrive in ascending age, so each boundary sits at
         *  or just past the previous one.  Any slot still on the
         *  volatile list is a correct starting point; cleared when its
         *  slot leaves the list.  Purely a walk shortcut — the insert
         *  position is the unique ascending-order boundary either
         *  way. */
        std::uint32_t volHint = kNil;
    };

    PerSizeState &
    state(std::uint32_t slot, std::uint32_t k)
    {
        return perSize_[std::size_t{slot} * sizeCount_ + k];
    }

    const PerSizeState &
    state(std::uint32_t slot, std::uint32_t k) const
    {
        return perSize_[std::size_t{slot} * sizeCount_ + k];
    }

    void
    readBlock(const cache::BlockId &id, TimeUs now)
    {
        const std::uint32_t *found = index_.find(id);
        std::uint32_t slot = found ? *found : kNil;
        const std::uint32_t present =
            slot == kNil ? 0u : arena_[slot].presentMask;
        const std::uint32_t miss = allMask() & ~present;
        // Hits: refresh each size's LRU position.
        for (std::uint32_t m = present; m != 0; m &= m - 1) {
            const auto k = static_cast<std::uint32_t>(
                std::countr_zero(m));
            if ((arena_[slot].nvramMask >> k & 1) != 0) {
                moveToBack(per_[k].nvHead, per_[k].nvTail, k, slot);
                ++metrics_[k].nvramReadAccesses;
            } else {
                moveToBack(per_[k].volHead, per_[k].volTail, k, slot);
            }
        }
        if (miss != 0) {
            const Bytes fetched = transferBytes(id, fileSizes_);
            if (slot == kNil)
                slot = allocSlot(id);
            for (std::uint32_t m = miss; m != 0; m &= m - 1) {
                const auto k = static_cast<std::uint32_t>(
                    std::countr_zero(m));
                metrics_[k].serverReadBytes += fetched;
                metrics_[k].busBytes += fetched;
                placeCleanBlock(slot, k, now);
            }
        }
        arena_[slot].lastAccess = now;
    }

    void
    writeBlock(const cache::BlockId &id, Bytes begin, Bytes end,
               TimeUs now)
    {
        const Bytes n = end - begin;
        const std::uint32_t *found = index_.find(id);
        std::uint32_t slot = found ? *found : kNil;
        if (slot == kNil)
            slot = allocSlot(id);
        for (std::uint32_t k = 0; k < sizeCount_; ++k) {
            Slot &s = arena_[slot];
            if ((s.nvramMask >> k & 1) != 0) {
                metrics_[k].absorbedOverwrittenBytes +=
                    state(slot, k).dirty.overlapBytes(begin, end);
                markDirtyAt(slot, k, begin, end, now);
                ++metrics_[k].nvramWriteAccesses;
                metrics_[k].busBytes += n;
            } else if ((s.presentMask >> k & 1) != 0) {
                // Clean in the volatile cache: transfer to the NVRAM
                // and update it there (Section 2.6).
                const Bytes transfer = transferBytes(id, fileSizes_);
                removeLink(per_[k].volHead, per_[k].volTail, k, slot);
                clearVolHint(k, slot);
                --per_[k].volOccupancy;
                s.presentMask &= ~(1u << k);
                ensureNvramSpace(k, now);
                insertNvram(slot, k);
                markDirtyAt(slot, k, begin, end, now);
                metrics_[k].cacheToNvramBytes += transfer;
                metrics_[k].busBytes += transfer + n;
                metrics_[k].nvramWriteAccesses += 2;
            } else {
                ensureNvramSpace(k, now);
                insertNvram(slot, k);
                markDirtyAt(slot, k, begin, end, now);
                ++metrics_[k].nvramWriteAccesses;
                metrics_[k].busBytes += n;
            }
        }
        arena_[slot].lastAccess = now;
    }

    /**
     * UnifiedModel::placeCleanBlock at size k: volatile space first,
     * NVRAM free block second, else replace the globally
     * least-recently-used of the two memories' LRU heads.
     */
    void
    placeCleanBlock(std::uint32_t slot, std::uint32_t k, TimeUs now)
    {
        (void)now;
        SizeState &st = per_[k];
        if (st.volOccupancy < volCapacity_) {
            insertVolatileMru(slot, k);
            return;
        }
        if (st.nvOccupancy < st.nvCapacity) {
            insertNvram(slot, k);
            ++metrics_[k].nvramWriteAccesses;
            return;
        }
        const TimeUs nvram_lru = arena_[st.nvHead].lastAccess;
        const TimeUs volatile_lru = arena_[st.volHead].lastAccess;
        if (nvram_lru < volatile_lru) {
            // The globally least-recent block sits in NVRAM.
            const std::uint32_t victim = st.nvHead;
            removeLink(st.nvHead, st.nvTail, k, victim);
            --st.nvOccupancy;
            arena_[victim].nvramMask &= ~(1u << k);
            if ((arena_[victim].dirtyMask >> k & 1) != 0) {
                metrics_[k].addServerWrite(
                    WriteCause::Replacement,
                    transferBytes(arena_[victim].id, fileSizes_));
                clearDirtyAt(victim, k);
            }
            evictFromSize(victim, k);
            insertNvram(slot, k);
            ++metrics_[k].nvramWriteAccesses;
        } else {
            const std::uint32_t victim = st.volHead;
            removeLink(st.volHead, st.volTail, k, victim);
            clearVolHint(k, victim);
            --st.volOccupancy;
            evictFromSize(victim, k);
            insertVolatileMru(slot, k);
        }
    }

    /**
     * UnifiedModel::evictNvramVictim at size k: write back if dirty,
     * then demote to the volatile cache when it is younger than the
     * volatile LRU block (evicting that block), else discard.
     */
    void
    evictNvramVictim(std::uint32_t k, TimeUs now)
    {
        (void)now;
        SizeState &st = per_[k];
        const std::uint32_t victim = st.nvHead;
        NVFS_REQUIRE(victim != kNil, "full NVRAM without victim");
        const Bytes transfer =
            transferBytes(arena_[victim].id, fileSizes_);
        removeLink(st.nvHead, st.nvTail, k, victim);
        --st.nvOccupancy;
        arena_[victim].nvramMask &= ~(1u << k);
        if ((arena_[victim].dirtyMask >> k & 1) != 0) {
            metrics_[k].addServerWrite(WriteCause::Replacement,
                                       transfer);
            clearDirtyAt(victim, k);
        }
        bool demote;
        if (st.volOccupancy < volCapacity_) {
            demote = true;
        } else {
            demote = arena_[st.volHead].lastAccess <
                     arena_[victim].lastAccess;
            if (demote) {
                const std::uint32_t out = st.volHead;
                removeLink(st.volHead, st.volTail, k, out);
                clearVolHint(k, out);
                --st.volOccupancy;
                evictFromSize(out, k);
            }
        }
        if (demote) {
            insertVolatileOrdered(victim, k);
            metrics_[k].nvramToCacheBytes += transfer;
            metrics_[k].busBytes += transfer;
            ++metrics_[k].nvramReadAccesses; // reading it out of NVRAM
        } else {
            evictFromSize(victim, k);
        }
    }

    void
    ensureNvramSpace(std::uint32_t k, TimeUs now)
    {
        while (per_[k].nvOccupancy >= per_[k].nvCapacity)
            evictNvramVictim(k, now);
    }

    /** Clear presence at size k; free the slot once absent at all. */
    void
    evictFromSize(std::uint32_t slot, std::uint32_t k)
    {
        arena_[slot].presentMask &= ~(1u << k);
        if (arena_[slot].presentMask == 0)
            dropSlot(slot);
    }

    void
    insertVolatileMru(std::uint32_t slot, std::uint32_t k)
    {
        pushBack(per_[k].volHead, per_[k].volTail, k, slot);
        ++per_[k].volOccupancy;
        arena_[slot].presentMask |= 1u << k;
    }

    /** The hint must stay on size k's volatile list: drop it when its
     *  slot leaves (a repositioning moveToBack keeps it valid). */
    void
    clearVolHint(std::uint32_t k, std::uint32_t slot)
    {
        if (per_[k].volHint == slot)
            per_[k].volHint = kNil;
    }

    /**
     * Demotion insert: keep the volatile list ascending in
     * lastAccess — after every entry with lastAccess <= the demoted
     * block's (BlockCache::insertOrdered's boundary).
     */
    void
    insertVolatileOrdered(std::uint32_t slot, std::uint32_t k)
    {
        SizeState &st = per_[k];
        const TimeUs access = arena_[slot].lastAccess;
        std::uint32_t before = kNil; // kNil = MRU end
        if (st.volTail == kNil ||
            arena_[st.volTail].lastAccess <= access) {
            // Younger than everything: plain MRU insert.
        } else if (access <= arena_[st.volHead].lastAccess) {
            // At or below the LRU head: insertOrdered's head guard
            // places the block *before* an equal-aged head (unlike the
            // interior boundary, which lands after equals).
            before = st.volHead;
        } else if (st.volHint != kNil) {
            // Resume from the previous ordered insert; the boundary
            // between the <= prefix and the > suffix is unique, so
            // starting anywhere in the list lands on the same spot.
            std::uint32_t pos = st.volHint;
            if (arena_[pos].lastAccess <= access) {
                std::uint32_t next = state(pos, k).link.next;
                while (next != kNil &&
                       arena_[next].lastAccess <= access)
                    next = state(next, k).link.next;
                before = next;
            } else {
                before = pos;
                std::uint32_t prev = state(before, k).link.prev;
                while (prev != kNil &&
                       arena_[prev].lastAccess > access) {
                    before = prev;
                    prev = state(before, k).link.prev;
                }
            }
        } else {
            // No hint yet: walk towards the boundary from both ends
            // at once (head <= access < tail, so it is interior).
            std::uint32_t front = st.volHead; // known <= access
            std::uint32_t back = st.volTail;  // known  > access
            for (;;) {
                const std::uint32_t next = state(front, k).link.next;
                if (arena_[next].lastAccess > access) {
                    before = next;
                    break;
                }
                front = next;
                const std::uint32_t prev = state(back, k).link.prev;
                if (arena_[prev].lastAccess <= access) {
                    before = back;
                    break;
                }
                back = prev;
            }
        }
        insertBefore(st.volHead, st.volTail, k, slot, before);
        st.volHint = slot;
        ++st.volOccupancy;
        arena_[slot].presentMask |= 1u << k;
    }

    void
    insertNvram(std::uint32_t slot, std::uint32_t k)
    {
        pushBack(per_[k].nvHead, per_[k].nvTail, k, slot);
        ++per_[k].nvOccupancy;
        arena_[slot].presentMask |= 1u << k;
        arena_[slot].nvramMask |= 1u << k;
    }

    void
    markDirtyAt(std::uint32_t slot, std::uint32_t k, Bytes begin,
                Bytes end, TimeUs now)
    {
        PerSizeState &d = state(slot, k);
        if (begin == 0 && end == kBlockSize) {
            d.dirty.clear();
            d.dirty.insert(0, kBlockSize);
        } else {
            d.dirty.insert(begin, end);
        }
        if ((arena_[slot].dirtyMask >> k & 1) == 0) {
            arena_[slot].dirtyMask |= 1u << k;
            d.dirtySince = now;
        }
        // The write also refreshes the block's NVRAM LRU position.
        moveToBack(per_[k].nvHead, per_[k].nvTail, k, slot);
    }

    void
    clearDirtyAt(std::uint32_t slot, std::uint32_t k)
    {
        PerSizeState &d = state(slot, k);
        d.dirty.clear();
        d.dirtySince = kNoTime;
        arena_[slot].dirtyMask &= ~(1u << k);
    }

    /** Remove from whatever lists the slot is on, then free it. */
    void
    dropEverywhere(std::uint32_t slot)
    {
        NVFS_REQUIRE(arena_[slot].dirtyMask == 0,
                     "dropping a still-dirty curve slot");
        for (std::uint32_t m = arena_[slot].presentMask; m != 0;
             m &= m - 1) {
            const auto k = static_cast<std::uint32_t>(
                std::countr_zero(m));
            if ((arena_[slot].nvramMask >> k & 1) != 0) {
                removeLink(per_[k].nvHead, per_[k].nvTail, k, slot);
                --per_[k].nvOccupancy;
            } else {
                removeLink(per_[k].volHead, per_[k].volTail, k, slot);
                clearVolHint(k, slot);
                --per_[k].volOccupancy;
            }
        }
        arena_[slot].presentMask = 0;
        arena_[slot].nvramMask = 0;
        index_.erase(arena_[slot].id);
        freeSlot(slot);
    }

    /** Fully-evicted slot: presence already cleared per size. */
    void
    dropSlot(std::uint32_t slot)
    {
        NVFS_REQUIRE(arena_[slot].dirtyMask == 0 &&
                         arena_[slot].presentMask == 0,
                     "dropping a live curve slot");
        index_.erase(arena_[slot].id);
        extents_.remove(arena_[slot].id.file, arena_[slot].id.index);
        freeSlot(slot);
    }

    void
    pushBack(std::uint32_t &head, std::uint32_t &tail, std::uint32_t k,
             std::uint32_t slot)
    {
        SizeLink &link = state(slot, k).link;
        link.prev = tail;
        link.next = kNil;
        if (tail != kNil)
            state(tail, k).link.next = slot;
        else
            head = slot;
        tail = slot;
    }

    void
    removeLink(std::uint32_t &head, std::uint32_t &tail,
               std::uint32_t k, std::uint32_t slot)
    {
        SizeLink &link = state(slot, k).link;
        if (link.prev != kNil)
            state(link.prev, k).link.next = link.next;
        else
            head = link.next;
        if (link.next != kNil)
            state(link.next, k).link.prev = link.prev;
        else
            tail = link.prev;
        link = SizeLink{};
    }

    void
    moveToBack(std::uint32_t &head, std::uint32_t &tail,
               std::uint32_t k, std::uint32_t slot)
    {
        if (tail == slot)
            return;
        removeLink(head, tail, k, slot);
        pushBack(head, tail, k, slot);
    }

    void
    insertBefore(std::uint32_t &head, std::uint32_t &tail,
                 std::uint32_t k, std::uint32_t slot,
                 std::uint32_t before)
    {
        if (before == kNil) {
            pushBack(head, tail, k, slot);
            return;
        }
        SizeLink &link = state(slot, k).link;
        SizeLink &at = state(before, k).link;
        link.prev = at.prev;
        link.next = before;
        if (at.prev != kNil)
            state(at.prev, k).link.next = slot;
        else
            head = slot;
        at.prev = slot;
    }

    std::uint32_t
    allMask() const
    {
        return sizeCount_ >= 32 ? 0xffffffffu
                                : ((1u << sizeCount_) - 1u);
    }

    std::uint32_t
    allocSlot(const cache::BlockId &id)
    {
        std::uint32_t slot;
        if (freeHead_ != kNil) {
            slot = freeHead_;
            freeHead_ = arena_[slot].nextFree;
            arena_[slot] = Slot{};
        } else {
            slot = static_cast<std::uint32_t>(arena_.size());
            arena_.emplace_back();
            perSize_.resize(std::size_t{slot + 1} * sizeCount_);
        }
        arena_[slot].id = id;
        index_[id] = slot;
        extents_.insert(id.file, id.index, slot);
        return slot;
    }

    void
    freeSlot(std::uint32_t slot)
    {
        arena_[slot] = Slot{};
        arena_[slot].nextFree = freeHead_;
        freeHead_ = slot;
    }

    std::vector<Metrics> &metrics_;
    const FileSizeMap &fileSizes_;
    const std::uint64_t volCapacity_;
    const std::uint32_t sizeCount_;
    std::vector<SizeState> per_;
    std::vector<Slot> arena_;
    std::vector<PerSizeState> perSize_;
    std::uint32_t freeHead_ = kNil;
    util::FlatMap<cache::BlockId, std::uint32_t, cache::BlockIdHash>
        index_;
    cache::ExtentIndex extents_;
    std::vector<std::uint32_t> scratch_;
    std::vector<std::uint32_t> scratchBlocks_;
};

/**
 * One replay for all sizes: file sizes, consistency state, coalescing
 * decisions and the sweep clock are size-independent and shared; the
 * per-size client state lives in the curve clients, and bypassed I/O
 * is charged to every size.
 */
template <typename Client>
std::vector<Metrics>
replayCurve(const prep::OpStream &ops, const CurveSpec &spec)
{
    ClusterConfig config;
    config.model = spec.base;
    config.auditEvery = spec.auditEvery;

    std::vector<Metrics> metrics(spec.sizes.size());
    FileSizeMap sizes;
    const std::uint32_t client_count =
        std::max<std::uint32_t>(1, ops.clientCount);
    std::vector<std::unique_ptr<Client>> clients;
    clients.reserve(client_count);
    for (std::uint32_t i = 0; i < client_count; ++i) {
        clients.push_back(std::make_unique<Client>(
            spec.base, spec.sizes, metrics, sizes));
    }
    replayOps(ops, config, clients, sizes, metrics);
    return metrics;
}

} // namespace

bool
curveSupported(const CurveSpec &spec)
{
    if (spec.sizes.empty() || spec.sizes.size() > kCurveMaxSizes)
        return false;
    for (const Bytes size : spec.sizes) {
        if (size / kBlockSize == 0)
            return false;
    }
    // Per-replay side channels see one interleaved stream per size.
    if (spec.base.sink != nullptr)
        return false;
    // Inclusion-property breakers (see DESIGN.md §14).
    if (spec.base.dirtyPreference || spec.base.dynamicSizing)
        return false;
    switch (spec.axis) {
      case CurveAxis::VolatileBytes:
        return spec.base.kind == ModelKind::Volatile;
      case CurveAxis::NvramBytes:
        return spec.base.kind == ModelKind::Unified &&
               spec.base.nvramPolicy == cache::PolicyKind::Lru &&
               spec.base.volatileBytes / kBlockSize > 0;
    }
    return false;
}

std::vector<ModelConfig>
curveGridModels(const CurveSpec &spec)
{
    std::vector<ModelConfig> models;
    models.reserve(spec.sizes.size());
    for (const Bytes size : spec.sizes) {
        ModelConfig model = spec.base;
        if (spec.axis == CurveAxis::VolatileBytes)
            model.volatileBytes = size;
        else
            model.nvramBytes = size;
        models.push_back(model);
    }
    return models;
}

std::vector<Metrics>
runCurveSim(const prep::OpStream &ops, const CurveSpec &spec)
{
    NVFS_REQUIRE(curveSupported(spec),
                 "runCurveSim on an unsupported spec (use "
                 "runCurveSweep for automatic fallback)");
    static const obs::Counter passes("curve.passes");
    static const obs::Counter sizes("curve.sizes");
    static const obs::Timer replayTimer("curve.replay");
    passes.add();
    sizes.add(spec.sizes.size());
    const obs::StageTimer stage(replayTimer, "curve.replay");
    std::vector<Metrics> metrics =
        spec.axis == CurveAxis::VolatileBytes
            ? replayCurve<VolatileCurveClient>(ops, spec)
            : replayCurve<UnifiedCurveClient>(ops, spec);
#if defined(__GLIBC__)
    // The pass just freed its clients' state, megabytes each, into the
    // malloc arena of this thread.  Once large frees have raised glibc's
    // trim threshold, an arena keeps what it frees, so with passes on
    // several pool threads every arena would hold a pass's worth; hand
    // the pages back instead.
    ::malloc_trim(0);
#endif
    return metrics;
}

} // namespace nvfs::core

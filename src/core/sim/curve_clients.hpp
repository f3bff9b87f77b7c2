/**
 * @file
 * The curve engine's multi-size client set, which runCurveSim
 * (core/sim/curve.hpp) replays through core::replayOps: CurveCore, the
 * state the clients share, and the volatile, unified and write-aside
 * clients.
 * Only curve.cpp and the tests include it; CurveAuditTestPeer, which
 * only the tests define, corrupts a client's internals to prove its
 * audits fire.
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "cache/block.hpp"
#include "cache/extent_index.hpp"
#include "core/client/client_model.hpp"
#include "util/audit.hpp"
#include "util/interval_set.hpp"
#include "util/log.hpp"

namespace nvfs::core::curve {

/** Test-only peer that corrupts a client's internals. */
class CurveAuditTestPeer;

/** List end, and "no slot" (the extent index's own sentinel). */
constexpr std::uint32_t kNil = cache::ExtentIndex::kNoSlot;

/** One slot's links on one intrusive list. */
struct SlotLink
{
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
};

/**
 * Ends of an intrusive doubly linked list over arena slots.  The links
 * live wherever `link(slot)` says — in a PerSizeState for the per-size
 * lists, in the slot itself for the recency lists — so one
 * implementation serves every list of every curve client.
 */
struct SlotList
{
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;

    /** Link `slot` in before `at`; kNil appends it at the tail. */
    template <typename LinkOf>
    void
    insertBefore(std::uint32_t slot, std::uint32_t at, LinkOf link)
    {
        SlotLink &l = link(slot);
        l.prev = at == kNil ? tail : link(at).prev;
        l.next = at;
        (l.prev == kNil ? head : link(l.prev).next) = slot;
        (at == kNil ? tail : link(at).prev) = slot;
    }

    template <typename LinkOf>
    void
    pushBack(std::uint32_t slot, LinkOf link)
    {
        insertBefore(slot, kNil, link);
    }

    template <typename LinkOf>
    void
    remove(std::uint32_t slot, LinkOf link)
    {
        SlotLink &l = link(slot);
        (l.prev == kNil ? head : link(l.prev).next) = l.next;
        (l.next == kNil ? tail : link(l.next).prev) = l.prev;
        l = SlotLink{};
    }

    template <typename LinkOf>
    void
    moveToBack(std::uint32_t slot, LinkOf link)
    {
        if (tail == slot)
            return;
        remove(slot, link);
        pushBack(slot, link);
    }

    /**
     * nvfs::check: walk head to tail, checking the back-links, the
     * tail and (with `bound`, the arena size) for a cycle; `visit`
     * checks each entry.  Returns the length.
     */
    template <typename LinkOf, typename Visit>
    std::uint64_t
    audit(LinkOf link, std::uint64_t bound, Visit visit) const
    {
        std::uint64_t steps = 0;
        std::uint32_t prev = kNil;
        for (std::uint32_t slot = head; slot != kNil;
             slot = link(slot).next) {
            NVFS_AUDIT_CHECK(link(slot).prev == prev, "CurveSim",
                             "list back-link broken");
            NVFS_AUDIT_CHECK(++steps <= bound, "CurveSim",
                             "list has a cycle");
            visit(slot);
            prev = slot;
        }
        NVFS_AUDIT_CHECK(tail == prev, "CurveSim", "list tail stale");
        return steps;
    }
};

/**
 * Flat per-(slot, size) state: entry `slot * sizeCount + k`.  The
 * clients key dirty intervals this way because dirty sets are *not*
 * nested across sizes (a large cache can flush a block on the 30 s
 * sweep while a small one evicted and re-dirtied it), so one shared
 * interval set cannot reproduce the per-size grid bit-for-bit.
 */
struct PerSizeState
{
    /** Set on the clean->dirty transition, kNoTime while clean: the
     *  time for the volatile client, whose 30 s sweep reads it, and
     *  the transition's ordinal for the NVRAM clients, whose
     *  end-of-trace flush goes in that order. */
    TimeUs dirtyStamp = kNoTime;
    /** Dirty FIFO (volatile), volatile or NVRAM LRU (unified), NVRAM
     *  LRU (write-aside). */
    SlotLink link;
    util::IntervalSet dirty;
};
static_assert(sizeof(PerSizeState) <= 40,
              "one (slot, size) entry: stamp, links, inline dirty run");

/** The size a mask's lowest set bit stands for. */
inline std::uint32_t
lowBit(std::uint32_t mask)
{
    return static_cast<std::uint32_t>(std::countr_zero(mask));
}

/**
 * What the multi-size clients are made of: the slot arena and its
 * free list, the extent index (the one block -> slot map), the flat
 * PerSizeState array, the per-size dirty helpers, the file walks and
 * the read/write fan-out.  `Client` (CRTP: no virtual call per op) supplies
 * readBlock/writeBlock, recall (a dropFile with its write-back), unlink
 * (take a slot off every list of its own before it is freed) and
 * cleaned (size k's copy just went clean); `SlotExtra` holds its own
 * per-slot fields.
 *
 * A one-size pass may carry the configured ServerWriteSink.  Every
 * write-back reaches it from flushAt, stamped with the time of the op,
 * sweep or end of trace that caused it, in the order the per-block
 * models emit the same stream (curve_sim_test's stream differential).
 */
template <typename Client, typename SlotExtra>
class CurveCore
{
    friend class CurveAuditTestPeer;

  public:
    void
    read(FileId file, Bytes offset, Bytes length, TimeUs now)
    {
        for (Metrics &m : metrics_)
            m.appReadBytes += length;
        if (length == 0)
            return;
        forEachBlock(file, offset, length,
                     [&](const cache::BlockId &id, Bytes, Bytes) {
                         self().readBlock(id, now);
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
                         self().writeBlock(id, begin, end, now);
                     });
    }

    void
    removeFile(FileId file, TimeUs)
    {
        dropFile(file,
                 [&](std::uint32_t slot) { absorbDeletedSizes(slot); });
    }

    void
    truncate(FileId file, Bytes new_size, TimeUs)
    {
        const auto first_dead =
            static_cast<std::uint32_t>(blocksCovering(new_size));
        const Bytes cut = new_size % kBlockSize;
        snapshot(file);
        for (std::size_t i = 0; i < scratch_.size(); ++i) {
            const std::uint32_t block = scratchBlocks_[i];
            const std::uint32_t slot = scratch_[i];
            if (block >= first_dead) {
                absorbDeletedSizes(slot);
                release(slot);
                extents_.remove(file, block);
            } else if (block + 1 == first_dead && cut != 0) {
                // Boundary block: dirty bytes past the new end die.
                trimDirtySizes(slot, cut);
            }
        }
    }

    /**
     * End of trace: every size's dirty copies go in the order they
     * became dirty, as the models flush (BlockCache::allDirtyBlocks).
     * The NVRAM clients' stamps are ordinals from one counter, so one
     * sort gives that order at every size.  The volatile client walks
     * its dirty FIFOs instead.
     */
    void
    finish(TimeUs now)
    {
        std::vector<std::pair<TimeUs, std::size_t>> order;
        for (std::uint32_t slot = 0; slot < arena_.size(); ++slot) {
            for (std::uint32_t m = arena_[slot].dirtyMask; m != 0;
                 m &= m - 1) {
                const std::uint32_t k = lowBit(m);
                order.emplace_back(state(slot, k).dirtyStamp,
                                   std::size_t{slot} * sizeCount_ + k);
            }
        }
        std::sort(order.begin(), order.end());
        for (const auto &[stamp, at] : order) {
            flushAt(static_cast<std::uint32_t>(at / sizeCount_),
                    static_cast<std::uint32_t>(at % sizeCount_),
                    WriteCause::EndOfTrace, now);
        }
    }

    /**
     * Protocol entry points replayOps requires but the curve engine
     * never receives: runCurveSim replays with no injected crashes and
     * whole-file callbacks only.
     */
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

  protected:
    struct Slot : SlotExtra
    {
        cache::BlockId id{};
        std::uint32_t presentMask = 0; ///< sizes caching the block
        std::uint32_t dirtyMask = 0;   ///< sizes holding it dirty
        std::uint32_t nextFree = kNil;
    };

    CurveCore(std::vector<Metrics> &metrics,
              const FileSizeMap &file_sizes, std::size_t size_count,
              ServerWriteSink *sink)
        : metrics_(metrics), fileSizes_(file_sizes),
          sizeCount_(static_cast<std::uint32_t>(size_count)),
          allMask_(sizeCount_ >= 32 ? 0xffffffffu
                                    : (1u << sizeCount_) - 1u),
          sink_(sink)
    {
        NVFS_REQUIRE(sink_ == nullptr || sizeCount_ == 1,
                     "a server-write sink needs a one-size curve pass");
    }

    Client &
    self()
    {
        return static_cast<Client &>(*this);
    }

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

    /** Size k's links, for the SlotList calls. */
    auto
    linksAt(std::uint32_t k)
    {
        return [this, k](std::uint32_t slot) -> SlotLink & {
            return state(slot, k).link;
        };
    }

    auto
    linksAt(std::uint32_t k) const
    {
        return [this, k](std::uint32_t slot) -> const SlotLink & {
            return state(slot, k).link;
        };
    }

    /** The links of a list threaded through each slot's own `field`
     *  (a recency list), for the SlotList calls. */
    auto
    slotLinks(SlotLink SlotExtra::*field)
    {
        return [this, field](std::uint32_t slot) -> SlotLink & {
            return arena_[slot].*field;
        };
    }

    auto
    slotLinks(SlotLink SlotExtra::*field) const
    {
        return [this, field](std::uint32_t slot) -> const SlotLink & {
            return arena_[slot].*field;
        };
    }

    /** Reserve the arena and state for `slots` live slots at once. */
    void
    reserveSlots(std::uint64_t slots)
    {
        arena_.reserve(slots);
        perSize_.reserve(slots * sizeCount_);
    }

    /** Arena slot of `id`; kNil when no size caches it. */
    std::uint32_t
    slotOf(const cache::BlockId &id) const
    {
        return extents_.find(id.file, id.index);
    }

    /** A fresh slot for `id`, entered in the extent index. */
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
        extents_.insert(id.file, id.index, slot);
        return slot;
    }

    /** Free a slot its last size just evicted. */
    void
    dropSlot(std::uint32_t slot)
    {
        NVFS_REQUIRE(arena_[slot].dirtyMask == 0 &&
                         arena_[slot].presentMask == 0,
                     "dropping a live curve slot");
        extents_.remove(arena_[slot].id.file, arena_[slot].id.index);
        freeSlot(slot);
    }

    Bytes
    transferBytes(std::uint32_t slot) const
    {
        return blockTransferBytes(arena_[slot].id, fileSizes_);
    }

    /** Replacement/recall/sweep write-back of size k's copy; returns
     *  the bytes sent.  Forced inline, as it was before the sink call
     *  made the compiler stop inlining it into the per-block paths. */
    [[gnu::always_inline]] Bytes
    flushAt(std::uint32_t slot, std::uint32_t k, WriteCause cause,
            TimeUs now)
    {
        const Bytes bytes = transferBytes(slot);
        metrics_[k].addServerWrite(cause, bytes);
        if (sink_ != nullptr)
            notifySink(slot, bytes, cause, now);
        clearDirtyAt(slot, k);
        return bytes;
    }

    /** flushAt's sink call, kept out of line so the inlined flushAt
     *  stays small in the per-block paths. */
    [[gnu::noinline]] void
    notifySink(std::uint32_t slot, Bytes bytes, WriteCause cause,
               TimeUs now)
    {
        const cache::BlockId &id = arena_[slot].id;
        sink_->onServerWrite(now, id.file, id.index, bytes, cause);
    }

    void
    flushDirtySizes(std::uint32_t slot, WriteCause cause, TimeUs now)
    {
        for (std::uint32_t m = arena_[slot].dirtyMask; m != 0; m &= m - 1)
            flushAt(slot, lowBit(m), cause, now);
    }

    /** The next NVRAM client dirty stamp (see PerSizeState). */
    TimeUs
    nextDirtyOrdinal()
    {
        return static_cast<TimeUs>(dirtyOrdinals_++);
    }

    /** Deleted-file absorption: dirty bytes die without a transfer. */
    void
    absorbDeletedSizes(std::uint32_t slot)
    {
        for (std::uint32_t m = arena_[slot].dirtyMask; m != 0;
             m &= m - 1) {
            const std::uint32_t k = lowBit(m);
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
            const std::uint32_t k = lowBit(m);
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
        d.dirtyStamp = kNoTime;
        arena_[slot].dirtyMask &= ~(1u << k);
        self().cleaned(slot, k);
    }

    /**
     * nvfs::check of the shared structures: every extent entry names
     * its own live slot, which holds the entry's block; the free list
     * holds exactly the other slots; and a size's dirty bit agrees with
     * its dirty bytes and stamp.  `visit(slot)` checks each live slot
     * further.  Returns the live slot count, for the clients' list
     * populations.
     */
    template <typename Visit>
    std::uint64_t
    auditCore(Visit visit) const
    {
        std::vector<char> live = extents_.auditInvariants(
            arena_.size(), "CurveSim",
            [&](std::uint32_t slot, FileId file, std::uint32_t block) {
                return arena_[slot].id == cache::BlockId{file, block};
            });
        std::uint64_t live_count = 0;
        for (std::uint32_t slot = 0; slot < arena_.size(); ++slot) {
            if (live[slot] == 0)
                continue;
            ++live_count;
            const Slot &s = arena_[slot];
            NVFS_AUDIT_CHECK(s.presentMask != 0, "CurveSim",
                             "indexed block resident nowhere");
            NVFS_AUDIT_CHECK((s.dirtyMask & ~s.presentMask) == 0,
                             "CurveSim",
                             "dirty at a size it is not resident at");
            for (std::uint32_t k = 0; k < sizeCount_; ++k) {
                const PerSizeState &d = state(slot, k);
                NVFS_AUDIT_CHECK(((s.dirtyMask >> k & 1) != 0) ==
                                     !d.dirty.empty(),
                                 "CurveSim",
                                 "dirty bit disagrees with dirty bytes");
                NVFS_AUDIT_CHECK(d.dirty.empty() ==
                                     (d.dirtyStamp == kNoTime),
                                 "CurveSim",
                                 "dirty stamp disagrees with dirty bytes");
            }
            visit(slot);
        }
        std::uint64_t free_count = 0;
        for (std::uint32_t slot = freeHead_; slot != kNil;
             slot = arena_[slot].nextFree) {
            // A slot seen twice (a cycle) reads 2 here.
            NVFS_AUDIT_CHECK(slot < arena_.size() && live[slot] == 0,
                             "CurveSim",
                             "free list holds a live slot or one twice");
            live[slot] = 2;
            ++free_count;
        }
        NVFS_AUDIT_CHECK(live_count + free_count == arena_.size(),
                         "CurveSim",
                         "arena slots leaked (neither live nor free)");
        return live_count;
    }

    /** Drop every block of the file; `clean(slot)` first flushes or
     *  absorbs each block's dirty copies. */
    template <typename Fn>
    void
    dropFile(FileId file, Fn &&clean)
    {
        snapshot(file);
        for (const std::uint32_t slot : scratch_) {
            clean(slot);
            release(slot);
        }
        extents_.removeFile(file);
    }

    std::vector<Metrics> &metrics_;
    const FileSizeMap &fileSizes_;
    const std::uint32_t sizeCount_;
    const std::uint32_t allMask_;
    /** The configured sink; only a one-size pass carries one. */
    ServerWriteSink *const sink_;
    std::vector<Slot> arena_;
    std::vector<PerSizeState> perSize_;
    cache::ExtentIndex extents_;

  private:
    /** The file's cached blocks, kept apart from the extent index the
     *  walks below edit. */
    void
    snapshot(FileId file)
    {
        scratch_.clear();
        scratchBlocks_.clear();
        extents_.forEachOfFile(
            file, [&](std::uint32_t block, std::uint32_t slot) {
                scratch_.push_back(slot);
                scratchBlocks_.push_back(block);
            });
    }

    /** Drop a clean slot from every size and free it (recall, delete,
     *  truncate); the caller edits the extent index. */
    void
    release(std::uint32_t slot)
    {
        NVFS_REQUIRE(arena_[slot].dirtyMask == 0,
                     "dropping a still-dirty curve slot");
        self().unlink(slot);
        freeSlot(slot);
    }

    void
    freeSlot(std::uint32_t slot)
    {
        arena_[slot] = Slot{};
        arena_[slot].nextFree = freeHead_;
        freeHead_ = slot;
    }

    std::uint32_t freeHead_ = kNil;
    std::uint64_t dirtyOrdinals_ = 0;
    std::vector<std::uint32_t> scratch_;
    std::vector<std::uint32_t> scratchBlocks_;
};

/** The volatile client's per-slot fields. */
struct RecencySlot
{
    SlotLink recency;               ///< the recency list, head = MRU
    std::uint32_t boundaryMask = 0; ///< sizes whose LRU block this is
};

/**
 * Multi-size mirror of VolatileModel under pure LRU: one recency list
 * serves every size.  LRU caches of nested capacity keep nested
 * contents (Mattson's inclusion property), so the resident set of size
 * k is always the `occupancy(k)` most recent blocks: residency is one
 * mask bit per slot, and size k's LRU block — its *boundary*, the
 * block at rank occupancy(k) from the MRU end — is its eviction
 * victim.  Each event moves a boundary by at most one neighbour
 * (DESIGN.md §14 lists the rules), so every size costs O(1) per
 * touch, eviction or removal.  Evictions happen eagerly at touch
 * time, exactly when the per-size model would evict, so replacement
 * write-backs see the same file sizes (and therefore the same
 * end-of-file clipping) as the per-size replay.
 */
class VolatileCurveClient
    : public CurveCore<VolatileCurveClient, RecencySlot>
{
    using Core = CurveCore<VolatileCurveClient, RecencySlot>;
    friend Core;

    auto recencyLinks() { return slotLinks(&RecencySlot::recency); }
    auto recencyLinks() const { return slotLinks(&RecencySlot::recency); }

  public:
    VolatileCurveClient(const ModelConfig &base,
                        const std::vector<Bytes> &sizes,
                        std::vector<Metrics> &metrics,
                        const FileSizeMap &file_sizes)
        : Core(metrics, file_sizes, sizes.size(), base.sink),
          writeBackAge_(base.writeBackAge)
    {
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
        reserveSlots(slotBound_);
    }

    void
    recall(FileId file, WriteCause cause, TimeUs now)
    {
        dropFile(file, [&](std::uint32_t slot) {
            flushDirtySizes(slot, cause, now);
        });
    }

    void
    fsync(FileId file, TimeUs now)
    {
        extents_.forEachOfFile(
            file, [&](std::uint32_t, std::uint32_t slot) {
                flushDirtySizes(slot, WriteCause::Fsync, now);
            });
        // The fsync itself reaches the server (VolatileModel::fsync).
        if (sink_ != nullptr)
            sink_->onFsync(now, file);
    }

    void
    tick(TimeUs now)
    {
        const TimeUs cutoff = now - writeBackAge_;
        for (std::uint32_t k = 0; k < sizeCount_; ++k) {
            // dirtyStamp ascends along the FIFO (set only on the
            // clean->dirty transition), same as BlockCache's list.
            const SlotList &fifo = per_[k].dirty;
            while (fifo.head != kNil &&
                   state(fifo.head, k).dirtyStamp <= cutoff)
                flushAt(fifo.head, k, WriteCause::DelayedWriteBack, now);
        }
    }

    /** End of trace: each size's dirty FIFO is the order its blocks
     *  became dirty. */
    void
    finish(TimeUs now)
    {
        for (std::uint32_t k = 0; k < sizeCount_; ++k) {
            while (per_[k].dirty.head != kNil)
                flushAt(per_[k].dirty.head, k, WriteCause::EndOfTrace,
                        now);
        }
    }

    /** nvfs::check: the recency threshold, boundaries, dirty FIFOs. */
    void
    auditInvariants() const
    {
        std::vector<std::uint64_t> occ(sizeCount_, 0);
        std::vector<std::uint64_t> dirty(sizeCount_, 0);
        std::vector<std::uint32_t> at_boundary(sizeCount_, kNil);
        std::uint64_t rank = 0;
        const std::uint64_t listed = recency_.audit(
            recencyLinks(), arena_.size(), [&](std::uint32_t slot) {
                ++rank;
                const Slot &s = arena_[slot];
                for (std::uint32_t k = 0; k < sizeCount_; ++k) {
                    const bool resident = (s.presentMask >> k & 1) != 0;
                    // The inclusion property, as maintained: resident
                    // at size k iff among its occupancy most recent.
                    NVFS_AUDIT_CHECK(
                        resident == (rank <= per_[k].occupancy),
                        "CurveSim",
                        "resident mask violates the recency threshold");
                    NVFS_AUDIT_CHECK(
                        ((s.boundaryMask >> k & 1) != 0) ==
                            (per_[k].boundary == slot),
                        "CurveSim", "boundary mask disagrees");
                    if (rank == per_[k].occupancy)
                        at_boundary[k] = slot;
                    occ[k] += resident ? 1 : 0;
                    dirty[k] += s.dirtyMask >> k & 1;
                }
            });
        NVFS_AUDIT_CHECK(listed == auditCore([](std::uint32_t) {}),
                         "CurveSim",
                         "recency list does not cover the live slots");
        // The arena grows only when every slot in it is live, so its
        // size is the most slots ever live at once.
        NVFS_AUDIT_CHECK(arena_.size() <= slotBound_, "CurveSim",
                         "more live slots than the largest size holds");
        for (std::uint32_t k = 0; k < sizeCount_; ++k) {
            NVFS_AUDIT_CHECK(occ[k] == per_[k].occupancy, "CurveSim",
                             "occupancy counter diverged");
            NVFS_AUDIT_CHECK(per_[k].occupancy <= per_[k].capacity,
                             "CurveSim", "cache over capacity");
            // None iff empty: occ[k] == occupancy puts a block at
            // every rank up to it.
            NVFS_AUDIT_CHECK(per_[k].boundary == at_boundary[k],
                             "CurveSim",
                             "boundary is not the block at rank "
                             "occupancy");
            TimeUs last_since = std::numeric_limits<TimeUs>::min();
            const std::uint64_t queued = per_[k].dirty.audit(
                linksAt(k), arena_.size(), [&](std::uint32_t slot) {
                    NVFS_AUDIT_CHECK(
                        (arena_[slot].dirtyMask >> k & 1) != 0,
                        "CurveSim", "dirty FIFO visits a clean slot");
                    NVFS_AUDIT_CHECK(state(slot, k).dirtyStamp >=
                                         last_since,
                                     "CurveSim",
                                     "dirty FIFO not time-ordered");
                    last_since = state(slot, k).dirtyStamp;
                });
            NVFS_AUDIT_CHECK(queued == dirty[k], "CurveSim",
                             "dirty FIFO misses dirty slots");
        }
    }

  private:
    struct SizeState
    {
        std::uint64_t capacity = 0;
        std::uint64_t occupancy = 0;
        SlotList dirty;                ///< dirty FIFO, oldest first
        std::uint32_t boundary = kNil; ///< LRU block; kNil iff empty
    };

    void
    readBlock(const cache::BlockId &id, TimeUs now)
    {
        const std::uint32_t slot = slotOf(id);
        const std::uint32_t miss =
            allMask_ & ~(slot == kNil ? 0u : arena_[slot].presentMask);
        if (miss != 0) {
            const Bytes fetched = blockTransferBytes(id, fileSizes_);
            for (std::uint32_t m = miss; m != 0; m &= m - 1) {
                Metrics &out = metrics_[lowBit(m)];
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
        std::uint32_t slot = slotOf(id);
        const std::uint32_t miss =
            allMask_ & ~(slot == kNil ? 0u : arena_[slot].presentMask);
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
                d.dirtyStamp = now;
                per_[k].dirty.pushBack(slot, linksAt(k));
            }
        }
    }

    /**
     * Make `id` resident and most recent at every size: each missing
     * size that is full first evicts its boundary (exactly the
     * per-size model's ensureSpace-then-insert schedule), then the
     * block moves to the MRU end of the recency list.
     */
    std::uint32_t
    touchResident(const cache::BlockId &id, std::uint32_t slot,
                  std::uint32_t miss, TimeUs now)
    {
        for (std::uint32_t m = miss; m != 0; m &= m - 1) {
            const std::uint32_t k = lowBit(m);
            SizeState &s = per_[k];
            if (s.occupancy < s.capacity) {
                // The boundary stays: it slides to rank occupancy + 1.
                ++s.occupancy;
                continue;
            }
            const std::uint32_t victim = s.boundary;
            if ((arena_[victim].dirtyMask >> k & 1) != 0)
                flushAt(victim, k, WriteCause::Replacement, now);
            passBoundary(k, victim);
            arena_[victim].presentMask &= ~(1u << k);
            if (arena_[victim].presentMask == 0) {
                recency_.remove(victim, recencyLinks());
                dropSlot(victim);
            }
        }
        if (slot == kNil) {
            slot = allocSlot(id);
            recency_.insertBefore(slot, recency_.head, recencyLinks());
        } else if (recency_.head != slot) {
            // Its boundaries pass to its more-recent neighbour.  An MRU
            // block keeps them: those sizes hold it alone.
            for (std::uint32_t m = arena_[slot].boundaryMask; m != 0;
                 m &= m - 1)
                passBoundary(lowBit(m), slot);
            recency_.remove(slot, recencyLinks());
            recency_.insertBefore(slot, recency_.head, recencyLinks());
        }
        arena_[slot].presentMask = allMask_;
        // A size left without a boundary (it was empty, or its one
        // block was just evicted) now holds this block alone.
        for (std::uint32_t m = miss; m != 0; m &= m - 1) {
            const std::uint32_t k = lowBit(m);
            if (per_[k].boundary == kNil) {
                per_[k].boundary = slot;
                arena_[slot].boundaryMask |= 1u << k;
            }
        }
        return slot;
    }

    /** Hand size k's boundary from `from` to its more-recent
     *  neighbour (kNil when `from` is MRU). */
    void
    passBoundary(std::uint32_t k, std::uint32_t from)
    {
        arena_[from].boundaryMask &= ~(1u << k);
        const std::uint32_t to = arena_[from].recency.prev;
        per_[k].boundary = to;
        if (to != kNil)
            arena_[to].boundaryMask |= 1u << k;
    }

    /** Off every size: ranks below it move up one, so each of its
     *  boundaries passes to its more-recent neighbour. */
    void
    unlink(std::uint32_t slot)
    {
        for (std::uint32_t m = arena_[slot].boundaryMask; m != 0;
             m &= m - 1)
            passBoundary(lowBit(m), slot);
        for (std::uint32_t m = arena_[slot].presentMask; m != 0;
             m &= m - 1)
            --per_[lowBit(m)].occupancy;
        recency_.remove(slot, recencyLinks());
    }

    void
    cleaned(std::uint32_t slot, std::uint32_t k)
    {
        per_[k].dirty.remove(slot, linksAt(k));
    }

    const TimeUs writeBackAge_;
    std::vector<SizeState> per_;
    std::uint64_t slotBound_ = 0; ///< the largest size's capacity
    SlotList recency_;            ///< head = most recently used
};

/** The unified client's per-slot fields. */
struct UnifiedSlot
{
    TimeUs lastAccess = 0;
    std::uint32_t nvramMask = 0; ///< sizes holding it in NVRAM
};

/**
 * Multi-size mirror of UnifiedModel (LRU NVRAM policy): per-size
 * volatile/NVRAM LRU lists over the shared arena.  A block's
 * lastAccess is size-independent — every operation touching it stamps
 * the same time at every size — so it is stored once per slot; the
 * per-size lists replicate each size's placement/demotion decisions
 * (which *do* diverge) exactly.
 */
class UnifiedCurveClient
    : public CurveCore<UnifiedCurveClient, UnifiedSlot>
{
    using Core = CurveCore<UnifiedCurveClient, UnifiedSlot>;
    friend Core;

  public:
    UnifiedCurveClient(const ModelConfig &base,
                       const std::vector<Bytes> &sizes,
                       std::vector<Metrics> &metrics,
                       const FileSizeMap &file_sizes)
        : Core(metrics, file_sizes, sizes.size(), base.sink),
          volCapacity_(base.volatileBytes / kBlockSize)
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
        reserveSlots(volCapacity_ + nv_most + 1);
    }

    void
    recall(FileId file, WriteCause cause, TimeUs now)
    {
        dropFile(file, [&](std::uint32_t slot) {
            // Each written-back copy is read out of the NVRAM.
            for (std::uint32_t m = arena_[slot].dirtyMask; m != 0;
                 m &= m - 1)
                ++metrics_[lowBit(m)].nvramReadAccesses;
            flushDirtySizes(slot, cause, now);
        });
    }

    void
    fsync(FileId, TimeUs)
    {
        // Absorbed: dirty data is already permanent in the NVRAM.
    }

    void
    tick(TimeUs)
    {
        // NVRAM contents are permanent; no delayed write-back sweep.
    }

    void
    auditInvariants() const
    {
        std::vector<std::uint64_t> present(sizeCount_, 0);
        auditCore([&](std::uint32_t slot) {
            const Slot &s = arena_[slot];
            NVFS_AUDIT_CHECK((s.nvramMask & ~s.presentMask) == 0,
                             "CurveSim", "NVRAM bit without presence");
            NVFS_AUDIT_CHECK((s.dirtyMask & ~s.nvramMask) == 0,
                             "CurveSim",
                             "dirty block outside the NVRAM");
            for (std::uint32_t m = s.presentMask; m != 0; m &= m - 1)
                ++present[lowBit(m)];
        });
        for (std::uint32_t k = 0; k < sizeCount_; ++k) {
            const SizeState &st = per_[k];
            const auto walk = [&](const SlotList &list, bool in_nvram) {
                TimeUs last_access = std::numeric_limits<TimeUs>::min();
                return list.audit(
                    linksAt(k), arena_.size(), [&](std::uint32_t slot) {
                        const Slot &s = arena_[slot];
                        NVFS_AUDIT_CHECK((s.presentMask >> k & 1) != 0,
                                         "CurveSim",
                                         "LRU list visits absent block");
                        NVFS_AUDIT_CHECK(
                            ((s.nvramMask >> k & 1) != 0) == in_nvram,
                            "CurveSim",
                            "block on the wrong memory list");
                        NVFS_AUDIT_CHECK(s.lastAccess >= last_access,
                                         "CurveSim",
                                         "LRU list not time-ordered");
                        last_access = s.lastAccess;
                    });
            };
            NVFS_AUDIT_CHECK(walk(st.vol, false) == st.volOccupancy,
                             "CurveSim", "occupancy counter diverged");
            NVFS_AUDIT_CHECK(walk(st.nv, true) == st.nvOccupancy,
                             "CurveSim", "occupancy counter diverged");
            NVFS_AUDIT_CHECK(present[k] == st.volOccupancy + st.nvOccupancy,
                             "CurveSim",
                             "LRU lists miss blocks present at the size");
            NVFS_AUDIT_CHECK(st.volOccupancy <= volCapacity_,
                             "CurveSim", "volatile over capacity");
            NVFS_AUDIT_CHECK(st.nvOccupancy <= st.nvCapacity,
                             "CurveSim", "NVRAM over capacity");
        }
    }

  private:
    struct SizeState
    {
        std::uint64_t nvCapacity = 0;
        std::uint64_t nvOccupancy = 0;
        std::uint64_t volOccupancy = 0;
        SlotList vol; ///< volatile LRU list, head = least recent
        SlotList nv;  ///< NVRAM LRU list, head = least recent
        /** Last ordered-insert position (BlockCache::orderedHint_):
         *  demotions arrive in ascending age, so each boundary sits at
         *  or just past the previous one.  Any slot still on the
         *  volatile list is a correct starting point; cleared when its
         *  slot leaves the list.  Purely a walk shortcut — the insert
         *  position is the unique ascending-order boundary either
         *  way. */
        std::uint32_t volHint = kNil;
    };

    void
    readBlock(const cache::BlockId &id, TimeUs now)
    {
        std::uint32_t slot = slotOf(id);
        const std::uint32_t present =
            slot == kNil ? 0u : arena_[slot].presentMask;
        const std::uint32_t miss = allMask_ & ~present;
        // Hits: refresh each size's LRU position.
        for (std::uint32_t m = present; m != 0; m &= m - 1) {
            const std::uint32_t k = lowBit(m);
            if ((arena_[slot].nvramMask >> k & 1) != 0) {
                per_[k].nv.moveToBack(slot, linksAt(k));
                ++metrics_[k].nvramReadAccesses;
            } else {
                per_[k].vol.moveToBack(slot, linksAt(k));
            }
        }
        if (miss != 0) {
            const Bytes fetched = blockTransferBytes(id, fileSizes_);
            if (slot == kNil)
                slot = allocSlot(id);
            for (std::uint32_t m = miss; m != 0; m &= m - 1) {
                const std::uint32_t k = lowBit(m);
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
        std::uint32_t slot = slotOf(id);
        if (slot == kNil)
            slot = allocSlot(id);
        for (std::uint32_t k = 0; k < sizeCount_; ++k) {
            Slot &s = arena_[slot];
            if ((s.nvramMask >> k & 1) != 0) {
                metrics_[k].absorbedOverwrittenBytes +=
                    state(slot, k).dirty.overlapBytes(begin, end);
                markDirtyAt(slot, k, begin, end);
                ++metrics_[k].nvramWriteAccesses;
                metrics_[k].busBytes += n;
            } else if ((s.presentMask >> k & 1) != 0) {
                // Clean in the volatile cache: transfer to the NVRAM
                // and update it there (Section 2.6).
                const Bytes transfer = blockTransferBytes(id, fileSizes_);
                leaveVolatile(slot, k);
                s.presentMask &= ~(1u << k);
                ensureNvramSpace(k, now);
                insertNvram(slot, k);
                markDirtyAt(slot, k, begin, end);
                metrics_[k].cacheToNvramBytes += transfer;
                metrics_[k].busBytes += transfer + n;
                metrics_[k].nvramWriteAccesses += 2;
            } else {
                ensureNvramSpace(k, now);
                insertNvram(slot, k);
                markDirtyAt(slot, k, begin, end);
                ++metrics_[k].nvramWriteAccesses;
                metrics_[k].busBytes += n;
            }
        }
        arena_[slot].lastAccess = now;
    }

    /**
     * UnifiedModel::placeCleanBlock at size k: volatile space first,
     * NVRAM free block second, else replace the globally
     * least-recently-used of the two memories' LRU heads.  Forced
     * inline into readBlock, where the compiler put it before the
     * write-back's sink call grew it.
     */
    [[gnu::always_inline]] void
    placeCleanBlock(std::uint32_t slot, std::uint32_t k, TimeUs now)
    {
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
        const TimeUs nvram_lru = arena_[st.nv.head].lastAccess;
        const TimeUs volatile_lru = arena_[st.vol.head].lastAccess;
        if (nvram_lru < volatile_lru) {
            // The globally least-recent block sits in NVRAM.
            const std::uint32_t victim = st.nv.head;
            leaveNvram(victim, k);
            if ((arena_[victim].dirtyMask >> k & 1) != 0)
                flushAt(victim, k, WriteCause::Replacement, now);
            evictFromSize(victim, k);
            insertNvram(slot, k);
            ++metrics_[k].nvramWriteAccesses;
        } else {
            const std::uint32_t victim = st.vol.head;
            leaveVolatile(victim, k);
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
        SizeState &st = per_[k];
        const std::uint32_t victim = st.nv.head;
        NVFS_REQUIRE(victim != kNil, "full NVRAM without victim");
        leaveNvram(victim, k);
        const Bytes transfer =
            (arena_[victim].dirtyMask >> k & 1) != 0
                ? flushAt(victim, k, WriteCause::Replacement, now)
                : transferBytes(victim);
        bool demote;
        if (st.volOccupancy < volCapacity_) {
            demote = true;
        } else {
            demote = arena_[st.vol.head].lastAccess <
                     arena_[victim].lastAccess;
            if (demote) {
                const std::uint32_t out = st.vol.head;
                leaveVolatile(out, k);
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
        per_[k].vol.pushBack(slot, linksAt(k));
        ++per_[k].volOccupancy;
        arena_[slot].presentMask |= 1u << k;
    }

    /** Off size k's volatile list.  The hint must stay on that list:
     *  drop it with its slot (a repositioning moveToBack keeps it
     *  valid). */
    void
    leaveVolatile(std::uint32_t slot, std::uint32_t k)
    {
        SizeState &st = per_[k];
        st.vol.remove(slot, linksAt(k));
        if (st.volHint == slot)
            st.volHint = kNil;
        --st.volOccupancy;
    }

    /** Off size k's NVRAM list, still present (the caller decides). */
    void
    leaveNvram(std::uint32_t slot, std::uint32_t k)
    {
        per_[k].nv.remove(slot, linksAt(k));
        --per_[k].nvOccupancy;
        arena_[slot].nvramMask &= ~(1u << k);
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
        if (st.vol.tail == kNil ||
            arena_[st.vol.tail].lastAccess <= access) {
            // Younger than everything: plain MRU insert.
        } else if (access <= arena_[st.vol.head].lastAccess) {
            // At or below the LRU head: insertOrdered's head guard
            // places the block *before* an equal-aged head (unlike the
            // interior boundary, which lands after equals).
            before = st.vol.head;
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
            std::uint32_t front = st.vol.head; // known <= access
            std::uint32_t back = st.vol.tail;  // known  > access
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
        st.vol.insertBefore(slot, before, linksAt(k));
        st.volHint = slot;
        ++st.volOccupancy;
        arena_[slot].presentMask |= 1u << k;
    }

    void
    insertNvram(std::uint32_t slot, std::uint32_t k)
    {
        per_[k].nv.pushBack(slot, linksAt(k));
        ++per_[k].nvOccupancy;
        arena_[slot].presentMask |= 1u << k;
        arena_[slot].nvramMask |= 1u << k;
    }

    void
    markDirtyAt(std::uint32_t slot, std::uint32_t k, Bytes begin,
                Bytes end)
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
            d.dirtyStamp = nextDirtyOrdinal();
        }
        // The write also refreshes the block's NVRAM LRU position.
        per_[k].nv.moveToBack(slot, linksAt(k));
    }

    /** Off whichever list holds it at each size it is present at. */
    void
    unlink(std::uint32_t slot)
    {
        for (std::uint32_t m = arena_[slot].presentMask; m != 0;
             m &= m - 1) {
            const std::uint32_t k = lowBit(m);
            if ((arena_[slot].nvramMask >> k & 1) != 0)
                leaveNvram(slot, k);
            else
                leaveVolatile(slot, k);
        }
    }

    /** Dirty copies sit on the NVRAM list, which cleaning keeps. */
    void
    cleaned(std::uint32_t, std::uint32_t)
    {
    }

    const std::uint64_t volCapacity_;
    std::vector<SizeState> per_;
};

/** The write-aside client's per-slot fields. */
struct WriteAsideSlot
{
    SlotLink recency; ///< the volatile LRU list, head = least recent
};

/**
 * Multi-size mirror of WriteAsideModel (LRU NVRAM policy) on the NVRAM
 * axis.  The volatile cache is the same at every size: its victims
 * ignore dirtiness, and the reads, writes, recalls, deletes and
 * truncates that edit it do not depend on the NVRAM.  So one volatile
 * LRU list holds every live slot, resident at every size.  Only NVRAM
 * membership differs by size, and the write-aside invariant ties it to
 * dirtiness: a block is in size k's NVRAM iff its volatile copy is
 * dirty at size k, with the same dirty bytes.  The dirty bit is
 * therefore the NVRAM bit, and per size an NVRAM LRU list orders
 * exactly that size's dirty blocks.
 */
class WriteAsideCurveClient
    : public CurveCore<WriteAsideCurveClient, WriteAsideSlot>
{
    using Core = CurveCore<WriteAsideCurveClient, WriteAsideSlot>;
    friend Core;

    auto recencyLinks() { return slotLinks(&WriteAsideSlot::recency); }
    auto recencyLinks() const { return slotLinks(&WriteAsideSlot::recency); }

  public:
    WriteAsideCurveClient(const ModelConfig &base,
                          const std::vector<Bytes> &sizes,
                          std::vector<Metrics> &metrics,
                          const FileSizeMap &file_sizes)
        : Core(metrics, file_sizes, sizes.size(), base.sink),
          volCapacity_(base.volatileBytes / kBlockSize)
    {
        NVFS_REQUIRE(volCapacity_ > 0, "volatile cache too small");
        per_.reserve(sizeCount_);
        for (const Bytes bytes : sizes) {
            SizeState s;
            s.nvCapacity = bytes / kBlockSize;
            NVFS_REQUIRE(s.nvCapacity > 0, "NVRAM too small");
            per_.push_back(s);
        }
        // Every live slot is in the volatile cache, which is full
        // before a slot is allocated only after its victim is freed.
        reserveSlots(volCapacity_);
    }

    void
    recall(FileId file, WriteCause cause, TimeUs now)
    {
        dropFile(file, [&](std::uint32_t slot) {
            flushDirtySizes(slot, cause, now);
        });
    }

    void
    fsync(FileId, TimeUs)
    {
        // Absorbed: the data is already permanent in the NVRAM.
    }

    void
    tick(TimeUs)
    {
        // No delayed write-back: dirty blocks wait in the NVRAM.
    }

    /** nvfs::check: the volatile list, the NVRAM lists, capacities. */
    void
    auditInvariants() const
    {
        std::vector<std::uint64_t> held(sizeCount_, 0);
        const std::uint64_t listed = volatile_.audit(
            recencyLinks(), arena_.size(), [&](std::uint32_t slot) {
                const Slot &s = arena_[slot];
                NVFS_AUDIT_CHECK(s.presentMask == allMask_, "CurveSim",
                                 "volatile block absent at a size");
                for (std::uint32_t m = s.dirtyMask; m != 0; m &= m - 1)
                    ++held[lowBit(m)];
            });
        NVFS_AUDIT_CHECK(listed == auditCore([](std::uint32_t) {}),
                         "CurveSim",
                         "volatile list does not cover the live slots");
        NVFS_AUDIT_CHECK(listed == volOccupancy_ &&
                             listed <= volCapacity_,
                         "CurveSim", "volatile occupancy diverged");
        for (std::uint32_t k = 0; k < sizeCount_; ++k) {
            const std::uint64_t queued = per_[k].nv.audit(
                linksAt(k), arena_.size(), [&](std::uint32_t slot) {
                    NVFS_AUDIT_CHECK(
                        (arena_[slot].dirtyMask >> k & 1) != 0,
                        "CurveSim", "clean block in the NVRAM");
                });
            NVFS_AUDIT_CHECK(queued == per_[k].nvOccupancy &&
                                 queued == held[k],
                             "CurveSim",
                             "NVRAM list misses dirty blocks");
            NVFS_AUDIT_CHECK(per_[k].nvOccupancy <= per_[k].nvCapacity,
                             "CurveSim", "NVRAM over capacity");
        }
    }

  private:
    struct SizeState
    {
        std::uint64_t nvCapacity = 0;
        std::uint64_t nvOccupancy = 0;
        SlotList nv; ///< NVRAM LRU list, head = least recent
    };

    void
    readBlock(const cache::BlockId &id, TimeUs now)
    {
        // The NVRAM is never read during normal operation.
        const std::uint32_t slot = slotOf(id);
        if (slot != kNil) {
            volatile_.moveToBack(slot, recencyLinks());
            return;
        }
        const Bytes fetched = blockTransferBytes(id, fileSizes_);
        for (Metrics &m : metrics_) {
            m.serverReadBytes += fetched;
            m.busBytes += fetched;
        }
        insertVolatile(id, now);
    }

    void
    writeBlock(const cache::BlockId &id, Bytes begin, Bytes end,
               TimeUs now)
    {
        const Bytes n = end - begin;
        std::uint32_t slot = slotOf(id);
        if (slot == kNil)
            slot = insertVolatile(id, now);
        else
            volatile_.moveToBack(slot, recencyLinks());
        for (std::uint32_t k = 0; k < sizeCount_; ++k) {
            SizeState &st = per_[k];
            PerSizeState &d = state(slot, k);
            if ((arena_[slot].dirtyMask >> k & 1) != 0) {
                metrics_[k].absorbedOverwrittenBytes +=
                    d.dirty.overlapBytes(begin, end);
                // The rewrite refreshes the block's NVRAM position.
                st.nv.moveToBack(slot, linksAt(k));
            } else {
                // A full NVRAM writes its LRU block back; that block's
                // volatile copy goes clean with it.
                while (st.nvOccupancy >= st.nvCapacity)
                    flushAt(st.nv.head, k, WriteCause::Replacement, now);
                st.nv.pushBack(slot, linksAt(k));
                ++st.nvOccupancy;
                arena_[slot].dirtyMask |= 1u << k;
                d.dirtyStamp = nextDirtyOrdinal();
            }
            if (begin == 0 && end == kBlockSize) {
                d.dirty.clear();
                d.dirty.insert(0, kBlockSize);
            } else {
                d.dirty.insert(begin, end);
            }
            ++metrics_[k].nvramWriteAccesses;
            metrics_[k].busBytes += 2 * n; // both memories
        }
    }

    /**
     * WriteAsideModel's volatile miss: a full cache evicts its LRU
     * block, which each size holding it dirty writes back and drops
     * from its NVRAM, then the block enters at the MRU end.
     */
    std::uint32_t
    insertVolatile(const cache::BlockId &id, TimeUs now)
    {
        if (volOccupancy_ == volCapacity_) {
            const std::uint32_t victim = volatile_.head;
            flushDirtySizes(victim, WriteCause::Replacement, now);
            volatile_.remove(victim, recencyLinks());
            --volOccupancy_;
            arena_[victim].presentMask = 0;
            dropSlot(victim);
        }
        const std::uint32_t slot = allocSlot(id);
        arena_[slot].presentMask = allMask_;
        volatile_.pushBack(slot, recencyLinks());
        ++volOccupancy_;
        return slot;
    }

    /** Off the volatile list; release cleaned it out of every NVRAM
     *  first. */
    void
    unlink(std::uint32_t slot)
    {
        volatile_.remove(slot, recencyLinks());
        --volOccupancy_;
    }

    /** Clean at size k means out of size k's NVRAM. */
    void
    cleaned(std::uint32_t slot, std::uint32_t k)
    {
        per_[k].nv.remove(slot, linksAt(k));
        --per_[k].nvOccupancy;
    }

    const std::uint64_t volCapacity_;
    std::uint64_t volOccupancy_ = 0;
    std::vector<SizeState> per_;
    SlotList volatile_; ///< head = least recently used
};

} // namespace nvfs::core::curve

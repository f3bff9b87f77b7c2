/**
 * @file
 * A fixed-capacity block cache with pluggable replacement and an
 * always-maintained LRU ordering.
 *
 * The cache only manages metadata; the *client models* decide what to
 * do with evicted blocks (write to server, demote to another cache,
 * drop).  Eviction is therefore split into chooseVictim() / remove():
 * the model asks for a victim, handles its dirty data, then removes
 * it.  An LRU ordering is maintained regardless of the configured
 * policy because the unified model needs "the least-recently accessed
 * block in the volatile cache" as a comparison point even when the
 * NVRAM runs a different policy.
 *
 * Layout: all resident blocks live in one contiguous arena, and the
 * recency/dirty/clean orderings are intrusive doubly-linked lists of
 * 32-bit arena indices inside the entries themselves.  The one block ->
 * slot map is an ExtentIndex: per-file sorted (block, slot) runs that
 * resolve one block with a file probe plus a hinted binary search, and
 * a (file, first..last) span to runs of consecutive resident blocks
 * with one probe.  On top of that sit the range operations the file
 * server writes through — probeRange / insertRange / markDirtyRange /
 * removeFileBlocks / removeDirtyOlderThan — which walk arena slots
 * directly instead of resolving each block.  Pointers and
 * references returned by insert()/peek() are invalidated by a later
 * insert (the arena may grow); use them before the next mutation, as
 * all callers do.
 *
 * LRU needs no policy object: a cache built without one serves
 * chooseVictim() from the head of the lru_ list it maintains anyway
 * and sends no notifications (makePolicy(PolicyKind::Lru) returns
 * none, so every LRU cache in the simulator runs this way).  A policy
 * object is told of every insert, access and removal.
 */

#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cache/block.hpp"
#include "cache/extent_index.hpp"
#include "cache/policy.hpp"

namespace nvfs::cache {

/** A fixed-capacity set of CacheBlocks. */
class BlockCache
{
  public:
    /**
     * @param capacity_blocks maximum resident blocks (0 = unbounded,
     *        used by the infinite-cache lifetime pass)
     * @param policy victim selection; none (the default) is LRU from
     *        the cache's own recency list
     */
    explicit BlockCache(std::uint64_t capacity_blocks,
                        std::unique_ptr<ReplacementPolicy> policy = nullptr);

    /**
     * Copy a cache built without a policy (a policy object cannot be
     * copied; panics otherwise): the same blocks in the same slots
     * and orders, so the copy goes on exactly as the original would.
     * The crash explorer forks a server's dirty pool this way.
     */
    BlockCache(const BlockCache &other);
    BlockCache &operator=(const BlockCache &) = delete;
    BlockCache(BlockCache &&) = default;
    BlockCache &operator=(BlockCache &&) = default;

    /** Resident block count. */
    std::uint64_t size() const { return size_; }

    /** Capacity in blocks (0 = unbounded). */
    std::uint64_t capacityBlocks() const { return capacity_; }

    /**
     * Change the capacity (Sprite's dynamic cache sizing: the file
     * cache grows and shrinks against the VM system).  Shrinking can
     * leave the cache over-full; the owner must evict until !full().
     */
    void setCapacityBlocks(std::uint64_t blocks) { capacity_ = blocks; }

    /** True while size() exceeds the (possibly shrunk) capacity. */
    bool
    overFull() const
    {
        return capacity_ != 0 && size() > capacity_;
    }

    /** True when a further insert would exceed capacity. */
    bool full() const { return capacity_ != 0 && size() >= capacity_; }

    /** Inserts possible before the cache is full (max() = unbounded). */
    std::uint64_t
    freeBlocks() const
    {
        if (capacity_ == 0)
            return ~std::uint64_t{0};
        return size() >= capacity_ ? 0 : capacity_ - size();
    }

    /** True when the block is resident. */
    bool contains(const BlockId &id) const;

    /** Metadata of a resident block; nullptr if absent. No LRU touch. */
    const CacheBlock *peek(const BlockId &id) const;

    /**
     * Insert a clean block.  Requires !full() and !contains(id);
     * callers must evict first.
     */
    CacheBlock &insert(const BlockId &id, TimeUs now);

    /** Record an access (moves toward MRU, notifies the policy). */
    void touch(const BlockId &id, TimeUs now);

    /**
     * Mark bytes [begin, end) of the block dirty (offsets relative to
     * the block).  Also counts as an access.
     */
    void markDirty(const BlockId &id, Bytes begin, Bytes end, TimeUs now);

    /** Clear the dirty state (data was written back). */
    void markClean(const BlockId &id);

    /**
     * Drop dirty state for bytes [begin, end) of the block (e.g. a
     * truncation boundary).  Returns the dirty bytes removed; the
     * block becomes clean if nothing dirty remains.
     */
    Bytes trimDirty(const BlockId &id, Bytes begin, Bytes end);

    /**
     * Remove a block and return its final metadata (so the caller can
     * inspect dirtiness).  Panics if absent.
     */
    CacheBlock remove(const BlockId &id);

    /** Ask the policy for a victim; nullopt when empty. */
    std::optional<BlockId> chooseVictim(TimeUs now);

    /** Least-recently-accessed resident block; nullopt when empty. */
    std::optional<BlockId> lruBlock() const;

    /**
     * Least-recently-accessed *clean* resident block; nullopt when
     * every resident block is dirty (or the cache is empty).  Used by
     * the dirty-preference ablation of Sprite's real policy.
     *
     * O(1) after the first call: the first call switches the cache
     * into clean-ordering maintenance (the clean list, updated on
     * every dirty-state transition) so callers that never ask pay
     * nothing.
     */
    std::optional<BlockId> lruCleanBlock();

    /**
     * Insert a clean block *ordered by access time* instead of at the
     * MRU end — used when the unified model demotes a block from the
     * NVRAM so the volatile cache keeps true LRU semantics.
     */
    CacheBlock &insertOrdered(const BlockId &id, TimeUs access_time);

    /** Last-access time of the LRU block (kNoTime when empty). */
    TimeUs lruAccessTime() const;

    // ------------------------------------------------------------------
    // Range operations (the file server's write path).  Each resolves
    // a (file, first..last) block span through the per-file extent
    // index: one file probe + binary search instead of one lookup per
    // block.  Semantically each is exactly the per-block loop over
    // the same blocks in ascending order.
    // ------------------------------------------------------------------

    /**
     * Residency of `block` of `file` and the end (one past, clamped
     * to last + 1) of the run of blocks in the same state.
     */
    ExtentIndex::Run
    probeRange(FileId file, std::uint32_t block, std::uint32_t last) const
    {
        return extents_.probeRun(file, block, last);
    }

    /**
     * Insert clean blocks [first, last] of `file`.  Requires none
     * resident and freeBlocks() >= the run length: callers must evict
     * first, as with insert().
     */
    void insertRange(FileId file, std::uint32_t first,
                     std::uint32_t last, TimeUs now);

    /**
     * markDirty() bytes [offset, offset+length) of `file`; every
     * covered block must be resident.  Returns the previously-dirty
     * bytes the range overlapped (the absorbed-overwrite count the
     * callers would otherwise gather with one IntervalSet query per
     * block — interior full blocks are answered in O(1) from the
     * block's dirty-byte total).
     */
    Bytes markDirtyRange(FileId file, Bytes offset, Bytes length,
                         TimeUs now);

    /**
     * Remove every resident block of `file` in ascending block order,
     * invoking fn on each block's final metadata first.  Exactly
     * remove() over blocksOfFile(), but with one extent-index erase
     * for the whole file instead of a snapshot vector plus an extent
     * search per block.  The callback must not mutate this cache.
     */
    template <typename Fn>
    void
    removeFileBlocks(FileId file, Fn &&fn)
    {
        extents_.forEachOfFile(
            file, [&](std::uint32_t, std::uint32_t slot) {
                Entry &entry = arena_[slot];
                const CacheBlock &block = entry.block;
                fn(block);
                if (block.isDirty()) {
                    dirtyBytes_ -= block.dirtyBytes();
                    --dirtyBlocks_;
                    listRemove(dirtyOrder_, &Entry::dirty, slot);
                } else if (cleanTracking_) {
                    listRemove(cleanLru_, &Entry::clean, slot);
                }
                listRemove(lru_, &Entry::lru, slot);
                if (policy_)
                    policy_->onRemove(block.id);
                freeEntry(slot);
                --size_;
            });
        extents_.removeFile(file);
    }

    /** removeFileBlocks() when nothing inspects the dropped blocks. */
    void
    removeFileBlocks(FileId file)
    {
        removeFileBlocks(file, [](const CacheBlock &) {});
    }

    /**
     * Remove every dirty block whose dirtySince <= cutoff, oldest
     * first, invoking fn on each block's final metadata first.
     * Exactly remove() over dirtyOlderThan(cutoff), but each block is
     * unlinked through the slot the dirty-list walk already holds
     * instead of a snapshot vector plus a lookup per block.  The
     * callback must not mutate this cache.
     */
    template <typename Fn>
    void
    removeDirtyOlderThan(TimeUs cutoff, Fn &&fn)
    {
        while (dirtyOrder_.head != kNil &&
               arena_[dirtyOrder_.head].block.dirtySince <= cutoff) {
            const std::uint32_t slot = dirtyOrder_.head;
            const CacheBlock &block = arena_[slot].block;
            fn(block);
            dirtyBytes_ -= block.dirtyBytes();
            --dirtyBlocks_;
            listRemove(dirtyOrder_, &Entry::dirty, slot);
            listRemove(lru_, &Entry::lru, slot);
            extents_.remove(block.id.file, block.id.index);
            if (policy_)
                policy_->onRemove(block.id);
            freeEntry(slot);
            --size_;
        }
    }

    /** All resident blocks of a file, ascending block index. */
    std::vector<BlockId> blocksOfFile(FileId file) const;

    /** All resident dirty blocks of a file, ascending block index. */
    std::vector<BlockId> dirtyBlocksOfFile(FileId file) const;

    /** Every resident dirty block, in order of becoming dirty. */
    std::vector<BlockId> allDirtyBlocks() const;

    /**
     * Dirty blocks whose dirtySince <= cutoff, oldest first.  O(k) in
     * the result size — the 30-second block cleaner's fast path.
     */
    std::vector<BlockId> dirtyOlderThan(TimeUs cutoff) const;

    /** Every resident block, ordered by (file, index). */
    std::vector<BlockId> allBlocks() const;

    /** Resident blocks from LRU to MRU (tests, invariants). */
    std::vector<BlockId> lruOrder() const;

    /** Total dirty bytes across resident blocks. */
    Bytes dirtyBytes() const { return dirtyBytes_; }

    /** Count of resident dirty blocks. */
    std::uint64_t dirtyBlockCount() const { return dirtyBlocks_; }

    /**
     * Full structural audit (nvfs::check): extent entry ↔ arena slot
     * ↔ LRU population, intrusive-list link soundness (LRU, dirty
     * order, clean subsequence, freelist), per-block dirty-state
     * sanity, and the incremental dirty-byte/dirty-block counters
     * against a ground-truth rescan.  O(n log n) in resident blocks —
     * a diagnostic sweep, not a hot path.  Throws util::AuditError.
     */
    void auditInvariants() const;

  private:
    /** Test-only peer that corrupts internals to prove audits fire. */
    friend class AuditTestPeer;

    /** Arena-index sentinel: "no entry" / list end. */
    static constexpr std::uint32_t kNil = ExtentIndex::kNoSlot;

    /** Intrusive (prev, next) link pair of one list membership. */
    struct Link
    {
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };

    /** One arena slot: the block plus its list memberships. */
    struct Entry
    {
        CacheBlock block;
        Link lru;   ///< global recency order (front = LRU)
        Link dirty; ///< dirty blocks in order of becoming dirty
        Link clean; ///< clean subsequence of lru (when tracking)
        /** Freelist chain when the slot is vacant. */
        std::uint32_t nextFree = kNil;
    };

    /** Head/tail of one intrusive list. */
    struct ListHead
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    std::uint32_t slotOf(const BlockId &id, const char *what) const;

    /** Allocate an arena slot (reusing freed ones first). */
    std::uint32_t allocEntry();

    /** Return a slot to the freelist. */
    void freeEntry(std::uint32_t idx);

    void listPushBack(ListHead &list, Link Entry::*link,
                      std::uint32_t idx);
    void listRemove(ListHead &list, Link Entry::*link, std::uint32_t idx);
    /** Insert `idx` before `before` (kNil = push_back). */
    void listInsertBefore(ListHead &list, Link Entry::*link,
                          std::uint32_t idx, std::uint32_t before);
    /** Move an already-linked entry to the back (MRU end). */
    void listMoveToBack(ListHead &list, Link Entry::*link,
                        std::uint32_t idx);

    /** touch() body for a known arena slot. */
    void touchSlot(std::uint32_t idx, TimeUs now);

    /** markDirty() body for a known arena slot; returns absorbed. */
    Bytes markDirtySlot(std::uint32_t idx, Bytes begin, Bytes end,
                        TimeUs now);

    /** Shared tail of insert()/insertOrdered(). */
    CacheBlock &finishInsert(const BlockId &id, std::uint32_t idx);

    /** Start maintaining the clean list; builds it from the LRU. */
    void enableCleanTracking();

    /** Link a (now clean) entry into the clean list at its LRU spot. */
    void linkClean(std::uint32_t idx);

    std::uint64_t capacity_;
    /** Victim choice; none = the head of lru_. */
    std::unique_ptr<ReplacementPolicy> policy_;
    /** Resident blocks. */
    std::uint64_t size_ = 0;
    /** Contiguous block arena; vacant slots chain through nextFree. */
    std::vector<Entry> arena_;
    std::uint32_t freeHead_ = kNil;
    ListHead lru_;
    /** dirtySince is monotone along the dirty list because it is only
     *  set on the clean->dirty transition. */
    ListHead dirtyOrder_;
    /** Clean blocks as a subsequence of lru_ (front = least recently
     *  used clean block).  Unmaintained until the first
     *  lruCleanBlock() call flips cleanTracking_. */
    ListHead cleanLru_;
    bool cleanTracking_ = false;
    /** Arena slot of the last insertOrdered insert (kNil if none or
     *  freed since).  Ordered inserts arrive in nearly-sorted streams
     *  (NVRAM demotions come off the victim cache's LRU head), so
     *  resuming the boundary walk here is amortized O(1); any resident
     *  slot is a correct start because the list is globally sorted. */
    std::uint32_t orderedHint_ = kNil;
    /** Per-file sorted (block, slot) runs: the block -> slot map. */
    ExtentIndex extents_;
    Bytes dirtyBytes_ = 0;
    std::uint64_t dirtyBlocks_ = 0;
    /** Scratch for insertRange (avoids per-call allocation). */
    std::vector<std::uint32_t> slotScratch_;
};

} // namespace nvfs::cache

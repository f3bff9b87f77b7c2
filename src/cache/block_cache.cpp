#include "cache/block_cache.hpp"

#include <algorithm>
#include <string>

#include "util/audit.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace nvfs::cache {

BlockCache::BlockCache(std::uint64_t capacity_blocks,
                       std::unique_ptr<ReplacementPolicy> policy)
    : capacity_(capacity_blocks), policy_(std::move(policy))
{
    if (capacity_ != 0 && capacity_ < (1u << 20)) {
        // Bounded caches are hot (one per simulated client): size the
        // arena up front so the steady state never reallocates.
        arena_.reserve(capacity_);
    }
}

BlockCache::BlockCache(const BlockCache &other)
    : capacity_(other.capacity_), size_(other.size_),
      arena_(other.arena_), freeHead_(other.freeHead_),
      lru_(other.lru_), dirtyOrder_(other.dirtyOrder_),
      cleanLru_(other.cleanLru_), cleanTracking_(other.cleanTracking_),
      orderedHint_(other.orderedHint_), extents_(other.extents_),
      dirtyBytes_(other.dirtyBytes_), dirtyBlocks_(other.dirtyBlocks_)
{
    NVFS_REQUIRE(other.policy_ == nullptr,
                 "only a policy-free block cache can be copied");
}

bool
BlockCache::contains(const BlockId &id) const
{
    return extents_.find(id.file, id.index) != kNil;
}

const CacheBlock *
BlockCache::peek(const BlockId &id) const
{
    const std::uint32_t idx = extents_.find(id.file, id.index);
    return idx == kNil ? nullptr : &arena_[idx].block;
}

std::uint32_t
BlockCache::slotOf(const BlockId &id, const char *what) const
{
    const std::uint32_t idx = extents_.find(id.file, id.index);
    if (idx == kNil) {
        util::panic(util::format("%s: block file=%u idx=%u not resident",
                                 what, static_cast<unsigned>(id.file),
                                 id.index));
    }
    return idx;
}

std::uint32_t
BlockCache::allocEntry()
{
    if (freeHead_ != kNil) {
        const std::uint32_t idx = freeHead_;
        freeHead_ = arena_[idx].nextFree;
        // freeEntry already reset the slot; only the freelist link is
        // stale, and that is meaningless while the slot is live.
        return idx;
    }
    NVFS_REQUIRE(arena_.size() < kNil, "block cache arena exhausted");
    arena_.emplace_back();
    return static_cast<std::uint32_t>(arena_.size() - 1);
}

void
BlockCache::freeEntry(std::uint32_t idx)
{
    // Every removal path resets the entry's list links through
    // listRemove, and every insert path sets id and lastAccess, so
    // only the dirty state needs clearing here.  dirty.clear() returns
    // the run set to its inline form, so a vacant slot holds no heap
    // memory.
    Entry &entry = arena_[idx];
    entry.block.dirty.clear();
    entry.block.lastModify = kNoTime;
    entry.block.dirtySince = kNoTime;
    entry.nextFree = freeHead_;
    freeHead_ = idx;
    if (orderedHint_ == idx)
        orderedHint_ = kNil;
}

void
BlockCache::listPushBack(ListHead &list, Link Entry::*link,
                         std::uint32_t idx)
{
    Link &mine = arena_[idx].*link;
    mine.prev = list.tail;
    mine.next = kNil;
    if (list.tail != kNil)
        (arena_[list.tail].*link).next = idx;
    else
        list.head = idx;
    list.tail = idx;
}

void
BlockCache::listRemove(ListHead &list, Link Entry::*link,
                       std::uint32_t idx)
{
    Link &mine = arena_[idx].*link;
    if (mine.prev != kNil)
        (arena_[mine.prev].*link).next = mine.next;
    else
        list.head = mine.next;
    if (mine.next != kNil)
        (arena_[mine.next].*link).prev = mine.prev;
    else
        list.tail = mine.prev;
    mine = Link{};
}

void
BlockCache::listInsertBefore(ListHead &list, Link Entry::*link,
                             std::uint32_t idx, std::uint32_t before)
{
    if (before == kNil) {
        listPushBack(list, link, idx);
        return;
    }
    Link &mine = arena_[idx].*link;
    Link &other = arena_[before].*link;
    mine.next = before;
    mine.prev = other.prev;
    if (other.prev != kNil)
        (arena_[other.prev].*link).next = idx;
    else
        list.head = idx;
    other.prev = idx;
}

void
BlockCache::listMoveToBack(ListHead &list, Link Entry::*link,
                           std::uint32_t idx)
{
    if (list.tail == idx)
        return;
    listRemove(list, link, idx);
    listPushBack(list, link, idx);
}

CacheBlock &
BlockCache::finishInsert(const BlockId &id, std::uint32_t idx)
{
    // The extent index panics on a block already resident.
    extents_.insert(id.file, id.index, idx);
    ++size_;
    if (policy_)
        policy_->onInsert(id, arena_[idx].block.lastAccess);
    return arena_[idx].block;
}

CacheBlock &
BlockCache::insert(const BlockId &id, TimeUs now)
{
    NVFS_REQUIRE(!full(), "insert into full cache (evict first)");
    const std::uint32_t idx = allocEntry();
    Entry &entry = arena_[idx];
    entry.block.id = id;
    entry.block.lastAccess = now;
    listPushBack(lru_, &Entry::lru, idx);
    if (cleanTracking_)
        listPushBack(cleanLru_, &Entry::clean, idx);
    return finishInsert(id, idx);
}

void
BlockCache::touchSlot(std::uint32_t idx, TimeUs now)
{
    Entry &entry = arena_[idx];
    entry.block.lastAccess = now;
    listMoveToBack(lru_, &Entry::lru, idx);
    if (cleanTracking_ && !entry.block.isDirty())
        listMoveToBack(cleanLru_, &Entry::clean, idx);
    if (policy_)
        policy_->onAccess(entry.block.id, now);
}

void
BlockCache::touch(const BlockId &id, TimeUs now)
{
    touchSlot(slotOf(id, "touch"), now);
}

Bytes
BlockCache::markDirtySlot(std::uint32_t idx, Bytes begin, Bytes end,
                          TimeUs now)
{
    NVFS_REQUIRE(end <= kBlockSize && begin < end,
                 "dirty range outside block");
    Entry &entry = arena_[idx];
    CacheBlock &block = entry.block;
    const Bytes before = block.dirtyBytes();
    const bool was_dirty = block.isDirty();
    Bytes absorbed;
    if (begin == 0 && end == kBlockSize) {
        // Whole-block write: everything previously dirty is absorbed
        // and the run set collapses to one run — O(1), no range query.
        absorbed = before;
        block.dirty.clear();
        block.dirty.insert(0, kBlockSize);
    } else {
        absorbed = block.dirty.overlapBytes(begin, end);
        block.dirty.insert(begin, end);
    }
    dirtyBytes_ += block.dirtyBytes() - before;
    if (!was_dirty) {
        block.dirtySince = now;
        ++dirtyBlocks_;
        listPushBack(dirtyOrder_, &Entry::dirty, idx);
        if (cleanTracking_)
            listRemove(cleanLru_, &Entry::clean, idx);
    }
    block.lastModify = now;
    block.lastAccess = now;
    listMoveToBack(lru_, &Entry::lru, idx);
    if (policy_)
        policy_->onAccess(block.id, now);
    return absorbed;
}

void
BlockCache::markDirty(const BlockId &id, Bytes begin, Bytes end,
                      TimeUs now)
{
    markDirtySlot(slotOf(id, "markDirty"), begin, end, now);
}

void
BlockCache::markClean(const BlockId &id)
{
    const std::uint32_t idx = slotOf(id, "markClean");
    CacheBlock &block = arena_[idx].block;
    if (block.isDirty()) {
        dirtyBytes_ -= block.dirtyBytes();
        --dirtyBlocks_;
        listRemove(dirtyOrder_, &Entry::dirty, idx);
        block.dirty.clear();
        block.dirtySince = kNoTime;
        if (cleanTracking_)
            linkClean(idx);
        return;
    }
    block.dirty.clear();
    block.dirtySince = kNoTime;
}

Bytes
BlockCache::trimDirty(const BlockId &id, Bytes begin, Bytes end)
{
    const std::uint32_t idx = slotOf(id, "trimDirty");
    CacheBlock &block = arena_[idx].block;
    if (!block.isDirty())
        return 0;
    const Bytes before = block.dirtyBytes();
    block.dirty.erase(begin, end);
    const Bytes removed = before - block.dirtyBytes();
    dirtyBytes_ -= removed;
    if (block.dirty.empty()) {
        block.dirtySince = kNoTime;
        --dirtyBlocks_;
        listRemove(dirtyOrder_, &Entry::dirty, idx);
        if (cleanTracking_)
            linkClean(idx);
    }
    return removed;
}

CacheBlock
BlockCache::remove(const BlockId &id)
{
    const std::uint32_t idx = slotOf(id, "remove");
    Entry &entry = arena_[idx];
    CacheBlock out = std::move(entry.block);
    if (out.isDirty()) {
        dirtyBytes_ -= out.dirtyBytes();
        --dirtyBlocks_;
        listRemove(dirtyOrder_, &Entry::dirty, idx);
    } else if (cleanTracking_) {
        listRemove(cleanLru_, &Entry::clean, idx);
    }
    listRemove(lru_, &Entry::lru, idx);
    extents_.remove(id.file, id.index);
    freeEntry(idx);
    --size_;
    if (policy_)
        policy_->onRemove(id);
    return out;
}

std::optional<BlockId>
BlockCache::chooseVictim(TimeUs now)
{
    if (policy_)
        return policy_->chooseVictim(now);
    return lruBlock();
}

void
BlockCache::enableCleanTracking()
{
    cleanTracking_ = true;
    cleanLru_ = ListHead{};
    for (std::uint32_t idx = lru_.head; idx != kNil;
         idx = arena_[idx].lru.next) {
        if (!arena_[idx].block.isDirty())
            listPushBack(cleanLru_, &Entry::clean, idx);
    }
}

void
BlockCache::linkClean(std::uint32_t idx)
{
    // Insert before the next clean block in LRU order so the clean
    // list stays exactly the clean subsequence of the LRU.  The walk
    // is bounded by the run of dirty blocks following this one;
    // cleaned blocks are usually near other clean ones, so it is
    // short.
    for (std::uint32_t next = arena_[idx].lru.next; next != kNil;
         next = arena_[next].lru.next) {
        if (!arena_[next].block.isDirty()) {
            listInsertBefore(cleanLru_, &Entry::clean, idx, next);
            return;
        }
    }
    listPushBack(cleanLru_, &Entry::clean, idx);
}

std::optional<BlockId>
BlockCache::lruCleanBlock()
{
    if (!cleanTracking_)
        enableCleanTracking();
    if (cleanLru_.head == kNil)
        return std::nullopt;
    return arena_[cleanLru_.head].block.id;
}

CacheBlock &
BlockCache::insertOrdered(const BlockId &id, TimeUs access_time)
{
    NVFS_REQUIRE(!full(), "insertOrdered into full cache");
    const std::uint32_t idx = allocEntry();
    Entry &entry = arena_[idx];
    entry.block.id = id;
    entry.block.lastAccess = access_time;

    // Find the position that keeps lastAccess ascending.  Walk from
    // whichever end is closer: demoted blocks from a small NVRAM are
    // usually young (near the MRU end), while genuinely old blocks
    // sit near the front.
    auto last_access = [this](std::uint32_t at) -> TimeUs {
        return arena_[at].block.lastAccess;
    };
    std::uint32_t before = kNil; // kNil = MRU end
    if (lru_.tail == kNil ||
        access_time >= last_access(lru_.tail)) {
        // Empty list or younger than everything: plain MRU insert.
    } else if (access_time <= last_access(lru_.head)) {
        before = lru_.head;
    } else if (orderedHint_ != kNil) {
        // The list is ascending in lastAccess, so the insert position
        // is the unique boundary between the <= prefix and the >
        // suffix.  NVRAM demotions arrive in ascending age order (the
        // victims come off the NVRAM's LRU head), so the boundary for
        // one insert sits at or just past the previous one: resume the
        // walk from the last ordered insert instead of an end of the
        // list.  Any resident entry is a correct starting point; the
        // hint is cleared whenever its slot is freed.
        std::uint32_t pos = orderedHint_;
        if (last_access(pos) <= access_time) {
            std::uint32_t next = arena_[pos].lru.next;
            while (next != kNil && last_access(next) <= access_time)
                next = arena_[next].lru.next;
            before = next;
        } else {
            before = pos;
            std::uint32_t prev = arena_[pos].lru.prev;
            while (prev != kNil && last_access(prev) > access_time) {
                before = prev;
                prev = arena_[before].lru.prev;
            }
        }
    } else {
        // No hint yet: walk towards the boundary from both ends at
        // once.  The guards above ensure head < access_time < tail, so
        // the boundary is strictly interior and both walks stay in
        // range.
        std::uint32_t front = lru_.head; // known <= access_time
        std::uint32_t back = lru_.tail;  // known  > access_time
        for (;;) {
            const std::uint32_t next = arena_[front].lru.next;
            if (last_access(next) > access_time) {
                before = next;
                break;
            }
            front = next;
            const std::uint32_t prev = arena_[back].lru.prev;
            if (last_access(prev) <= access_time) {
                before = back;
                break;
            }
            back = prev;
        }
    }
    listInsertBefore(lru_, &Entry::lru, idx, before);
    orderedHint_ = idx;
    if (cleanTracking_)
        linkClean(idx);
    return finishInsert(id, idx);
}

std::optional<BlockId>
BlockCache::lruBlock() const
{
    if (lru_.head == kNil)
        return std::nullopt;
    return arena_[lru_.head].block.id;
}

TimeUs
BlockCache::lruAccessTime() const
{
    if (lru_.head == kNil)
        return kNoTime;
    return arena_[lru_.head].block.lastAccess;
}

void
BlockCache::insertRange(FileId file, std::uint32_t first,
                        std::uint32_t last, TimeUs now)
{
    const std::uint32_t count = last - first + 1;
    NVFS_REQUIRE(freeBlocks() >= count,
                 "insertRange into full cache (evict first)");
    slotScratch_.clear();
    for (std::uint32_t i = 0; i < count; ++i) {
        const BlockId id{file, first + i};
        const std::uint32_t idx = allocEntry();
        Entry &entry = arena_[idx];
        entry.block.id = id;
        entry.block.lastAccess = now;
        listPushBack(lru_, &Entry::lru, idx);
        if (cleanTracking_)
            listPushBack(cleanLru_, &Entry::clean, idx);
        slotScratch_.push_back(idx);
        if (policy_)
            policy_->onInsert(id, now);
    }
    // One splice into the per-file runs for the whole span; it panics
    // on a run overlapping resident blocks.
    extents_.insertRun(file, first, slotScratch_.data(), count);
    size_ += count;
}

Bytes
BlockCache::markDirtyRange(FileId file, Bytes offset, Bytes length,
                           TimeUs now)
{
    if (length == 0)
        return 0;
    const Bytes end = offset + length;
    const auto first = static_cast<std::uint32_t>(offset / kBlockSize);
    const auto last =
        static_cast<std::uint32_t>((end - 1) / kBlockSize);
    Bytes absorbed = 0;
    std::uint32_t seen = 0;
    extents_.forEachInRange(
        file, first, last, [&](std::uint32_t block, std::uint32_t slot) {
            const Bytes block_start = Bytes{block} * kBlockSize;
            const Bytes in_begin =
                offset > block_start ? offset - block_start : 0;
            const Bytes in_end =
                std::min<Bytes>(kBlockSize, end - block_start);
            absorbed += markDirtySlot(slot, in_begin, in_end, now);
            ++seen;
        });
    NVFS_REQUIRE(seen == last - first + 1,
                 "markDirtyRange over non-resident blocks");
    return absorbed;
}

std::vector<BlockId>
BlockCache::blocksOfFile(FileId file) const
{
    std::vector<BlockId> out;
    extents_.forEachOfFile(file,
                           [&](std::uint32_t block, std::uint32_t) {
                               out.push_back(BlockId{file, block});
                           });
    return out;
}

std::vector<BlockId>
BlockCache::dirtyBlocksOfFile(FileId file) const
{
    std::vector<BlockId> out;
    extents_.forEachOfFile(
        file, [&](std::uint32_t block, std::uint32_t slot) {
            if (arena_[slot].block.isDirty())
                out.push_back(BlockId{file, block});
        });
    return out;
}

std::vector<BlockId>
BlockCache::allDirtyBlocks() const
{
    std::vector<BlockId> out;
    out.reserve(dirtyBlocks_);
    for (std::uint32_t idx = dirtyOrder_.head; idx != kNil;
         idx = arena_[idx].dirty.next) {
        out.push_back(arena_[idx].block.id);
    }
    return out;
}

std::vector<BlockId>
BlockCache::dirtyOlderThan(TimeUs cutoff) const
{
    std::vector<BlockId> out;
    for (std::uint32_t idx = dirtyOrder_.head; idx != kNil;
         idx = arena_[idx].dirty.next) {
        if (arena_[idx].block.dirtySince > cutoff)
            break; // dirtySince ascends along the list
        out.push_back(arena_[idx].block.id);
    }
    return out;
}

std::vector<BlockId>
BlockCache::allBlocks() const
{
    std::vector<BlockId> out;
    out.reserve(size_);
    extents_.forEach([&](FileId file, std::uint32_t block, std::uint32_t) {
        out.push_back(BlockId{file, block});
    });
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<BlockId>
BlockCache::lruOrder() const
{
    std::vector<BlockId> out;
    out.reserve(size_);
    for (std::uint32_t idx = lru_.head; idx != kNil;
         idx = arena_[idx].lru.next) {
        out.push_back(arena_[idx].block.id);
    }
    return out;
}

void
BlockCache::auditInvariants() const
{
    // Extent entry ↔ arena slot: every entry names its own slot, which
    // holds the block the entry names; the LRU and free-list walks
    // below then check that the named slots are exactly the resident
    // population.
    std::vector<char> live = extents_.auditInvariants(
        arena_.size(), "BlockCache",
        [&](std::uint32_t slot, FileId file, std::uint32_t block) {
            return arena_[slot].block.id == BlockId{file, block};
        });
    const auto named = static_cast<std::uint64_t>(
        std::count(live.begin(), live.end(), 1));
    NVFS_AUDIT_CHECK(named == size_, "BlockCache",
                     "resident-block counter diverged from the extent "
                     "index");

    // Per-block dirty state, with a ground-truth recount of the
    // incremental byte/block counters.
    Bytes dirty_bytes = 0;
    std::uint64_t dirty_blocks = 0;
    for (std::uint32_t slot = 0; slot < arena_.size(); ++slot) {
        if (live[slot] == 0)
            continue;
        const CacheBlock &block = arena_[slot].block;
        block.dirty.auditInvariants();
        if (block.isDirty()) {
            NVFS_AUDIT_CHECK(block.dirty.runs().back().end <= kBlockSize,
                             "BlockCache",
                             "dirty range extends past the block");
            NVFS_AUDIT_CHECK(block.dirtySince != kNoTime, "BlockCache",
                             "dirty block without a dirtySince stamp");
            dirty_bytes += block.dirtyBytes();
            ++dirty_blocks;
        } else {
            NVFS_AUDIT_CHECK(block.dirtySince == kNoTime, "BlockCache",
                             "clean block kept a dirtySince stamp");
        }
    }
    NVFS_AUDIT_CHECK(dirty_bytes == dirtyBytes_, "BlockCache",
                     "incremental dirty-byte counter diverged");
    NVFS_AUDIT_CHECK(dirty_blocks == dirtyBlocks_, "BlockCache",
                     "incremental dirty-block counter diverged");

    // Intrusive lists: every node live, back-links mirroring forward
    // links, tail matching the last node, no cycles.
    const auto walkList = [&](const ListHead &list, Link Entry::*link,
                              const char *name, auto &&visit) {
        std::uint32_t prev = kNil;
        std::size_t steps = 0;
        for (std::uint32_t idx = list.head; idx != kNil;
             idx = (arena_[idx].*link).next) {
            NVFS_AUDIT_CHECK(idx < arena_.size() && live[idx] != 0,
                             "BlockCache",
                             std::string(name) +
                                 " list visits a vacant slot");
            NVFS_AUDIT_CHECK((arena_[idx].*link).prev == prev,
                             "BlockCache",
                             std::string(name) + " back-link broken");
            NVFS_AUDIT_CHECK(++steps <= arena_.size(), "BlockCache",
                             std::string(name) + " list has a cycle");
            visit(idx);
            prev = idx;
        }
        NVFS_AUDIT_CHECK(list.tail == prev, "BlockCache",
                         std::string(name) + " tail pointer stale");
        return steps;
    };

    const std::size_t lru_count =
        walkList(lru_, &Entry::lru, "lru", [](std::uint32_t) {});
    NVFS_AUDIT_CHECK(lru_count == size_, "BlockCache",
                     "LRU list does not cover the resident blocks");

    TimeUs prev_since = 0;
    const std::size_t dirty_count = walkList(
        dirtyOrder_, &Entry::dirty, "dirty", [&](std::uint32_t idx) {
            const CacheBlock &block = arena_[idx].block;
            NVFS_AUDIT_CHECK(block.isDirty(), "BlockCache",
                             "clean block on the dirty list");
            NVFS_AUDIT_CHECK(block.dirtySince >= prev_since,
                             "BlockCache",
                             "dirty list not ordered by dirtySince");
            prev_since = block.dirtySince;
        });
    NVFS_AUDIT_CHECK(dirty_count == dirtyBlocks_, "BlockCache",
                     "dirty list does not cover the dirty blocks");

    if (cleanTracking_) {
        // The clean list must be exactly the clean subsequence of the
        // LRU, in the same order.
        std::vector<std::uint32_t> expect;
        for (std::uint32_t idx = lru_.head; idx != kNil;
             idx = arena_[idx].lru.next) {
            if (!arena_[idx].block.isDirty())
                expect.push_back(idx);
        }
        std::vector<std::uint32_t> actual;
        walkList(cleanLru_, &Entry::clean, "clean",
                 [&](std::uint32_t idx) { actual.push_back(idx); });
        NVFS_AUDIT_CHECK(actual == expect, "BlockCache",
                         "clean list is not the clean subsequence of "
                         "the LRU order");
    }

    // Freelist: vacant slots only, each once, and together with the
    // live slots accounting for the whole arena.
    std::size_t free_count = 0;
    for (std::uint32_t idx = freeHead_; idx != kNil;
         idx = arena_[idx].nextFree) {
        NVFS_AUDIT_CHECK(idx < arena_.size(), "BlockCache",
                         "freelist points outside the arena");
        NVFS_AUDIT_CHECK(live[idx] != 2, "BlockCache",
                         "freelist visits a slot twice (cycle)");
        NVFS_AUDIT_CHECK(live[idx] == 0, "BlockCache",
                         "freelist holds a resident slot");
        live[idx] = 2;
        ++free_count;
    }
    NVFS_AUDIT_CHECK(size_ + free_count == arena_.size(),
                     "BlockCache",
                     "arena slots leaked (neither resident nor free)");

    NVFS_AUDIT_CHECK(orderedHint_ == kNil ||
                         (orderedHint_ < arena_.size() &&
                          live[orderedHint_] == 1),
                     "BlockCache",
                     "ordered-insert hint points at a vacant slot");
}

} // namespace nvfs::cache

/**
 * @file
 * Unit tests for the block-cache substrate: resident-set management,
 * dirty tracking, the LRU ordering, and all four replacement policies.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "cache/block_cache.hpp"
#include "cache/policy.hpp"
#include "util/rng.hpp"

namespace nvfs::cache {
namespace {

BlockId
id(FileId file, std::uint32_t index = 0)
{
    return {file, index};
}

TEST(BlockCache, InsertContainsRemove)
{
    BlockCache cache(4);
    EXPECT_FALSE(cache.contains(id(1)));
    cache.insert(id(1), 10);
    EXPECT_TRUE(cache.contains(id(1)));
    EXPECT_EQ(cache.size(), 1u);
    const CacheBlock block = cache.remove(id(1));
    EXPECT_EQ(block.id, id(1));
    EXPECT_FALSE(cache.contains(id(1)));
}

TEST(BlockCache, FullAndCapacity)
{
    BlockCache cache(2);
    cache.insert(id(1), 1);
    EXPECT_FALSE(cache.full());
    cache.insert(id(2), 2);
    EXPECT_TRUE(cache.full());
    EXPECT_EQ(cache.capacityBlocks(), 2u);
}

TEST(BlockCache, UnboundedNeverFull)
{
    BlockCache cache(0);
    for (std::uint32_t i = 0; i < 100; ++i)
        cache.insert(id(i), i);
    EXPECT_FALSE(cache.full());
    EXPECT_EQ(cache.size(), 100u);
}

TEST(BlockCache, LruOrderFollowsTouches)
{
    BlockCache cache(3);
    cache.insert(id(1), 1);
    cache.insert(id(2), 2);
    cache.insert(id(3), 3);
    EXPECT_EQ(*cache.lruBlock(), id(1));
    cache.touch(id(1), 4);
    EXPECT_EQ(*cache.lruBlock(), id(2));
    EXPECT_EQ(cache.lruAccessTime(), 2);
}

TEST(BlockCache, DirtyAccounting)
{
    BlockCache cache(4);
    cache.insert(id(1), 1);
    cache.markDirty(id(1), 0, 100, 5);
    EXPECT_EQ(cache.dirtyBytes(), 100u);
    EXPECT_EQ(cache.dirtyBlockCount(), 1u);
    cache.markDirty(id(1), 50, 200, 6); // overlaps: 200 total
    EXPECT_EQ(cache.dirtyBytes(), 200u);
    EXPECT_EQ(cache.peek(id(1))->dirtySince, 5);
    cache.markClean(id(1));
    EXPECT_EQ(cache.dirtyBytes(), 0u);
    EXPECT_EQ(cache.dirtyBlockCount(), 0u);
    EXPECT_FALSE(cache.peek(id(1))->isDirty());
}

TEST(BlockCache, TrimDirtyPartialAndFull)
{
    BlockCache cache(4);
    cache.insert(id(1), 1);
    cache.markDirty(id(1), 0, 1000, 2);
    EXPECT_EQ(cache.trimDirty(id(1), 500, 1000), 500u);
    EXPECT_EQ(cache.dirtyBytes(), 500u);
    EXPECT_TRUE(cache.peek(id(1))->isDirty());
    EXPECT_EQ(cache.trimDirty(id(1), 0, 500), 500u);
    EXPECT_FALSE(cache.peek(id(1))->isDirty());
    EXPECT_EQ(cache.dirtyBlockCount(), 0u);
}

TEST(BlockCache, DirtyOlderThanWalksInOrder)
{
    BlockCache cache(8);
    for (std::uint32_t i = 0; i < 5; ++i) {
        cache.insert(id(i), i * 10);
        cache.markDirty(id(i), 0, 10, i * 10);
    }
    const auto old = cache.dirtyOlderThan(20);
    ASSERT_EQ(old.size(), 3u);
    EXPECT_EQ(old[0], id(0));
    EXPECT_EQ(old[2], id(2));
    EXPECT_EQ(cache.allDirtyBlocks().size(), 5u);
}

// The walk the server's sweep and drain use: exactly remove() over
// dirtyOlderThan(cutoff), with the boundary block (dirtySince ==
// cutoff) included, clean blocks and younger dirty ones left alone,
// and every counter and list sound afterwards.
TEST(BlockCache, RemoveDirtyOlderThanWalksDirtyOrder)
{
    BlockCache cache(0);
    for (std::uint32_t i = 0; i < 6; ++i)
        cache.insert(id(i), i);
    // Dirty order 3, 1, 5, 0 (dirtySince 10, 20, 30, 40); 2 and 4
    // stay clean.
    cache.markDirty(id(3), 0, 100, 10);
    cache.markDirty(id(1), 0, kBlockSize, 20);
    cache.markDirty(id(5), 5, 15, 30);
    cache.markDirty(id(0), 0, 1, 40);
    const Bytes dirty_before = cache.dirtyBytes();

    std::vector<BlockId> seen;
    Bytes removed_bytes = 0;
    cache.removeDirtyOlderThan(30, [&](const CacheBlock &block) {
        seen.push_back(block.id);
        removed_bytes += block.dirtyBytes();
    });
    EXPECT_EQ(seen, (std::vector<BlockId>{id(3), id(1), id(5)}));
    EXPECT_EQ(removed_bytes, 100 + kBlockSize + 10);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.dirtyBlockCount(), 1u);
    EXPECT_EQ(cache.dirtyBytes(), dirty_before - removed_bytes);
    EXPECT_EQ(cache.allDirtyBlocks(), (std::vector<BlockId>{id(0)}));
    EXPECT_EQ(cache.lruOrder(),
              (std::vector<BlockId>{id(2), id(4), id(0)}));
    EXPECT_FALSE(cache.contains(id(3)));
    EXPECT_TRUE(cache.contains(id(2)));
    ASSERT_NO_THROW(cache.auditInvariants());

    // Nothing at or below a cutoff older than every dirty block.
    cache.removeDirtyOlderThan(39, [&](const CacheBlock &) {
        ADD_FAILURE() << "removed a block dirtied after the cutoff";
    });
    // The freed slots are reused.
    cache.insert(id(7), 50);
    cache.markDirty(id(7), 0, 10, 50);
    cache.removeDirtyOlderThan(kTimeInfinity, [&](const CacheBlock &) {});
    EXPECT_EQ(cache.dirtyBlockCount(), 0u);
    EXPECT_EQ(cache.dirtyBytes(), 0u);
    EXPECT_EQ(cache.allBlocks(), (std::vector<BlockId>{id(2), id(4)}));
    ASSERT_NO_THROW(cache.auditInvariants());
}

// A copy holds the same blocks in the same slots and orders, so the
// same operations on both leave them identical: the crash explorer's
// forked dirty pools rely on it.
TEST(BlockCache, CopyGoesOnLikeTheOriginal)
{
    BlockCache original(0);
    util::Rng rng(7);
    const auto churn = [&rng](BlockCache &cache, TimeUs from) {
        for (TimeUs t = from; t < from + 200; ++t) {
            const BlockId bid{static_cast<FileId>(rng.uniformInt(1, 4)),
                              static_cast<std::uint32_t>(
                                  rng.uniformInt(0, 32))};
            if (!cache.contains(bid))
                cache.insert(bid, t);
            if (rng.uniformInt(0, 3) == 0)
                cache.remove(bid);
            else
                cache.markDirty(bid, 0, 100, t);
            if (t % 50 == 0)
                cache.removeDirtyOlderThan(t - 40,
                                           [](const CacheBlock &) {});
        }
    };
    churn(original, 0);
    BlockCache copy(original);
    ASSERT_NO_THROW(copy.auditInvariants());
    util::Rng fork_rng = rng;
    churn(original, 200);
    rng = fork_rng;
    churn(copy, 200);
    EXPECT_EQ(copy.lruOrder(), original.lruOrder());
    EXPECT_EQ(copy.allDirtyBlocks(), original.allDirtyBlocks());
    EXPECT_EQ(copy.dirtyBytes(), original.dirtyBytes());
    ASSERT_NO_THROW(copy.auditInvariants());
    ASSERT_NO_THROW(original.auditInvariants());
}

TEST(BlockCache, DirtyOrderSurvivesCleanAndRedirty)
{
    BlockCache cache(8);
    cache.insert(id(1), 1);
    cache.insert(id(2), 2);
    cache.markDirty(id(1), 0, 10, 10);
    cache.markDirty(id(2), 0, 10, 20);
    cache.markClean(id(1));
    cache.markDirty(id(1), 0, 10, 30); // re-dirty: moves to back
    const auto all = cache.allDirtyBlocks();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0], id(2));
    EXPECT_EQ(all[1], id(1));
}

TEST(BlockCache, BlocksOfFileAscending)
{
    BlockCache cache(8);
    cache.insert(id(7, 3), 1);
    cache.insert(id(7, 1), 2);
    cache.insert(id(8, 0), 3);
    const auto blocks = cache.blocksOfFile(7);
    ASSERT_EQ(blocks.size(), 2u);
    EXPECT_EQ(blocks[0].index, 1u);
    EXPECT_EQ(blocks[1].index, 3u);
    EXPECT_TRUE(cache.blocksOfFile(9).empty());
}

TEST(BlockCache, DirtyBlocksOfFile)
{
    BlockCache cache(8);
    cache.insert(id(7, 0), 1);
    cache.insert(id(7, 1), 1);
    cache.markDirty(id(7, 1), 0, 10, 2);
    const auto dirty = cache.dirtyBlocksOfFile(7);
    ASSERT_EQ(dirty.size(), 1u);
    EXPECT_EQ(dirty[0].index, 1u);
}

TEST(BlockCache, LruCleanBlockSkipsDirty)
{
    BlockCache cache(3);
    cache.insert(id(1), 1);
    cache.insert(id(2), 2);
    cache.markDirty(id(1), 0, 10, 3);
    EXPECT_EQ(*cache.lruCleanBlock(), id(2));
    cache.markDirty(id(2), 0, 10, 4);
    EXPECT_FALSE(cache.lruCleanBlock().has_value());
}

TEST(BlockCache, LruCleanBlockTracksTransitions)
{
    // Exercise the lazily-enabled clean-ordering maintenance across
    // every dirty-state transition after the first lruCleanBlock()
    // call flips tracking on.
    BlockCache cache(8);
    cache.insert(id(1), 1);
    cache.insert(id(2), 2);
    cache.insert(id(3), 3);
    EXPECT_EQ(*cache.lruCleanBlock(), id(1)); // enables tracking

    // markDirty is also an access: 1 leaves the clean list AND moves
    // to the MRU end of the overall LRU.
    cache.markDirty(id(1), 0, 10, 4);
    EXPECT_EQ(*cache.lruCleanBlock(), id(2));

    cache.touch(id(2), 5); // clean block to MRU end
    EXPECT_EQ(*cache.lruCleanBlock(), id(3));

    // dirty -> clean rejoins at its LRU slot: lru_ is now [3, 1, 2],
    // so 1 must land between 3 and 2, not at either end.
    cache.markClean(id(1));
    EXPECT_EQ(*cache.lruCleanBlock(), id(3));
    cache.remove(id(3)); // clean removal drops its entry
    EXPECT_EQ(*cache.lruCleanBlock(), id(1));

    cache.markDirty(id(1), 0, 10, 6);
    cache.remove(id(1)); // dirty removal must not touch the clean list
    EXPECT_EQ(*cache.lruCleanBlock(), id(2));

    cache.insertOrdered(id(4), 1); // oldest access -> new clean LRU
    EXPECT_EQ(*cache.lruCleanBlock(), id(4));

    cache.markDirty(id(2), 0, 10, 7);
    cache.markDirty(id(4), 0, 10, 8);
    EXPECT_FALSE(cache.lruCleanBlock().has_value());

    cache.trimDirty(id(4), 0, 10); // fully trimmed -> clean again
    EXPECT_EQ(*cache.lruCleanBlock(), id(4));
}

TEST(BlockCache, LruCleanBlockMatchesReferenceScan)
{
    // Randomized churn: after every operation the maintained clean
    // ordering must agree with a from-scratch scan for the clean
    // block with the oldest access time.  Strictly increasing clock
    // keeps the reference unambiguous.
    BlockCache cache(0);
    const auto reference = [&cache]() -> std::optional<BlockId> {
        std::optional<BlockId> best;
        TimeUs best_time = 0;
        for (const BlockId &bid : cache.allBlocks()) {
            const CacheBlock *block = cache.peek(bid);
            if (block->isDirty())
                continue;
            if (!best || block->lastAccess < best_time) {
                best = bid;
                best_time = block->lastAccess;
            }
        }
        return best;
    };

    std::uint64_t state = 12345;
    const auto next = [&state] {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 33;
    };

    // Advance the clock by 100 per op: plain ops use `now` itself and
    // insertOrdered picks from (now-100, now), so every access time in
    // the cache is unique and the reference scan has no ties.
    TimeUs now = 1000;
    for (int i = 0; i < 2000; ++i) {
        const BlockId bid{static_cast<FileId>(next() % 16),
                          static_cast<std::uint32_t>(next() % 4)};
        now += 100;
        switch (next() % 6) {
        case 0:
            if (!cache.contains(bid))
                cache.insert(bid, now);
            break;
        case 1:
            if (!cache.contains(bid))
                cache.insertOrdered(bid, now - 1 - next() % 99);
            break;
        case 2:
            if (cache.contains(bid))
                cache.touch(bid, now);
            break;
        case 3:
            if (cache.contains(bid))
                cache.markDirty(bid, 0, 100, now);
            break;
        case 4:
            if (cache.contains(bid))
                cache.markClean(bid);
            break;
        case 5:
            if (cache.contains(bid))
                cache.remove(bid);
            break;
        }
        ASSERT_EQ(cache.lruCleanBlock(), reference())
            << "divergence after op " << i;
    }
}

TEST(BlockCache, InsertOrderedKeepsAccessOrder)
{
    BlockCache cache(8);
    cache.insert(id(1), 10);
    cache.insert(id(2), 20);
    cache.insert(id(3), 30);
    // Insert with an access time between 10 and 20.
    cache.insertOrdered(id(4), 15);
    EXPECT_EQ(*cache.lruBlock(), id(1));
    cache.remove(id(1));
    EXPECT_EQ(*cache.lruBlock(), id(4));
    // Oldest of all goes to the front.
    cache.insertOrdered(id(5), 1);
    EXPECT_EQ(*cache.lruBlock(), id(5));
    // Youngest of all goes to the back.
    cache.insertOrdered(id(6), 99);
    cache.remove(id(5));
    cache.remove(id(4));
    cache.remove(id(2));
    cache.remove(id(3));
    EXPECT_EQ(*cache.lruBlock(), id(6));
}

// The extent index is the cache's only block -> slot map.  Drive it
// through every way blocks enter and leave — single, ranged and
// ordered inserts, runs drained from the front past the extent
// vector's 64-entry compaction, middle removals, whole-file removal
// and re-insert — and compare contains, peek, size and allBlocks with
// a std::map model after every step.
TEST(BlockCache, IndexMatchesMapModelUnderChurn)
{
    constexpr FileId kFiles = 3;
    constexpr std::uint32_t kBlocks = 512;
    BlockCache cache(0);
    std::map<BlockId, TimeUs> model; // resident block -> lastAccess
    util::Rng rng(0x5eedULL);
    TimeUs now = 0;

    const auto check = [&](int step) {
        ASSERT_EQ(cache.size(), model.size()) << "step " << step;
        std::vector<BlockId> expected;
        for (const auto &entry : model)
            expected.push_back(entry.first);
        ASSERT_EQ(cache.allBlocks(), expected) << "step " << step;
        for (const auto &[bid, access] : model) {
            ASSERT_TRUE(cache.contains(bid)) << "step " << step;
            const CacheBlock *block = cache.peek(bid);
            ASSERT_NE(block, nullptr) << "step " << step;
            ASSERT_EQ(block->id, bid) << "step " << step;
            ASSERT_EQ(block->lastAccess, access) << "step " << step;
        }
        for (int probe = 0; probe < 16; ++probe) {
            const BlockId bid{
                static_cast<FileId>(rng.uniformInt(1, kFiles + 1)),
                static_cast<std::uint32_t>(rng.uniformInt(0, kBlocks))};
            if (model.count(bid) == 0) {
                ASSERT_FALSE(cache.contains(bid)) << "step " << step;
                ASSERT_EQ(cache.peek(bid), nullptr) << "step " << step;
            }
        }
        if (step % 16 == 0)
            cache.auditInvariants();
    };
    const auto insert_range = [&](FileId file, std::uint32_t first,
                                  std::uint32_t last) {
        cache.insertRange(file, first, last, now);
        for (std::uint32_t b = first; b <= last; ++b)
            model[{file, b}] = now;
    };
    const auto remove = [&](const BlockId &bid) {
        EXPECT_EQ(cache.remove(bid).id, bid);
        model.erase(bid);
    };
    const auto drain_front = [&](FileId file, std::size_t count) {
        const std::vector<BlockId> blocks = cache.blocksOfFile(file);
        for (std::size_t i = 0; i < count && i < blocks.size(); ++i)
            remove(blocks[i]);
    };

    // A 300-block run drained from the front: the gap passes 64
    // entries and half the vector, so the extent vector compacts.
    insert_range(1, 0, 299);
    drain_front(1, 200);
    check(-1);

    for (int step = 0; step < 3000; ++step) {
        now += rng.uniformInt(1, 3);
        const auto file = static_cast<FileId>(rng.uniformInt(1, kFiles));
        const auto block =
            static_cast<std::uint32_t>(rng.uniformInt(0, kBlocks - 1));
        const BlockId bid{file, block};
        switch (rng.uniformInt(0, 6)) {
          case 0: // single insert
            if (model.count(bid) == 0) {
                cache.insert(bid, now);
                model[bid] = now;
            }
            break;
          case 1: { // ranged insert over the absent run at `block`
            const std::uint32_t last = std::min<std::uint32_t>(
                kBlocks - 1, block + rng.uniformInt(0, 199));
            const auto run = cache.probeRange(file, block, last);
            if (!run.resident)
                insert_range(file, block, run.end - 1);
            break;
          }
          case 2: // ordered insert at an older access time
            if (model.count(bid) == 0) {
                const TimeUs access = rng.uniformInt(0, now);
                cache.insertOrdered(bid, access);
                model[bid] = access;
            }
            break;
          case 3: // front removals
            drain_front(file, rng.uniformInt(1, 100));
            break;
          case 4: // a removal anywhere
            if (!model.empty()) {
                auto it = model.begin();
                std::advance(it, rng.uniformInt(0, model.size() - 1));
                remove(it->first);
            }
            break;
          case 5: { // whole file out, then part of it back in
            std::size_t dropped = 0;
            cache.removeFileBlocks(file, [&](const CacheBlock &gone) {
                EXPECT_EQ(gone.id.file, file);
                EXPECT_EQ(model.erase(gone.id), 1u);
                ++dropped;
            });
            EXPECT_EQ(cache.blocksOfFile(file).size(), 0u);
            if (dropped > 0)
                insert_range(file, block,
                             std::min<std::uint32_t>(kBlocks - 1,
                                                     block + 7));
            break;
          }
          case 6: // touch
            if (model.count(bid) != 0) {
                cache.touch(bid, now);
                model[bid] = now;
            }
            break;
        }
        check(step);
    }
}

// ------------------------------------------------------------ policies

TEST(LruPolicy, EvictsLeastRecentlyUsed)
{
    BlockCache cache(3, makePolicy(PolicyKind::Lru));
    cache.insert(id(1), 1);
    cache.insert(id(2), 2);
    cache.insert(id(3), 3);
    cache.touch(id(1), 4);
    EXPECT_EQ(*cache.chooseVictim(5), id(2));
}

TEST(RandomPolicy, VictimIsResident)
{
    util::Rng rng(5);
    BlockCache cache(16, makePolicy(PolicyKind::Random, &rng));
    std::set<BlockId> resident;
    for (std::uint32_t i = 0; i < 16; ++i) {
        cache.insert(id(i), i);
        resident.insert(id(i));
    }
    for (int round = 0; round < 200; ++round) {
        const auto victim = cache.chooseVictim(100);
        ASSERT_TRUE(victim.has_value());
        EXPECT_TRUE(resident.count(*victim));
    }
}

TEST(RandomPolicy, SpreadsChoices)
{
    util::Rng rng(6);
    BlockCache cache(8, makePolicy(PolicyKind::Random, &rng));
    for (std::uint32_t i = 0; i < 8; ++i)
        cache.insert(id(i), i);
    std::set<BlockId> seen;
    for (int round = 0; round < 200; ++round)
        seen.insert(*cache.chooseVictim(100));
    EXPECT_GT(seen.size(), 4u);
}

TEST(ClockPolicy, GivesSecondChance)
{
    BlockCache cache(3, makePolicy(PolicyKind::Clock));
    cache.insert(id(1), 1);
    cache.insert(id(2), 2);
    cache.insert(id(3), 3);
    // All referenced once (on insert); first sweep clears bits and
    // the second returns the first unreferenced block.
    const auto victim = cache.chooseVictim(4);
    ASSERT_TRUE(victim.has_value());
    EXPECT_TRUE(cache.contains(*victim));
}

TEST(ClockPolicy, RecentlyTouchedSurvives)
{
    BlockCache cache(2, makePolicy(PolicyKind::Clock));
    cache.insert(id(1), 1);
    cache.insert(id(2), 2);
    // First victim clears reference bits.
    const auto first = cache.chooseVictim(3);
    cache.remove(*first);
    cache.insert(id(3), 3);
    cache.touch(id(3), 4);
    const auto second = cache.chooseVictim(5);
    ASSERT_TRUE(second.has_value());
    EXPECT_NE(*second, id(3)); // freshly referenced block survives
}

/** Fixed-schedule oracle for omniscient policy tests. */
class StubOracle : public NextModifyOracle
{
  public:
    std::map<BlockId, TimeUs> next;

    TimeUs
    nextModify(const BlockId &block, TimeUs) const override
    {
        auto it = next.find(block);
        return it == next.end() ? kTimeInfinity : it->second;
    }
};

TEST(OmniscientPolicy, EvictsFurthestNextModify)
{
    StubOracle oracle;
    oracle.next[id(1)] = 100;  // modified soon: keep
    oracle.next[id(2)] = 9000; // modified late: evict
    oracle.next[id(3)] = 500;
    BlockCache cache(3,
                     makePolicy(PolicyKind::Omniscient, nullptr,
                                &oracle));
    cache.insert(id(1), 1);
    cache.insert(id(2), 2);
    cache.insert(id(3), 3);
    EXPECT_EQ(*cache.chooseVictim(10), id(2));
}

TEST(OmniscientPolicy, NeverModifiedEvictedFirst)
{
    StubOracle oracle;
    oracle.next[id(1)] = 100;
    // id(2) has no future modification at all.
    BlockCache cache(2,
                     makePolicy(PolicyKind::Omniscient, nullptr,
                                &oracle));
    cache.insert(id(1), 1);
    cache.insert(id(2), 2);
    EXPECT_EQ(*cache.chooseVictim(10), id(2));
}

TEST(OmniscientPolicy, RefreshesOnAccess)
{
    StubOracle oracle;
    oracle.next[id(1)] = 100;
    oracle.next[id(2)] = 200;
    BlockCache cache(2,
                     makePolicy(PolicyKind::Omniscient, nullptr,
                                &oracle));
    cache.insert(id(1), 1);
    cache.insert(id(2), 2);
    EXPECT_EQ(*cache.chooseVictim(10), id(2));
    // After time passes id(1)'s next modify, its key refreshes on
    // access; with no further writes it becomes the far-future block.
    oracle.next[id(1)] = kTimeInfinity;
    cache.touch(id(1), 150);
    EXPECT_EQ(*cache.chooseVictim(150), id(1));
}

TEST(Policies, EmptyCacheHasNoVictim)
{
    for (const auto kind :
         {PolicyKind::Lru, PolicyKind::Clock}) {
        BlockCache cache(2, makePolicy(kind));
        EXPECT_FALSE(cache.chooseVictim(1).has_value());
    }
}

TEST(Policies, Names)
{
    EXPECT_EQ(policyName(PolicyKind::Lru), "LRU");
    EXPECT_EQ(policyName(PolicyKind::Random), "random");
    EXPECT_EQ(policyName(PolicyKind::Clock), "clock");
    EXPECT_EQ(policyName(PolicyKind::Omniscient), "omniscient");
}

} // namespace
} // namespace nvfs::cache

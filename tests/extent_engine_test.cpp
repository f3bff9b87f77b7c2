/**
 * @file
 * Differential tests of the extent-level pieces the simulator keeps.
 * The BlockCache range operations the file server writes through must
 * leave the cache in exactly the state the equivalent per-block loop
 * would, and the run-based NextModifyIndex must answer exactly like a
 * per-block reference built from plain maps.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "cache/block_cache.hpp"
#include "core/client/client_model.hpp"
#include "core/lifetime/next_modify.hpp"
#include "core/sim/experiments.hpp"
#include "util/rng.hpp"

namespace nvfs::core {
namespace {

using cache::BlockCache;
using cache::BlockId;

constexpr double kScale = 0.02;

/** Full observable state of a BlockCache, for exact comparison. */
struct CacheState
{
    std::vector<BlockId> blocks;
    std::vector<BlockId> lru;
    std::vector<std::vector<util::ByteRange>> dirty;

    bool operator==(const CacheState &other) const = default;
};

CacheState
snapshot(const BlockCache &cache)
{
    CacheState state;
    state.blocks = cache.allBlocks();
    state.lru = cache.lruOrder();
    for (const BlockId &id : state.blocks)
        state.dirty.push_back(cache.peek(id)->dirty.runs());
    return state;
}

/**
 * LRU as a policy object.  The simulator's LRU caches have none (a
 * BlockCache without a policy takes victims from its own recency
 * list); this one drives the policy-notification path under LRU so
 * the twins below can check both against each other.
 */
class LruPolicy final : public cache::ReplacementPolicy
{
  public:
    void
    onInsert(const BlockId &id, TimeUs) override
    {
        where_[id] = order_.insert(order_.end(), id);
    }

    void
    onAccess(const BlockId &id, TimeUs) override
    {
        const auto it = where_.find(id);
        ASSERT_NE(it, where_.end()) << "LRU access to absent block";
        order_.splice(order_.end(), order_, it->second);
    }

    void
    onRemove(const BlockId &id) override
    {
        const auto it = where_.find(id);
        ASSERT_NE(it, where_.end()) << "LRU remove of absent block";
        order_.erase(it->second);
        where_.erase(it);
    }

    std::optional<BlockId>
    chooseVictim(TimeUs) override
    {
        if (order_.empty())
            return std::nullopt;
        return order_.front();
    }

  private:
    std::list<BlockId> order_; ///< front = least recently used
    std::map<BlockId, std::list<BlockId>::iterator> where_;
};

// Randomized equivalence: drive one cache through the range
// operations FileServer uses and a twin through the per-block calls,
// and require the same resident set, LRU order, per-block dirty runs,
// absorbed-byte returns, removal order and victim sequence at every
// step.
TEST(BlockCacheRangeOps, RandomizedEquivalenceWithPerBlock)
{
    for (bool with_policy : {true, false}) {
        constexpr std::uint64_t kCapacity = 24;
        // The per-block twin always drives an LRU policy object, so
        // one pass checks the range operations' policy notifications
        // and the other the policy-free cache's own LRU victims.
        BlockCache ranged(kCapacity, with_policy
                                         ? std::make_unique<LruPolicy>()
                                         : nullptr);
        BlockCache blocked(kCapacity, std::make_unique<LruPolicy>());
        util::Rng rng(with_policy ? 0xbeefULL : 0xfeedULL);
        TimeUs now = 0;

        for (int step = 0; step < 4000; ++step) {
            now += rng.uniformInt(0, 3);
            const FileId file = rng.uniformInt(1, 4);
            const auto first =
                static_cast<std::uint32_t>(rng.uniformInt(0, 30));
            const auto last = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(30,
                                        first + rng.uniformInt(0, 7)));
            const auto run = ranged.probeRange(file, first, last);
            switch (rng.uniformInt(0, 5)) {
              case 0: { // insertRange over a fully-absent run
                if (run.resident ||
                    ranged.freeBlocks() < run.end - first) {
                    break;
                }
                ranged.insertRange(file, first, run.end - 1, now);
                for (std::uint32_t b = first; b < run.end; ++b)
                    blocked.insert({file, b}, now);
                break;
              }
              case 1: { // removeFileBlocks: the whole file, ascending
                std::vector<BlockId> removed;
                ranged.removeFileBlocks(
                    file, [&](const cache::CacheBlock &block) {
                        removed.push_back(block.id);
                    });
                const std::vector<BlockId> expected =
                    blocked.blocksOfFile(file);
                for (const BlockId &id : expected)
                    blocked.remove(id);
                EXPECT_EQ(removed, expected);
                break;
              }
              case 2: { // markDirtyRange over a fully-resident run
                if (!run.resident)
                    break;
                const std::uint32_t end = run.end - 1;
                const Bytes begin =
                    Bytes{first} * kBlockSize +
                    rng.uniformInt(0, kBlockSize - 1);
                const Bytes limit = Bytes{end + 1} * kBlockSize;
                const Bytes length =
                    std::min<Bytes>(limit - begin,
                                    1 + rng.uniformInt(0, kBlockSize));
                const Bytes absorbed_ranged =
                    ranged.markDirtyRange(file, begin, length, now);
                Bytes absorbed_blocked = 0;
                forEachBlock(file, begin, length,
                             [&](const BlockId &id, Bytes b, Bytes e) {
                                 absorbed_blocked +=
                                     blocked.peek(id)->dirty
                                         .overlapBytes(b, e);
                                 blocked.markDirty(id, b, e, now);
                             });
                EXPECT_EQ(absorbed_ranged, absorbed_blocked);
                break;
              }
              case 3: { // evict one victim
                const auto victim = ranged.chooseVictim(now);
                const auto twin = blocked.chooseVictim(now);
                ASSERT_EQ(victim.has_value(), twin.has_value());
                if (victim) {
                    EXPECT_EQ(*victim, *twin);
                    ranged.remove(*victim);
                    blocked.remove(*twin);
                }
                break;
              }
              case 4: { // remove a specific resident block
                if (ranged.contains({file, first})) {
                    ranged.remove({file, first});
                    blocked.remove({file, first});
                }
                break;
              }
              case 5: { // removeDirtyOlderThan: oldest dirty first
                const TimeUs cutoff =
                    now - static_cast<TimeUs>(rng.uniformInt(0, 40));
                std::vector<BlockId> removed;
                ranged.removeDirtyOlderThan(
                    cutoff, [&](const cache::CacheBlock &block) {
                        removed.push_back(block.id);
                    });
                const std::vector<BlockId> expected =
                    blocked.dirtyOlderThan(cutoff);
                for (const BlockId &id : expected)
                    blocked.remove(id);
                EXPECT_EQ(removed, expected);
                break;
              }
            }
            if (step % 256 == 0) {
                ASSERT_EQ(snapshot(ranged), snapshot(blocked));
            }
        }
        EXPECT_EQ(snapshot(ranged), snapshot(blocked));

        // Drain: the victim sequences must agree to the last block.
        while (ranged.size() > 0) {
            const auto victim = ranged.chooseVictim(now);
            const auto twin = blocked.chooseVictim(now);
            ASSERT_TRUE(victim.has_value());
            ASSERT_TRUE(twin.has_value());
            EXPECT_EQ(*victim, *twin);
            ranged.remove(*victim);
            blocked.remove(*twin);
        }
        EXPECT_EQ(blocked.size(), 0u);
    }
}

// The restructured NextModifyIndex (per-file block tables + live
// runs) must answer exactly like the straightforward per-block
// reference built with element-wise maps.
TEST(NextModifyIndexDifferential, MatchesPerBlockReference)
{
    const auto &ops = standardOps(3, kScale);
    const NextModifyIndex index(ops);

    std::map<std::pair<FileId, std::uint32_t>, std::vector<TimeUs>>
        reference;
    std::map<FileId, std::set<std::uint32_t>> live;
    const prep::OpColumns &col = ops.ops;
    for (std::size_t i = 0; i < col.size(); ++i) {
        const TimeUs time = col.time[i];
        const FileId file = col.file[i];
        switch (col.type[i]) {
          case prep::OpType::Write:
            forEachBlock(file, col.offset[i], col.length[i],
                         [&](const BlockId &id, Bytes, Bytes) {
                             reference[{file, id.index}]
                                 .push_back(time);
                             live[file].insert(id.index);
                         });
            break;
          case prep::OpType::Delete: {
            auto it = live.find(file);
            if (it == live.end())
                break;
            for (std::uint32_t block : it->second)
                reference[{file, block}].push_back(time);
            live.erase(it);
            break;
          }
          case prep::OpType::Truncate: {
            auto it = live.find(file);
            if (it == live.end())
                break;
            const auto first_dead = static_cast<std::uint32_t>(
                blocksCovering(col.length[i]));
            auto bit = it->second.lower_bound(first_dead);
            while (bit != it->second.end()) {
                reference[{file, *bit}].push_back(time);
                bit = it->second.erase(bit);
            }
            break;
          }
          default:
            break;
        }
    }

    EXPECT_EQ(index.blockCount(), reference.size());
    for (const auto &[key, times] : reference) {
        const BlockId id{key.first, key.second};
        // Probe before the first, between every pair, and after the
        // last modification.
        EXPECT_EQ(index.nextModify(id, 0), times.front());
        for (std::size_t i = 0; i + 1 < times.size(); ++i) {
            const TimeUs expected = times[i + 1];
            EXPECT_EQ(index.nextModify(id, times[i]), expected);
        }
        EXPECT_EQ(index.nextModify(id, times.back()), kTimeInfinity);
    }
    EXPECT_EQ(index.nextModify({kNoFile, 7}, 0), kTimeInfinity);
}

// Handcrafted stream covering the Delete/Truncate fan-out and the
// zero-length-write guard of the run-based index.
TEST(NextModifyIndexDifferential, DeleteAndTruncateFanOut)
{
    std::vector<prep::Op> ops;
    auto push = [&](TimeUs t, prep::OpType type, FileId f, Bytes off,
                    Bytes len) {
        prep::Op op;
        op.time = t;
        op.type = type;
        op.file = f;
        op.offset = off;
        op.length = len;
        ops.push_back(op);
    };
    using prep::OpType;
    push(10, OpType::Write, 1, 0, 3 * kBlockSize);      // blocks 0-2
    push(20, OpType::Write, 1, 6 * kBlockSize, 100);    // block 6
    push(25, OpType::Write, 1, 0, 0);                   // no blocks
    push(30, OpType::Truncate, 1, 0, 2 * kBlockSize);   // kills 2, 6
    push(40, OpType::Write, 1, 2 * kBlockSize, 1);      // block 2 again
    push(50, OpType::Delete, 1, 0, 0);                  // kills 0,1,2
    push(60, OpType::Write, 2, kBlockSize - 1, 2);      // blocks 0,1

    prep::OpStream stream;
    stream.clientCount = 1;
    stream.ops = std::move(ops);
    const NextModifyIndex index(stream);

    EXPECT_EQ(index.blockCount(), 6u); // file1: 0,1,2,6; file2: 0,1
    EXPECT_EQ(index.nextModify({1, 0}, 10), 50u);
    EXPECT_EQ(index.nextModify({1, 1}, 10), 50u);
    EXPECT_EQ(index.nextModify({1, 2}, 10), 30u);
    EXPECT_EQ(index.nextModify({1, 2}, 30), 40u);
    EXPECT_EQ(index.nextModify({1, 2}, 40), 50u);
    EXPECT_EQ(index.nextModify({1, 6}, 20), 30u);
    EXPECT_EQ(index.nextModify({1, 6}, 30), kTimeInfinity);
    EXPECT_EQ(index.nextModify({2, 0}, 0), 60u);
    EXPECT_EQ(index.nextModify({2, 1}, 0), 60u);
    EXPECT_EQ(index.nextModify({2, 2}, 0), kTimeInfinity);
}

} // namespace
} // namespace nvfs::core

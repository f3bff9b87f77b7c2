/**
 * @file
 * util::FlatMap unit and randomized differential tests: every
 * operation is mirrored against std::unordered_map and the two must
 * agree after each step, across growth, erasure (backward-shift
 * deletion), and rehashing.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "cache/block_cache.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace nvfs {
namespace {

using Map = util::FlatMap<std::uint64_t, std::uint64_t,
                          util::SplitMix64Hash>;

TEST(FlatMapTest, EmptyMapBasics)
{
    Map map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(42), nullptr);
    EXPECT_FALSE(map.contains(42));
    EXPECT_FALSE(map.erase(42));
}

TEST(FlatMapTest, InsertFindErase)
{
    Map map;
    auto [slot, inserted] = map.tryEmplace(7, 70);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*slot, 70u);
    EXPECT_EQ(map.size(), 1u);

    auto [again, fresh] = map.tryEmplace(7, 99);
    EXPECT_FALSE(fresh);
    EXPECT_EQ(*again, 70u) << "tryEmplace must not overwrite";

    map.insertOrAssign(7, 99);
    EXPECT_EQ(*map.find(7), 99u);

    EXPECT_TRUE(map.erase(7));
    EXPECT_FALSE(map.contains(7));
    EXPECT_TRUE(map.empty());
}

TEST(FlatMapTest, OperatorBracketDefaultConstructs)
{
    Map map;
    map[3] += 5;
    map[3] += 5;
    EXPECT_EQ(*map.find(3), 10u);
}

TEST(FlatMapTest, GrowthPreservesEntries)
{
    Map map;
    for (std::uint64_t i = 0; i < 10000; ++i)
        map.insertOrAssign(i, i * 3);
    EXPECT_EQ(map.size(), 10000u);
    for (std::uint64_t i = 0; i < 10000; ++i) {
        const std::uint64_t *found = map.find(i);
        ASSERT_NE(found, nullptr) << "lost key " << i;
        EXPECT_EQ(*found, i * 3);
    }
}

TEST(FlatMapTest, ClusteredKeysSurviveEraseChains)
{
    // Sequential keys force probe chains; backward-shift deletion must
    // keep every remaining chain member reachable.
    Map map;
    for (std::uint64_t i = 0; i < 512; ++i)
        map.insertOrAssign(i, i);
    for (std::uint64_t i = 0; i < 512; i += 2)
        EXPECT_TRUE(map.erase(i));
    for (std::uint64_t i = 0; i < 512; ++i) {
        if (i % 2 == 0)
            EXPECT_EQ(map.find(i), nullptr);
        else
            ASSERT_NE(map.find(i), nullptr) << "lost key " << i;
    }
}

TEST(FlatMapTest, ForEachVisitsEverything)
{
    Map map;
    std::uint64_t want = 0;
    for (std::uint64_t i = 1; i <= 100; ++i) {
        map.insertOrAssign(i, i);
        want += i + i;
    }
    std::uint64_t got = 0;
    std::size_t visits = 0;
    map.forEach([&](const std::uint64_t &key, const std::uint64_t &val) {
        got += key + val;
        ++visits;
    });
    EXPECT_EQ(visits, 100u);
    EXPECT_EQ(got, want);
}

TEST(FlatMapTest, ForEachMutatesValues)
{
    Map map;
    for (std::uint64_t i = 0; i < 64; ++i)
        map.insertOrAssign(i, i);
    map.forEach(
        [](const std::uint64_t &, std::uint64_t &val) { val *= 2; });
    for (std::uint64_t i = 0; i < 64; ++i)
        EXPECT_EQ(*map.find(i), i * 2);
}

TEST(FlatMapTest, EraseIfRemovesMatching)
{
    Map map;
    for (std::uint64_t i = 0; i < 1000; ++i)
        map.insertOrAssign(i, i);
    map.eraseIf([](const std::uint64_t &key, const std::uint64_t &) {
        return key % 3 == 0;
    });
    for (std::uint64_t i = 0; i < 1000; ++i)
        EXPECT_EQ(map.contains(i), i % 3 != 0) << i;
}

TEST(FlatMapTest, ClearThenReuse)
{
    Map map;
    for (std::uint64_t i = 0; i < 100; ++i)
        map.insertOrAssign(i, i);
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(5), nullptr);
    map.insertOrAssign(5, 50);
    EXPECT_EQ(*map.find(5), 50u);
    EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMapTest, NonTrivialValueType)
{
    util::FlatMap<std::uint32_t, std::vector<std::string>,
                  util::SplitMix64Hash>
        map;
    map[1].push_back("a");
    map[1].push_back("b");
    map[2].push_back("c");
    ASSERT_NE(map.find(1), nullptr);
    EXPECT_EQ(map.find(1)->size(), 2u);
    EXPECT_TRUE(map.erase(1));
    EXPECT_EQ(map.find(1), nullptr);
    EXPECT_EQ(map.find(2)->front(), "c");
}

/**
 * Differential fuzz: a long random mix of insert / assign / erase /
 * find / clear mirrored into std::unordered_map, with full-content
 * comparison at checkpoints.  Keys are drawn from a small range so
 * collisions, re-insertion after erase, and probe-chain shifts all
 * happen constantly.
 */
TEST(FlatMapTest, DifferentialVsUnorderedMap)
{
    util::Rng rng(0xF1A7);
    Map map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;

    const auto checkEqual = [&] {
        ASSERT_EQ(map.size(), ref.size());
        for (const auto &[key, val] : ref) {
            const std::uint64_t *found = map.find(key);
            ASSERT_NE(found, nullptr) << "missing key " << key;
            ASSERT_EQ(*found, val) << "wrong value for key " << key;
        }
        std::size_t visited = 0;
        map.forEach(
            [&](const std::uint64_t &key, const std::uint64_t &val) {
                ++visited;
                auto it = ref.find(key);
                ASSERT_NE(it, ref.end()) << "phantom key " << key;
                ASSERT_EQ(it->second, val);
            });
        ASSERT_EQ(visited, ref.size());
    };

    for (int step = 0; step < 60000; ++step) {
        const auto key =
            static_cast<std::uint64_t>(rng.uniformInt(0, 1023));
        const auto val = static_cast<std::uint64_t>(step);
        switch (rng.uniformInt(0, 9)) {
          case 0:
          case 1:
          case 2: { // tryEmplace
            const bool inserted = map.tryEmplace(key, val).second;
            const bool refInserted = ref.try_emplace(key, val).second;
            ASSERT_EQ(inserted, refInserted);
            break;
          }
          case 3:
          case 4:
          case 5: // insertOrAssign
            map.insertOrAssign(key, val);
            ref[key] = val;
            break;
          case 6:
          case 7: { // erase
            const bool erased = map.erase(key);
            ASSERT_EQ(erased, ref.erase(key) == 1);
            break;
          }
          case 8: { // find
            const std::uint64_t *found = map.find(key);
            const auto it = ref.find(key);
            ASSERT_EQ(found != nullptr, it != ref.end());
            if (found != nullptr) {
                ASSERT_EQ(*found, it->second);
            }
            break;
          }
          default: // operator[]
            map[key] += 1;
            ref[key] += 1;
            break;
        }
        if (step % 4096 == 0)
            checkEqual();
    }
    checkEqual();

    // Drain everything through eraseIf and re-verify emptiness.
    map.eraseIf([](const std::uint64_t &, const std::uint64_t &) {
        return true;
    });
    EXPECT_TRUE(map.empty());
}

/** Identity hash: pins a key's home slot to key & (capacity-1), so
 *  tests can construct probe chains at exact table positions. */
struct IdentityHash
{
    std::size_t
    operator()(std::uint64_t v) const
    {
        return static_cast<std::size_t>(v);
    }
};

TEST(FlatMapTest, SimdFindMatchesScalarUnderChurn)
{
    // find() must agree with a model of the live key set — the right
    // value for every present key, nullptr for every absent one —
    // across growth and backward-shift erase churn.
    util::Rng rng(0x51D);
    Map map;
    std::unordered_map<std::uint64_t, std::uint64_t> model;
    for (int step = 0; step < 20000; ++step) {
        const auto key =
            static_cast<std::uint64_t>(rng.uniformInt(0, 2047));
        switch (rng.uniformInt(0, 3)) {
          case 0:
          case 1:
            map.insertOrAssign(key, static_cast<std::uint64_t>(step));
            model[key] = static_cast<std::uint64_t>(step);
            break;
          case 2:
            map.erase(key);
            model.erase(key);
            break;
          default:
            break;
        }
        const auto probe =
            static_cast<std::uint64_t>(rng.uniformInt(0, 2047));
        const auto it = model.find(probe);
        if (it == model.end()) {
            ASSERT_EQ(map.find(probe), nullptr)
                << "probe " << probe << " found at step " << step;
        } else {
            ASSERT_NE(map.find(probe), nullptr)
                << "probe " << probe << " missed at step " << step;
            ASSERT_EQ(*map.find(probe), it->second);
        }
    }
}

TEST(FlatMapTest, SimdFindMatchesScalarAcrossWrapBoundary)
{
    // Home slots near the end of the table force probes to wrap past
    // the last slot: home 58 of 64 wraps after six slots, and home 48
    // (capacity - 16) after sixteen.
    for (const std::uint64_t home : {58u, 48u}) {
        util::FlatMap<std::uint64_t, std::uint64_t, IdentityHash> map;
        map.reserve(48); // capacity 64
        // A collision pile-up whose chain starts before the wrap
        // point and spills past it: keys home, home+64, home+128, ...
        // all share one home slot.
        for (std::uint64_t i = 0; i < 20; ++i)
            map.insertOrAssign(home + i * 64, i);
        for (std::uint64_t i = 0; i < 24; ++i) {
            const std::uint64_t present = home + i * 64;
            if (i < 20) {
                ASSERT_NE(map.find(present), nullptr)
                    << "home " << home << " key " << present;
                ASSERT_EQ(*map.find(present), i);
            } else {
                ASSERT_EQ(map.find(present), nullptr)
                    << "home " << home << " key " << present;
            }
            const std::uint64_t absent = home + 1 + i * 64;
            ASSERT_EQ(map.find(absent), nullptr);
        }
        // Erase from the middle of the chain (backward-shift moves the
        // tail across the wrap) and re-verify.
        std::vector<std::uint64_t> erased;
        for (const std::uint64_t gone : {home + 5 * 64, home + 11 * 64}) {
            ASSERT_TRUE(map.erase(gone));
            erased.push_back(gone);
            for (std::uint64_t i = 0; i < 24; ++i) {
                const std::uint64_t key = home + i * 64;
                const bool live =
                    i < 20 && std::find(erased.begin(), erased.end(),
                                        key) == erased.end();
                if (live) {
                    ASSERT_NE(map.find(key), nullptr)
                        << "home " << home << " key " << key;
                    ASSERT_EQ(*map.find(key), i);
                } else {
                    ASSERT_EQ(map.find(key), nullptr)
                        << "home " << home << " key " << key;
                }
            }
        }
    }
}

TEST(FlatMapTest, SimdFindMatchesScalarOnLongProbeChains)
{
    // Probe chains longer than 16 slots: 40 keys all homed at slot 0
    // make stored distances 1..40, so a miss walks the whole chain
    // before the robin-hood early exit fires.
    util::FlatMap<std::uint64_t, std::uint64_t, IdentityHash> map;
    map.reserve(48); // capacity 64
    for (std::uint64_t i = 0; i < 40; ++i)
        map.insertOrAssign(i * 64, i);
    for (std::uint64_t i = 0; i < 48; ++i) {
        const std::uint64_t key = i * 64;
        if (i < 40) {
            ASSERT_NE(map.find(key), nullptr);
            ASSERT_EQ(*map.find(key), i);
        } else {
            ASSERT_EQ(map.find(key), nullptr);
        }
    }
}

TEST(FlatMapTest, ReserveAvoidsMidwayGrowth)
{
    Map map;
    map.reserve(5000);
    for (std::uint64_t i = 0; i < 5000; ++i) {
        auto [slot, inserted] = map.tryEmplace(i, i);
        ASSERT_TRUE(inserted);
        // The pointer must stay valid until the next rehash; with a
        // big enough reserve there is none, so spot-check stability.
        ASSERT_EQ(*slot, i);
    }
    EXPECT_EQ(map.size(), 5000u);
}

TEST(FlatMapTest, BlockIdKeys)
{
    // The BlockCache instantiation: struct key with a custom hasher.
    util::FlatMap<cache::BlockId, std::uint32_t, cache::BlockIdHash>
        map;
    for (std::uint32_t f = 0; f < 64; ++f)
        for (std::uint32_t b = 0; b < 16; ++b)
            map.insertOrAssign({f, b}, f * 100 + b);
    EXPECT_EQ(map.size(), 64u * 16u);
    EXPECT_EQ(*map.find({63, 15}), 6315u);
    EXPECT_TRUE(map.erase({0, 0}));
    EXPECT_EQ(map.find({0, 0}), nullptr);
    EXPECT_EQ(*map.find({0, 1}), 1u);
}

} // namespace
} // namespace nvfs

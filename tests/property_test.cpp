/**
 * @file
 * Property-based tests: randomized operation sequences checked against
 * reference models or structural invariants, parameterized over seeds
 * with TEST_P / INSTANTIATE_TEST_SUITE_P.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "cache/block_cache.hpp"
#include "core/lifetime/lifetime.hpp"
#include "lfs/cleaner.hpp"
#include "lfs/log.hpp"
#include "lfs/recovery.hpp"
#include "prep/converter.hpp"
#include "util/interval_set.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace nvfs {
namespace {

class SeededTest : public ::testing::TestWithParam<std::uint64_t>
{
};

// ----------------------------------------- IntervalSet vs. bitmap

using IntervalSeed = SeededTest;

/** Apply the same insert or erase to `set` and to `bitmap`. */
void
applyToBoth(util::IntervalSet &set, std::vector<bool> &bitmap,
            Bytes begin, Bytes end, bool insert)
{
    if (insert)
        set.insert(begin, end);
    else
        set.erase(begin, end);
    for (Bytes i = begin; i < end; ++i)
        bitmap[i] = insert;
}

/**
 * One step of a block-shaped op mix over offsets in [0, kBlockSize]:
 * appends (some after a gap), whole-block overwrites, tail truncates,
 * a middle erase that splits one run, scattered writes that may bridge
 * gaps, and a clear() every 32 steps.  Unlike the scattered ranges
 * above, it keeps returning a set to one run or none, so it crosses
 * IntervalSet's inline/spilled boundary in both directions.
 */
void
blockShapedStep(util::Rng &rng, int step, util::IntervalSet &set,
                std::vector<bool> &bitmap)
{
    if (step % 32 == 31) {
        set.clear();
        std::fill(bitmap.begin(), bitmap.end(), false);
        return;
    }
    const auto runs = set.runs();
    const std::uint64_t roll = rng.uniformInt(0, 99);
    if (roll < 35) {
        const Bytes tail = runs.empty() ? 0 : runs.back().end;
        const Bytes gap = rng.chance(0.4) ? rng.uniformInt(1, 512) : 0;
        const Bytes begin = std::min(kBlockSize, tail + gap);
        const Bytes end =
            std::min(kBlockSize, begin + rng.uniformInt(1, 1024));
        applyToBoth(set, bitmap, begin, end, true);
    } else if (roll < 45) {
        set.clear();
        set.insert(0, kBlockSize);
        std::fill(bitmap.begin(), bitmap.end(), true);
    } else if (roll < 65) {
        applyToBoth(set, bitmap, rng.uniformInt(0, kBlockSize), kBlockSize,
                    false);
    } else if (roll < 80) {
        if (runs.empty())
            return;
        const util::ByteRange run = runs[rng.uniformInt(0, runs.size() - 1)];
        if (run.length() < 3)
            return;
        const Bytes begin = run.begin + rng.uniformInt(1, run.length() - 2);
        const Bytes end = begin + rng.uniformInt(1, run.end - 1 - begin);
        applyToBoth(set, bitmap, begin, end, false);
    } else {
        const Bytes begin = rng.uniformInt(0, kBlockSize - 1);
        const Bytes end =
            std::min(kBlockSize, begin + rng.uniformInt(1, 768));
        applyToBoth(set, bitmap, begin, end, true);
    }
}

/** The maximal runs of set bits in `bitmap`. */
std::vector<util::ByteRange>
bitmapRuns(const std::vector<bool> &bitmap)
{
    std::vector<util::ByteRange> runs;
    for (Bytes i = 0; i < bitmap.size(); ++i) {
        if (!bitmap[i])
            continue;
        if (!runs.empty() && runs.back().end == i)
            ++runs.back().end;
        else
            runs.push_back({i, i + 1});
    }
    return runs;
}

TEST_P(IntervalSeed, IntervalSetRunsStayCanonical)
{
    // After arbitrary mutations the run list must remain sorted,
    // disjoint, non-adjacent (fully coalesced), and must sum to
    // totalBytes().
    util::Rng rng(GetParam());
    util::IntervalSet set;

    for (int step = 0; step < 400; ++step) {
        const Bytes begin = rng.uniformInt(0, 2000);
        const Bytes end = begin + rng.uniformInt(0, 47);
        if (rng.chance(0.6))
            set.insert(begin, end);
        else
            set.erase(begin, end);

        const auto runs = set.runs();
        Bytes total = 0;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            ASSERT_LT(runs[i].begin, runs[i].end);
            total += runs[i].length();
            if (i > 0) {
                ASSERT_GT(runs[i].begin, runs[i - 1].end);
            }
        }
        ASSERT_EQ(total, set.totalBytes());
        ASSERT_EQ(runs.size(), set.runCount());
    }

    // One more input: the block-shaped mix.  Every step must also pass
    // the set's own audit, which checks that one run or none is held
    // inline and only two or more are spilled.
    util::IntervalSet block;
    std::vector<bool> bitmap(kBlockSize, false);
    std::size_t spills = 0;
    std::size_t returns = 0;
    for (int step = 0; step < 600; ++step) {
        const std::size_t before = block.runCount();
        blockShapedStep(rng, step, block, bitmap);
        ASSERT_NO_THROW(block.auditInvariants()) << "step " << step;
        const auto runs = block.runs();
        Bytes total = 0;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            ASSERT_LT(runs[i].begin, runs[i].end);
            ASSERT_LE(runs[i].end, kBlockSize);
            total += runs[i].length();
            if (i > 0) {
                ASSERT_GT(runs[i].begin, runs[i - 1].end);
            }
        }
        ASSERT_EQ(total, block.totalBytes());
        ASSERT_EQ(runs.size(), block.runCount());
        spills += before <= 1 && runs.size() >= 2;
        returns += before >= 2 && runs.size() <= 1;
    }
    EXPECT_GT(spills, 0u);
    EXPECT_GT(returns, 0u);
}

TEST_P(IntervalSeed, IntervalSetExactBitmapEquivalence)
{
    util::Rng rng(GetParam() ^ 0xABCDEF);
    util::IntervalSet set;
    std::vector<bool> bitmap(1024, false);

    for (int step = 0; step < 300; ++step) {
        const Bytes begin = rng.uniformInt(0, 1000);
        const Bytes end =
            std::min<Bytes>(begin + rng.uniformInt(0, 63), 1024);
        const bool insert = rng.chance(0.6);
        if (insert)
            set.insert(begin, end);
        else
            set.erase(begin, end);
        for (Bytes i = begin; i < end && i < bitmap.size(); ++i)
            bitmap[i] = insert;

        // Compare total bytes within the bitmap's domain.
        Bytes expected = 0;
        for (const bool bit : bitmap)
            expected += bit ? 1 : 0;
        ASSERT_EQ(set.totalBytes(), expected) << "step " << step;

        // Spot-check an overlap query.
        const Bytes qb = rng.uniformInt(0, 1000);
        const Bytes qe = qb + rng.uniformInt(0, 100);
        Bytes overlap = 0;
        for (Bytes i = qb; i < qe && i < bitmap.size(); ++i)
            overlap += bitmap[i] ? 1 : 0;
        ASSERT_EQ(set.overlapBytes(qb, std::min<Bytes>(qe, 1024)),
                  overlap);
    }

    // One more input: the block-shaped mix over a 4 KB bitmap, checked
    // run for run after every step.
    util::IntervalSet block;
    std::vector<bool> block_bitmap(kBlockSize, false);
    for (int step = 0; step < 600; ++step) {
        blockShapedStep(rng, step, block, block_bitmap);
        const auto expected = bitmapRuns(block_bitmap);
        ASSERT_EQ(block.runs(), expected) << "step " << step;
        ASSERT_EQ(block.runCount(), expected.size()) << "step " << step;
        ASSERT_EQ(block.empty(), expected.empty()) << "step " << step;
        Bytes covered = 0;
        for (const util::ByteRange &run : expected)
            covered += run.length();
        ASSERT_EQ(block.totalBytes(), covered) << "step " << step;
        ASSERT_NO_THROW(block.auditInvariants()) << "step " << step;

        const Bytes qb = rng.uniformInt(0, kBlockSize);
        const Bytes qe = std::min(kBlockSize, qb + rng.uniformInt(0, 2048));
        Bytes overlap = 0;
        for (Bytes i = qb; i < qe; ++i)
            overlap += block_bitmap[i] ? 1 : 0;
        ASSERT_EQ(block.overlapBytes(qb, qe), overlap) << "step " << step;
    }
}

TEST_P(IntervalSeed, IntervalMapConservesBytes)
{
    // Every byte assigned is either still mapped or was reported
    // displaced exactly once.
    util::Rng rng(GetParam() ^ 0x1234);
    util::IntervalMap<int> map;
    Bytes assigned = 0;
    Bytes displaced = 0;

    for (int step = 0; step < 300; ++step) {
        const Bytes begin = rng.uniformInt(0, 4000);
        const Bytes end = begin + 1 + rng.uniformInt(0, 127);
        assigned += end - begin;
        map.assign(begin, end, step,
                   [&](Bytes b, Bytes e, const int &) {
                       displaced += e - b;
                   });
        ASSERT_EQ(map.totalBytes() + displaced, assigned)
            << "step " << step;
    }
    map.clear([&](Bytes b, Bytes e, const int &) {
        displaced += e - b;
    });
    EXPECT_EQ(displaced, assigned);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSeed,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------------- BlockCache vs. reference

using CacheSeed = SeededTest;

TEST_P(CacheSeed, LruMatchesReferenceModel)
{
    util::Rng rng(GetParam());
    cache::BlockCache cache(32);
    std::vector<cache::BlockId> reference; // front = LRU

    auto ref_touch = [&](const cache::BlockId &id) {
        for (auto it = reference.begin(); it != reference.end(); ++it) {
            if (*it == id) {
                reference.erase(it);
                break;
            }
        }
        reference.push_back(id);
    };

    for (int step = 0; step < 2000; ++step) {
        const cache::BlockId id{
            static_cast<FileId>(rng.uniformInt(0, 19)),
            static_cast<std::uint32_t>(rng.uniformInt(0, 3))};
        if (cache.contains(id)) {
            cache.touch(id, step);
            ref_touch(id);
        } else {
            if (cache.full()) {
                const auto victim = cache.chooseVictim(step);
                ASSERT_TRUE(victim.has_value());
                ASSERT_EQ(*victim, reference.front());
                cache.remove(*victim);
                reference.erase(reference.begin());
            }
            cache.insert(id, step);
            reference.push_back(id);
        }
        ASSERT_EQ(cache.size(), reference.size());
        if (!reference.empty()) {
            ASSERT_EQ(*cache.lruBlock(), reference.front());
        }
    }
}

TEST_P(CacheSeed, DirtyAccountingAlwaysConsistent)
{
    util::Rng rng(GetParam() ^ 0x77);
    cache::BlockCache cache(16);
    std::map<cache::BlockId, Bytes> dirty_model;

    for (int step = 0; step < 1500; ++step) {
        const cache::BlockId id{
            static_cast<FileId>(rng.uniformInt(0, 9)), 0};
        const int action = static_cast<int>(rng.uniformInt(0, 3));
        if (!cache.contains(id)) {
            if (cache.full()) {
                const auto victim = cache.chooseVictim(step);
                cache.remove(*victim);
                dirty_model.erase(*victim);
            }
            cache.insert(id, step);
        }
        switch (action) {
          case 0:
          case 1: {
            const Bytes b = rng.uniformInt(0, kBlockSize - 2);
            const Bytes e = b + 1 + rng.uniformInt(
                                        0, kBlockSize - b - 2);
            cache.markDirty(id, b, e, step);
            dirty_model[id] = cache.peek(id)->dirtyBytes();
            break;
          }
          case 2:
            cache.markClean(id);
            dirty_model.erase(id);
            break;
          case 3: {
            const Bytes cut = rng.uniformInt(0, kBlockSize - 1);
            cache.trimDirty(id, cut, kBlockSize);
            if (cache.peek(id)->isDirty())
                dirty_model[id] = cache.peek(id)->dirtyBytes();
            else
                dirty_model.erase(id);
            break;
          }
        }
        Bytes expected = 0;
        for (const auto &[bid, bytes] : dirty_model)
            expected += bytes;
        ASSERT_EQ(cache.dirtyBytes(), expected);
        ASSERT_EQ(cache.dirtyBlockCount(), dirty_model.size());
        ASSERT_EQ(cache.allDirtyBlocks().size(), dirty_model.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheSeed,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ----------------------------------------------------- LFS invariants

using LfsSeed = SeededTest;

TEST_P(LfsSeed, RandomOpsKeepInvariantsAndRecover)
{
    util::Rng rng(GetParam());
    lfs::LfsConfig config;
    config.segmentBytes = 64 * kKiB;
    lfs::LfsLog log(config);

    for (int step = 0; step < 600; ++step) {
        const auto file = static_cast<FileId>(rng.uniformInt(1, 12));
        const int action = static_cast<int>(rng.uniformInt(0, 9));
        if (action < 6) {
            log.writeBlock(file,
                           static_cast<std::uint32_t>(
                               rng.uniformInt(0, 7)),
                           512 + rng.uniformInt(0, kBlockSize - 512));
        } else if (action < 7) {
            log.deleteFile(file);
        } else if (action < 8) {
            log.truncate(file, rng.uniformInt(0, 6 * kBlockSize));
        } else {
            log.seal(rng.chance(0.5) ? lfs::SealCause::Fsync
                                     : lfs::SealCause::Timeout);
        }
        if (step % 50 == 0) {
            ASSERT_NO_THROW(log.auditInvariants());
        }
    }
    log.seal(lfs::SealCause::Shutdown);
    ASSERT_NO_THROW(log.auditInvariants());

    const auto recovered = lfs::rollForward(log);
    EXPECT_TRUE(recovered.inodes == log.inodes());
}

TEST_P(LfsSeed, RecoveryFromCheckpointMatches)
{
    util::Rng rng(GetParam() ^ 0xBEEF);
    lfs::LfsConfig config;
    config.segmentBytes = 64 * kKiB;
    lfs::LfsLog log(config);

    lfs::Checkpoint checkpoint;
    for (int step = 0; step < 400; ++step) {
        const auto file = static_cast<FileId>(rng.uniformInt(1, 8));
        if (rng.chance(0.8)) {
            log.writeBlock(file,
                           static_cast<std::uint32_t>(
                               rng.uniformInt(0, 5)),
                           kBlockSize);
        } else if (rng.chance(0.5)) {
            log.deleteFile(file);
        } else {
            log.seal(lfs::SealCause::Timeout);
        }
        if (step == 200)
            checkpoint = log.takeCheckpoint();
    }
    log.seal(lfs::SealCause::Shutdown);
    const auto recovered = lfs::rollForward(log, &checkpoint);
    EXPECT_TRUE(recovered.inodes == log.inodes());
}

TEST_P(LfsSeed, CleanerPreservesFileMapUnderChurn)
{
    util::Rng rng(GetParam() ^ 0xC1EA);
    lfs::LfsConfig config;
    config.segmentBytes = 32 * kKiB;
    config.diskSegments = 64;
    lfs::LfsLog log(config);
    lfs::Cleaner cleaner;

    for (int step = 0; step < 500; ++step) {
        const auto file = static_cast<FileId>(rng.uniformInt(1, 6));
        log.writeBlock(file,
                       static_cast<std::uint32_t>(
                           rng.uniformInt(0, 3)),
                       kBlockSize);
        if (rng.chance(0.1))
            log.deleteFile(static_cast<FileId>(rng.uniformInt(1, 6)));
        if (rng.chance(0.05))
            log.seal(lfs::SealCause::Timeout);
        cleaner.maybeClean(log);
    }
    log.seal(lfs::SealCause::Shutdown);
    ASSERT_NO_THROW(log.auditInvariants());
    // Cleaning must never lose the map: recovery still agrees.
    const auto recovered = lfs::rollForward(log);
    EXPECT_TRUE(recovered.inodes == log.inodes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LfsSeed,
                         ::testing::Values(3, 7, 31, 127, 8191));

// ------------------------------------------------ lifetime invariants

class LifetimeTraceTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>>
{
};

TEST_P(LifetimeTraceTest, FatesPartitionWrites)
{
    // For every standard trace and seed: the byte fates exactly
    // partition the written bytes, and the delay sweep is monotone.
    const auto [trace_number, seed] = GetParam();
    workload::GeneratorOptions options;
    options.seed = seed;
    workload::ClientTraceGenerator gen(
        workload::standardProfile(trace_number, 0.02), options);
    const auto buffer = gen.generate();
    const auto ops = prep::convertTrace(buffer);
    const auto life = core::analyzeLifetimes(ops);

    Bytes sum = 0;
    for (int f = 0; f < static_cast<int>(core::ByteFate::Count_); ++f)
        sum += life.fateBytes(static_cast<core::ByteFate>(f));
    EXPECT_EQ(sum, life.totalWritten);
    EXPECT_EQ(life.totalWritten, prep::totals(ops).writeBytes);

    double last = 101.0;
    for (const double minutes : {0.01, 0.1, 1.0, 10.0, 100.0, 1e4}) {
        const double traffic = life.netWriteTrafficPct(
            static_cast<TimeUs>(minutes * kUsPerMinute));
        EXPECT_LE(traffic, last + 1e-9);
        last = traffic;
    }
    // Even at infinite delay, called-back + concurrent + remaining
    // bytes are still traffic.
    const double floor_pct =
        100.0 *
        static_cast<double>(
            life.fateBytes(core::ByteFate::CalledBack) +
            life.fateBytes(core::ByteFate::Concurrent) +
            life.fateBytes(core::ByteFate::Remaining)) /
        static_cast<double>(life.totalWritten);
    EXPECT_NEAR(life.netWriteTrafficPct(kTimeInfinity / 2), floor_pct,
                1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    TracesAndSeeds, LifetimeTraceTest,
    ::testing::Combine(::testing::Values(1, 3, 7),
                       ::testing::Values(1u, 99u)));

} // namespace
} // namespace nvfs

/**
 * @file
 * Unit tests for the util substrate: RNG and distributions, statistics
 * accumulators, interval containers, table formatting, and unit
 * parsing/formatting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "util/audit.hpp"
#include "util/env.hpp"
#include "util/interval_set.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace nvfs::util {
namespace {

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicPerSeed)
{
    Rng a(123), b(123), c(124);
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (i == 0)
            EXPECT_NE(va, c.next());
        else
            c.next();
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 7u);
        saw_lo |= v == 3;
        saw_hi |= v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(11);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
}

TEST(Rng, ExponentialMeanConverges)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(10.0);
    EXPECT_NEAR(sum / n, 10.0, 0.3);
}

TEST(Rng, LogNormalMeanConverges)
{
    Rng rng(17);
    // mean of lognormal(mu, sigma) = exp(mu + sigma^2/2)
    const double mu = std::log(100.0) - 0.5 * 0.25;
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.logNormal(mu, 0.5);
    EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(Rng, ZipfRankZeroMostPopular)
{
    Rng rng(19);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 20000; ++i)
        ++counts[rng.zipf(100, 1.0)];
    EXPECT_GT(counts[0], counts[50]);
    EXPECT_GT(counts[0], 20000 / 100); // clearly above uniform share
    for (const auto &[rank, n] : counts)
        EXPECT_LT(rank, 100u);
}

TEST(Rng, BoundedParetoStaysInBounds)
{
    Rng rng(23);
    for (int i = 0; i < 5000; ++i) {
        const double v = rng.boundedPareto(1.1, 1.0, 1000.0);
        EXPECT_GE(v, 1.0);
        EXPECT_LE(v, 1000.0);
    }
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(31);
    Rng b = a.split();
    EXPECT_NE(a.next(), b.next());
}

TEST(MixtureSampler, RespectsWeights)
{
    Rng rng(37);
    MixtureSampler mix({
        {0.5, MixtureSampler::Kind::Constant, 1.0, 0},
        {0.5, MixtureSampler::Kind::Constant, 2.0, 0},
    });
    int ones = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        const double v = mix.sample(rng);
        ASSERT_TRUE(v == 1.0 || v == 2.0);
        ones += v == 1.0;
    }
    EXPECT_NEAR(static_cast<double>(ones) / n, 0.5, 0.03);
}

TEST(MixtureSampler, InfiniteComponentHuge)
{
    Rng rng(41);
    MixtureSampler mix({{1.0, MixtureSampler::Kind::Infinite, 0, 0}});
    EXPECT_GT(mix.sample(rng), 1e17);
}

// --------------------------------------------------------------- Stats

TEST(Accumulator, BasicMoments)
{
    Accumulator acc;
    for (const double v : {1.0, 2.0, 3.0, 4.0})
        acc.add(v);
    EXPECT_EQ(acc.count(), 4u);
    EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
    EXPECT_DOUBLE_EQ(acc.min(), 1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 4.0);
    EXPECT_NEAR(acc.variance(), 1.25, 1e-12);
}

TEST(Accumulator, WeightedAndMerge)
{
    Accumulator a, b, whole;
    a.add(1.0, 2.0); // counts as two 1.0 observations
    b.add(4.0);
    whole.add(1.0);
    whole.add(1.0);
    whole.add(4.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.mean(), whole.mean());
    EXPECT_DOUBLE_EQ(a.max(), 4.0);
}

TEST(Accumulator, EmptyIsSafe)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(LogHistogram, CumulativeFractions)
{
    LogHistogram hist(0.01, 10000.0);
    hist.add(0.1, 30.0);
    hist.add(100.0, 70.0);
    EXPECT_DOUBLE_EQ(hist.totalWeight(), 100.0);
    EXPECT_NEAR(hist.fractionAtOrBelow(1.0), 0.3, 0.05);
    EXPECT_NEAR(hist.fractionAtOrBelow(9999.0), 1.0, 0.01);
    EXPECT_NEAR(hist.fractionAtOrBelow(0.0099), 0.0, 1e-9);
}

TEST(LogHistogram, UnderOverflowCounted)
{
    LogHistogram hist(1.0, 100.0);
    hist.add(0.5);   // underflow
    hist.add(500.0); // overflow
    EXPECT_DOUBLE_EQ(hist.totalWeight(), 2.0);
    EXPECT_DOUBLE_EQ(hist.cumulativeAtOrBelow(0.9), 0.0);
    EXPECT_DOUBLE_EQ(hist.cumulativeAtOrBelow(1000.0), 2.0);
}

TEST(Percent, Helpers)
{
    EXPECT_DOUBLE_EQ(percent(1.0, 4.0), 25.0);
    EXPECT_DOUBLE_EQ(percent(1.0, 0.0), 0.0);
    EXPECT_EQ(percentString(1.0, 3.0, 1), "33.3");
}

// --------------------------------------------------------- IntervalSet

TEST(IntervalSet, InsertCoalesces)
{
    IntervalSet set;
    set.insert(0, 10);
    set.insert(20, 30);
    EXPECT_EQ(set.runCount(), 2u);
    set.insert(10, 20); // bridges the gap
    EXPECT_EQ(set.runCount(), 1u);
    EXPECT_EQ(set.totalBytes(), 30u);
}

TEST(IntervalSet, InsertOverlapping)
{
    IntervalSet set;
    set.insert(5, 15);
    set.insert(10, 25);
    EXPECT_EQ(set.runCount(), 1u);
    EXPECT_EQ(set.totalBytes(), 20u);
}

TEST(IntervalSet, EraseSplits)
{
    IntervalSet set;
    set.insert(0, 100);
    set.erase(40, 60);
    EXPECT_EQ(set.runCount(), 2u);
    EXPECT_EQ(set.totalBytes(), 80u);
    EXPECT_EQ(set.overlapBytes(0, 100), 80u);
    EXPECT_EQ(set.overlapBytes(40, 60), 0u);
}

TEST(IntervalSet, OverlapBytes)
{
    IntervalSet set;
    set.insert(10, 20);
    set.insert(30, 40);
    EXPECT_EQ(set.overlapBytes(0, 100), 20u);
    EXPECT_EQ(set.overlapBytes(15, 35), 10u);
    EXPECT_EQ(set.overlapBytes(20, 30), 0u);
}

TEST(IntervalSet, EmptyRangesIgnored)
{
    IntervalSet set;
    set.insert(10, 10);
    set.erase(5, 5);
    EXPECT_TRUE(set.empty());
}

TEST(IntervalSet, IncrementalTotalMatchesRecount)
{
    // totalBytes() is maintained incrementally on every mutation; it
    // must always equal a from-scratch recount over the runs.
    const auto recount = [](const IntervalSet &set) {
        Bytes total = 0;
        for (const ByteRange &run : set.runs())
            total += run.length();
        return total;
    };

    Rng rng(99);
    IntervalSet set;
    for (int i = 0; i < 5000; ++i) {
        const Bytes begin = rng.uniformInt(0, 4096);
        const Bytes length = rng.uniformInt(0, 256);
        // Mix of overlapping/adjacent/empty inserts and erases, with
        // occasional clears to restart run growth.
        const int op = static_cast<int>(rng.uniformInt(0, 9));
        if (op == 0)
            set.clear();
        else if (op <= 6)
            set.insert(begin, begin + length);
        else
            set.erase(begin, begin + length);
        ASSERT_EQ(set.totalBytes(), recount(set))
            << "divergence after op " << i;
    }
}

// --------------------------------------------------------- IntervalMap

TEST(IntervalMap, AssignDisplacesOverlap)
{
    IntervalMap<int> map;
    map.assign(0, 100, 1);
    std::vector<std::tuple<Bytes, Bytes, int>> displaced;
    map.assign(40, 60, 2, [&](Bytes b, Bytes e, const int &v) {
        displaced.emplace_back(b, e, v);
    });
    ASSERT_EQ(displaced.size(), 1u);
    EXPECT_EQ(displaced[0], std::make_tuple(Bytes{40}, Bytes{60}, 1));
    EXPECT_EQ(map.totalBytes(), 100u);
    EXPECT_EQ(map.runCount(), 3u); // [0,40)=1 [40,60)=2 [60,100)=1
}

TEST(IntervalMap, AdjacentEqualValuesNotCoalesced)
{
    // Each run keeps its own identity (its own write timestamp).
    IntervalMap<int> map;
    map.assign(0, 10, 1);
    map.assign(10, 20, 1);
    EXPECT_EQ(map.runCount(), 2u);
}

TEST(IntervalMap, EraseReportsPieces)
{
    IntervalMap<int> map;
    map.assign(0, 50, 7);
    Bytes reported = 0;
    map.erase(10, 30, [&](Bytes b, Bytes e, const int &) {
        reported += e - b;
    });
    EXPECT_EQ(reported, 20u);
    EXPECT_EQ(map.totalBytes(), 30u);
}

TEST(IntervalMap, ClearReportsEverything)
{
    IntervalMap<int> map;
    map.assign(0, 10, 1);
    map.assign(20, 25, 2);
    Bytes reported = 0;
    map.clear([&](Bytes b, Bytes e, const int &) { reported += e - b; });
    EXPECT_EQ(reported, 15u);
    EXPECT_TRUE(map.empty());
}

TEST(IntervalMap, ForEachInClipsToRange)
{
    IntervalMap<int> map;
    map.assign(0, 100, 5);
    Bytes seen = 0;
    map.forEachIn(90, 200, [&](Bytes b, Bytes e, const int &v) {
        EXPECT_EQ(v, 5);
        seen += e - b;
    });
    EXPECT_EQ(seen, 10u);
}

// --------------------------------------------------------------- Table

TEST(TextTable, RendersAlignedColumns)
{
    TextTable table({"name", "value"});
    table.addRow({"alpha", "1"});
    table.addRow({"b", "22"});
    const std::string out = table.render("title");
    EXPECT_NE(out.find("title"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(TextTable, SeparatorRows)
{
    TextTable table({"a"});
    table.addRow({"x"});
    table.addSeparator();
    table.addRow({"y"});
    const std::string out = table.render();
    EXPECT_NE(out.find('x'), std::string::npos);
    EXPECT_NE(out.find('y'), std::string::npos);
}

TEST(Format, PrintfStyle)
{
    EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
    // Past the 1 KiB stack buffer: nothing is cut off.
    const std::string long_text(5000, 'y');
    EXPECT_EQ(format("<%s>", long_text.c_str()), "<" + long_text + ">");
}

// --------------------------------------------------------------- Units

TEST(Units, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(4 * kKiB), "4 KB");
    EXPECT_EQ(formatBytes(3 * kMiB), "3 MB");
}

TEST(Units, ParseBytesRoundTrips)
{
    EXPECT_EQ(parseBytes("4096"), 4096u);
    EXPECT_EQ(parseBytes("4K"), 4096u);
    EXPECT_EQ(parseBytes("1.5MB"), kMiB + kMiB / 2);
    EXPECT_EQ(parseBytes("2 GiB"), 2048 * kMiB);
}

TEST(Units, TryParseBytesRejectsWithAReason)
{
    std::string why;
    EXPECT_EQ(tryParseBytes("512K", why), 512 * kKiB);
    for (const char *bad : {"99999999999999999999", "1e19", "-1K", "nan",
                            "8Q", "x"}) {
        why.clear();
        EXPECT_FALSE(tryParseBytes(bad, why).has_value()) << bad;
        EXPECT_FALSE(why.empty()) << bad;
    }
}

TEST(Units, ParseDuration)
{
    EXPECT_EQ(parseDuration("30s"), 30 * kUsPerSecond);
    EXPECT_EQ(parseDuration("5min"), 5 * kUsPerMinute);
    EXPECT_EQ(parseDuration("2h"), 2 * kUsPerHour);
    EXPECT_EQ(parseDuration("1500ms"), 1'500'000);
}

TEST(Units, FormatDuration)
{
    EXPECT_EQ(formatDuration(30 * kUsPerSecond), "30 s");
    EXPECT_EQ(formatDuration(90 * kUsPerMinute), "1.5 h");
}

// -------------------------------------------------- types.hpp helpers

TEST(Types, BlocksCovering)
{
    EXPECT_EQ(blocksCovering(0), 0u);
    EXPECT_EQ(blocksCovering(1), 1u);
    EXPECT_EQ(blocksCovering(kBlockSize), 1u);
    EXPECT_EQ(blocksCovering(kBlockSize + 1), 2u);
}

TEST(Types, SecondsUs)
{
    EXPECT_EQ(secondsUs(1.5), 1'500'000);
}

// ------------------------------------------------------------ env.hpp

TEST(Env, TryParseIntStrict)
{
    EXPECT_EQ(tryParseInt("42"), 42);
    EXPECT_EQ(tryParseInt("-7"), -7);
    EXPECT_EQ(tryParseInt("0"), 0);
    EXPECT_FALSE(tryParseInt("").has_value());
    EXPECT_FALSE(tryParseInt("8x").has_value());
    EXPECT_FALSE(tryParseInt("x8").has_value());
    EXPECT_FALSE(tryParseInt("4 2").has_value());
    EXPECT_FALSE(tryParseInt("3.5").has_value());
    EXPECT_FALSE(tryParseInt("999999999999999999999").has_value());
}

TEST(Env, TryParseDoubleStrict)
{
    EXPECT_EQ(tryParseDouble("1.5"), 1.5);
    EXPECT_EQ(tryParseDouble("-2"), -2.0);
    EXPECT_FALSE(tryParseDouble("").has_value());
    EXPECT_FALSE(tryParseDouble("1.5x").has_value());
    EXPECT_FALSE(tryParseDouble("nan").has_value());
    EXPECT_FALSE(tryParseDouble("inf").has_value());
}

TEST(Env, EnvIntRejectsGarbageAndRange)
{
    // Threadsafe style: each death check re-runs this test in a fresh
    // process up to the EXPECT_EXIT, so the env it sets is replayed.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ::unsetenv("NVFS_TEST_KNOB");
    EXPECT_EQ(envInt("NVFS_TEST_KNOB", 5, 0, 100), 5);
    ::setenv("NVFS_TEST_KNOB", "17", 1);
    EXPECT_EQ(envInt("NVFS_TEST_KNOB", 5, 0, 100), 17);
    // "17x": atoi would say 17.  "101"/"-1": outside [0, 100].
    for (const std::string bad : {"17x", "101", "-1", ""}) {
        ::setenv("NVFS_TEST_KNOB", bad.c_str(), 1);
        EXPECT_EXIT(envInt("NVFS_TEST_KNOB", 5, 0, 100),
                    ::testing::ExitedWithCode(1),
                    "NVFS_TEST_KNOB='" + bad +
                        "' is not an integer in \\[0, 100\\]");
    }
    ::unsetenv("NVFS_TEST_KNOB");
    EXPECT_EQ(argInt("trace", "7", 1, 8), 7);
    EXPECT_EXIT(argInt("trace", "9", 1, 8), ::testing::ExitedWithCode(1),
                "trace='9' is not an integer in \\[1, 8\\]");
}

TEST(Env, EnvDoubleRejectsGarbageAndRange)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ::unsetenv("NVFS_TEST_KNOB");
    EXPECT_EQ(envDouble("NVFS_TEST_KNOB", 0.25, 0.0, 8.0), 0.25);
    ::setenv("NVFS_TEST_KNOB", "0.5", 1);
    EXPECT_EQ(envDouble("NVFS_TEST_KNOB", 0.25, 0.0, 8.0), 0.5);
    for (const std::string bad : {"lots", "0.5x", "9", "nan"}) {
        ::setenv("NVFS_TEST_KNOB", bad.c_str(), 1);
        EXPECT_EXIT(envDouble("NVFS_TEST_KNOB", 0.25, 0.0, 8.0),
                    ::testing::ExitedWithCode(1),
                    "NVFS_TEST_KNOB='" + bad +
                        "' is not a number in \\[0, 8\\]");
    }
    ::unsetenv("NVFS_TEST_KNOB");
    EXPECT_EQ(argDouble("scale", "0.02", 1e-6, 1e6), 0.02);
    EXPECT_EXIT(argDouble("scale", "0", 1e-6, 1e6),
                ::testing::ExitedWithCode(1),
                "scale='0' is not a number in \\[1e-06, 1e\\+06\\]");
}

// ------------------------------------------------ audits (util layer)

TEST(Audit, IntervalSetAuditPassesAndMacroThrows)
{
    IntervalSet set;
    set.insert(10, 20);
    set.insert(30, 40);
    EXPECT_NO_THROW(set.auditInvariants());

    EXPECT_THROW(NVFS_AUDIT_CHECK(1 == 2, "test", "forced"),
                 AuditError);
    try {
        NVFS_AUDIT_CHECK(false, "widget", "broken");
    } catch (const AuditError &e) {
        EXPECT_EQ(e.where(), "widget");
    }
}

TEST(Audit, MovedFromIntervalSetStaysConsistent)
{
    // Regression: a moved-from set kept its scalar byte total while
    // the underlying map was emptied, so the next audit (or totalBytes
    // query) on it saw total_ != sum of runs.  Moves must leave the
    // source empty AND zeroed.
    IntervalSet a;
    a.insert(0, 819);

    IntervalSet b(std::move(a));
    EXPECT_EQ(b.totalBytes(), 819u);
    EXPECT_NO_THROW(b.auditInvariants());
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.totalBytes(), 0u);
    EXPECT_NO_THROW(a.auditInvariants());

    a.insert(5, 10); // reusable after the move
    EXPECT_EQ(a.totalBytes(), 5u);

    IntervalSet c;
    c.insert(100, 200);
    c = std::move(b);
    EXPECT_EQ(c.totalBytes(), 819u);
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.totalBytes(), 0u);
    EXPECT_NO_THROW(b.auditInvariants());

    // The same for a spilled set (two or more runs live in a map, not
    // inline).  Copies must be deep: changing a copy leaves the source
    // as it was.
    const std::vector<ByteRange> three = {{0, 100}, {200, 300}, {400, 500}};
    IntervalSet spilled;
    for (const ByteRange &run : three)
        spilled.insert(run.begin, run.end);
    ASSERT_EQ(spilled.runs(), three);

    IntervalSet copy(spilled);
    copy.erase(50, 450); // back to two runs in the copy only
    EXPECT_EQ(copy.runs(), (std::vector<ByteRange>{{0, 50}, {450, 500}}));
    EXPECT_NO_THROW(copy.auditInvariants());
    copy.insert(50, 450); // one run: inline again
    EXPECT_EQ(copy.runCount(), 1u);
    EXPECT_EQ(copy.totalBytes(), 500u);
    EXPECT_NO_THROW(copy.auditInvariants());

    IntervalSet assigned;
    assigned.insert(1000, 2000);
    assigned = spilled;
    assigned.clear();
    EXPECT_TRUE(assigned.empty());
    EXPECT_EQ(spilled.runs(), three);
    EXPECT_EQ(spilled.totalBytes(), 300u);
    EXPECT_NO_THROW(spilled.auditInvariants());

    IntervalSet moved(std::move(spilled));
    EXPECT_EQ(moved.runs(), three);
    EXPECT_EQ(moved.totalBytes(), 300u);
    EXPECT_TRUE(spilled.empty());
    EXPECT_EQ(spilled.totalBytes(), 0u);
    EXPECT_EQ(spilled.runCount(), 0u);
    EXPECT_EQ(spilled.overlapBytes(0, 500), 0u);
    EXPECT_NO_THROW(spilled.auditInvariants());
    spilled.insert(10, 20); // reusable, inline and spilled
    spilled.insert(30, 40);
    EXPECT_EQ(spilled.runCount(), 2u);
    EXPECT_EQ(spilled.totalBytes(), 20u);
    EXPECT_NO_THROW(spilled.auditInvariants());

    IntervalSet target;
    target.insert(0, 10);
    target.insert(20, 30);
    target = std::move(moved); // the target's own spill is released
    EXPECT_EQ(target.runs(), three);
    EXPECT_NO_THROW(target.auditInvariants());
    EXPECT_TRUE(moved.empty());
    EXPECT_EQ(moved.totalBytes(), 0u);
    EXPECT_EQ(moved.runCount(), 0u);
    EXPECT_NO_THROW(moved.auditInvariants());
}

} // namespace
} // namespace nvfs::util

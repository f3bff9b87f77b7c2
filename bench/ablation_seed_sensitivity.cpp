/**
 * @file
 * Robustness check no paper reproduction should skip: re-generate
 * Trace 7 with several independent seeds and re-run the headline
 * client experiments.  The published conclusions should hold for
 * every realization of the synthetic workload, not just the default
 * seed — this bench reports the across-seed spread of each headline
 * number.
 */

#include "bench_util.hpp"
#include "core/sim/sweep.hpp"

using namespace nvfs;

namespace {

/** Everything one trace realization contributes to the spreads. */
struct SeedResult
{
    double absorbedPct = 0;
    core::Metrics volatileMetrics;
    core::Metrics unifiedMetrics;
};

} // namespace

namespace nvfs::bench {

std::string
ablation_seed_sensitivity()
{
    std::string out = bench::header(
        "seed sensitivity of the headline client results (Trace 7)",
        "conclusions must survive workload re-randomization: spreads "
        "should be a point or two, orderings never flip");

    const double scale = core::benchScale();
    const std::uint64_t seeds[] = {11, 222, 3333, 44444, 555555};

    util::Accumulator absorbed_pct;   // infinite-cache absorption
    util::Accumulator volatile_write; // volatile model net write %
    util::Accumulator unified_write;  // unified + 1 MB net write %
    util::Accumulator unified_total;  // unified + 1 MB net total %
    util::Accumulator volatile_total;
    bool ordering_held = true;

    // Each realization regenerates the trace and runs three analyses;
    // seeds are fully independent, so one parallel task per seed.
    std::vector<std::function<SeedResult()>> tasks;
    for (const std::uint64_t seed : seeds) {
        tasks.push_back([scale, seed] {
            const auto ops = core::opsWithSeed(7, scale, seed);
            const auto life = core::analyzeLifetimes(ops);

            SeedResult result;
            result.absorbedPct =
                100.0 * static_cast<double>(life.absorbedBytes()) /
                static_cast<double>(life.totalWritten);

            core::ModelConfig vol;
            vol.kind = core::ModelKind::Volatile;
            vol.volatileBytes = 8 * kMiB;
            result.volatileMetrics = core::runClientSim(ops, vol);

            core::ModelConfig uni = vol;
            uni.kind = core::ModelKind::Unified;
            uni.nvramBytes = kMiB;
            result.unifiedMetrics = core::runClientSim(ops, uni);
            return result;
        });
    }
    const core::SweepRunner runner;
    for (const SeedResult &result : runner.map(tasks)) {
        absorbed_pct.add(result.absorbedPct);
        const auto &vol_metrics = result.volatileMetrics;
        const auto &uni_metrics = result.unifiedMetrics;
        volatile_write.add(vol_metrics.netWriteTrafficPct());
        volatile_total.add(vol_metrics.netTotalTrafficPct());
        unified_write.add(uni_metrics.netWriteTrafficPct());
        unified_total.add(uni_metrics.netTotalTrafficPct());

        ordering_held &= uni_metrics.netWriteTrafficPct() <
                         vol_metrics.netWriteTrafficPct();
        ordering_held &= uni_metrics.netTotalTrafficPct() <
                         vol_metrics.netTotalTrafficPct();
    }

    util::TextTable table({"metric", "mean", "stddev", "min", "max"});
    auto addRow = [&](const std::string &name,
                      const util::Accumulator &acc) {
        table.addRow({name, util::format("%.1f", acc.mean()),
                      util::format("%.2f", acc.stddev()),
                      util::format("%.1f", acc.min()),
                      util::format("%.1f", acc.max())});
    };
    addRow("infinite-cache absorption %", absorbed_pct);
    addRow("volatile net write %", volatile_write);
    addRow("unified (1 MB) net write %", unified_write);
    addRow("volatile net total %", volatile_total);
    addRow("unified (1 MB) net total %", unified_total);
    out += table.render(util::format("%zu seeds", std::size(seeds))) +
           "\n";
    out += util::format("unified < volatile in every realization: %s\n",
                        ordering_held ? "yes" : "NO — investigate!");
    return out;
}

} // namespace nvfs::bench

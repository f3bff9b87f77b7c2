/**
 * @file
 * Section 2.3 extension: "Reducing write traffic beyond 10 to 17%
 * would require choosing a cache consistency policy more efficient
 * than Sprite's, such as a protocol based on block-by-block
 * invalidation and flushing, rather than whole-file invalidation and
 * flushing [21]."
 *
 * This ablation implements that protocol: when another client opens a
 * dirty file, only the blocks it actually reads are recalled, instead
 * of the whole dirty set.
 */

#include "bench_util.hpp"
#include "core/sim/sweep.hpp"

namespace nvfs::bench {

std::string
ablation_block_callbacks()
{
    std::string out = bench::header(
        "consistency-protocol ablation: whole-file vs. block-level "
        "callbacks",
        "block-level invalidation should cut the callback share of "
        "write traffic (the 10-17% floor of Table 2)");

    const double scale = core::benchScale();

    util::TextTable table({"trace", "net write % (whole-file)",
                           "net write % (block-level)",
                           "callback MB (whole-file)",
                           "callback MB (block-level)"});
    // One task per (trace, protocol) pair; warm the memoized traces
    // serially so worker time is all simulation.
    std::vector<std::function<core::Metrics()>> tasks;
    for (int t = 1; t <= 8; ++t) {
        core::standardOps(t, scale);
        for (const bool block_level : {false, true}) {
            tasks.push_back([t, scale, block_level] {
                const auto &ops = core::standardOps(t, scale);
                core::ClusterConfig config;
                config.model.kind = core::ModelKind::Unified;
                config.model.volatileBytes = 8 * kMiB;
                config.model.nvramBytes = kMiB;
                config.blockLevelCallbacks = block_level;
                core::ClusterSim sim(config,
                                     std::max<std::uint32_t>(
                                         1, ops.clientCount));
                return sim.run(ops);
            });
        }
    }
    const core::SweepRunner runner;
    const auto results = runner.map(tasks);

    std::size_t next = 0;
    for (int t = 1; t <= 8; ++t) {
        const auto &whole_metrics = results[next++];
        const auto &block_metrics = results[next++];

        table.addRow(
            {util::format("%d", t),
             bench::pct(whole_metrics.netWriteTrafficPct()),
             bench::pct(block_metrics.netWriteTrafficPct()),
             util::format("%.1f",
                          toMiB(whole_metrics.serverWrites(
                              core::WriteCause::Callback))),
             util::format("%.1f",
                          toMiB(block_metrics.serverWrites(
                              core::WriteCause::Callback)))});
    }
    out += table.render() + "\n";
    out += "block-level callbacks defer flushes until data is "
           "actually read; bytes the\nreader never touches can "
           "still die in the writer's NVRAM.\n";
    return out;
}

} // namespace nvfs::bench

/**
 * @file
 * Figure 3: net file write traffic under an omniscient NVRAM
 * replacement policy (evict the block with the next-modify time
 * furthest in the future), for each trace and a sweep of NVRAM sizes.
 * Unified model, 8 MB volatile cache.  An LRU baseline table gives
 * the realistic-policy reference the omniscient numbers beat; the
 * LRU sweep runs through the single-pass curve engine (one replay
 * per trace for all ten sizes).
 */

#include "bench_util.hpp"
#include "core/sim/sweep.hpp"

namespace nvfs::bench {

std::string
fig3_omniscient()
{
    std::string out = bench::header(
        "Figure 3: omniscient replacement policy (net write traffic "
        "vs. NVRAM size)",
        "1/8 MB of NVRAM eliminates 30-50% of server write traffic "
        "for most traces; ~50% at 1 MB with rapidly diminishing "
        "returns beyond");

    const double scale = core::benchScale();

    std::vector<std::string> headers = {"NVRAM (MB)"};
    for (int t = 1; t <= 8; ++t)
        headers.push_back("trace " + std::to_string(t));
    util::TextTable table(std::move(headers));

    // Warm the per-trace memoized caches (each trace's op stream and
    // oracle, built in parallel across traces), then run one flat
    // task list, longest first: the eight single-pass LRU baseline
    // curves, one per trace, and then the (size x trace) omniscient
    // grid.  The omniscient policy breaks the inclusion property, so
    // that sweep stays on per-size cells.
    const core::SweepRunner runner;
    std::vector<std::function<const core::NextModifyIndex *()>> warmups;
    for (int t = 1; t <= 8; ++t) {
        warmups.push_back(
            [t, scale] { return &core::standardOracle(t, scale); });
    }
    runner.map(warmups);

    std::vector<std::function<std::vector<core::Metrics>()>> tasks;
    for (int t = 1; t <= 8; ++t) {
        tasks.push_back([t, scale, &runner] {
            core::CurveSpec spec;
            spec.base.kind = core::ModelKind::Unified;
            spec.base.volatileBytes = 8 * kMiB;
            spec.axis = core::CurveAxis::NvramBytes;
            spec.sizes = bench::nvramSizeGridBytes();
            return runner.runCurveSweep(core::standardOps(t, scale),
                                        spec);
        });
    }
    for (const double mb : bench::kNvramSizeGrid) {
        for (int t = 1; t <= 8; ++t) {
            tasks.push_back([t, mb, scale] {
                const auto &ops = core::standardOps(t, scale);
                core::ModelConfig model;
                model.kind = core::ModelKind::Unified;
                model.volatileBytes = 8 * kMiB;
                model.nvramBytes = static_cast<Bytes>(mb * kMiB);
                model.nvramPolicy = cache::PolicyKind::Omniscient;
                model.oracle = &core::standardOracle(t, scale);
                return std::vector<core::Metrics>{
                    core::runClientSim(ops, model)};
            });
        }
    }
    const auto results = runner.map(tasks);
    const auto lru = results.begin();
    const auto omniscient = results.begin() + 8;

    std::size_t next = 0;
    for (const double mb : bench::kNvramSizeGrid) {
        std::vector<std::string> row = {util::format("%g", mb)};
        for (int t = 1; t <= 8; ++t)
            row.push_back(
                bench::pct(omniscient[next++][0].netWriteTrafficPct()));
        table.addRow(std::move(row));
    }
    out += table.render("net write traffic (%)") + "\n";

    // LRU baseline: the same sweep under the realistic policy.
    std::vector<std::string> lru_headers = {"NVRAM (MB)"};
    for (int t = 1; t <= 8; ++t)
        lru_headers.push_back("trace " + std::to_string(t));
    util::TextTable lru_table(std::move(lru_headers));

    for (std::size_t s = 0; s < std::size(bench::kNvramSizeGrid);
         ++s) {
        std::vector<std::string> row = {
            util::format("%g", bench::kNvramSizeGrid[s])};
        for (int t = 1; t <= 8; ++t)
            row.push_back(
                bench::pct(lru[t - 1][s].netWriteTrafficPct()));
        lru_table.addRow(std::move(row));
    }
    out += lru_table.render("LRU baseline (net write traffic %)") + "\n";
    return out;
}

} // namespace nvfs::bench

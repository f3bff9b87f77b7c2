/**
 * @file
 * Figure 4: replacement policies.  Net file write traffic achieved by
 * LRU, random, and omniscient NVRAM replacement on Trace 7, across
 * NVRAM sizes (unified model, 8 MB volatile cache).  Clock is added
 * as an extra realistic policy beyond the paper's set.  The LRU
 * series runs through the single-pass curve engine (one replay for
 * all ten sizes); the other policies break the inclusion property
 * and stay on the per-size grid.
 */

#include "bench_util.hpp"
#include "core/sim/sweep.hpp"

namespace nvfs::bench {

std::string
fig4_replacement_policies()
{
    std::string out = bench::header(
        "Figure 4: replacement policies (Trace 7, net write traffic "
        "vs. NVRAM size)",
        "random behaves almost as well as LRU; omniscient is only "
        "10-15% better at 1 MB, at most ~22% anywhere");

    const double scale = core::benchScale();
    const int trace = 7;
    const auto &ops = core::standardOps(trace, scale);

    const core::SweepRunner runner;

    core::CurveSpec lru_spec;
    lru_spec.base.kind = core::ModelKind::Unified;
    lru_spec.base.volatileBytes = 8 * kMiB;
    lru_spec.axis = core::CurveAxis::NvramBytes;
    lru_spec.sizes = bench::nvramSizeGridBytes();
    const auto lru = runner.runCurveSweep(ops, lru_spec);

    std::vector<core::ModelConfig> models;
    for (const double mb : bench::kNvramSizeGrid) {
        for (const auto policy :
             {cache::PolicyKind::Random, cache::PolicyKind::Clock,
              cache::PolicyKind::Omniscient}) {
            core::ModelConfig model;
            model.kind = core::ModelKind::Unified;
            model.volatileBytes = 8 * kMiB;
            model.nvramBytes = static_cast<Bytes>(mb * kMiB);
            model.nvramPolicy = policy;
            if (policy == cache::PolicyKind::Omniscient)
                model.oracle = &core::standardOracle(trace, scale);
            models.push_back(model);
        }
    }
    const auto results = runner.runClientSweep(ops, models);

    util::TextTable table({"NVRAM (MB)", "LRU", "random", "clock",
                           "omniscient"});
    std::size_t next = 0;
    std::size_t size_index = 0;
    for (const double mb : bench::kNvramSizeGrid) {
        std::vector<std::string> row = {util::format("%g", mb)};
        row.push_back(
            bench::pct(lru[size_index++].netWriteTrafficPct()));
        for (int column = 0; column < 3; ++column)
            row.push_back(
                bench::pct(results[next++].netWriteTrafficPct()));
        table.addRow(std::move(row));
    }
    out += table.render("net write traffic (%)") + "\n";
    return out;
}

} // namespace nvfs::bench

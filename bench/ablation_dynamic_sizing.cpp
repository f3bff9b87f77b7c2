/**
 * @file
 * Section 2.1's first simplification, ablated: "Sprite's caches
 * change in size, according to the relative memory needs of the file
 * system and the virtual memory system.  For simplicity, we assumed
 * caches of static size in this study."
 *
 * Runs the volatile model with the real dynamic behaviour (capacity
 * oscillating against VM pressure) at several floor fractions, to
 * show how much the static-size simplification can bias the baseline.
 */

#include "bench_util.hpp"

namespace nvfs::bench {

std::string
ablation_dynamic_sizing()
{
    std::string out = bench::header(
        "volatile-model ablation: static vs. dynamic cache sizing "
        "(Trace 7, 8 MB)",
        "the paper simulated a static cache; real Sprite caches "
        "shrink under VM pressure, costing some of both read and "
        "write absorption");

    const double scale = core::benchScale();
    const auto &ops = core::standardOps(7, scale);

    util::TextTable table({"sizing", "net write %", "net total %",
                           "server reads MB"});
    {
        core::ModelConfig model;
        model.kind = core::ModelKind::Volatile;
        model.volatileBytes = 8 * kMiB;
        const auto metrics = core::runClientSim(ops, model);
        table.addRow({"static 8 MB (the paper's model)",
                      bench::pct(metrics.netWriteTrafficPct()),
                      bench::pct(metrics.netTotalTrafficPct()),
                      util::format("%.1f",
                                   toMiB(metrics.serverReadBytes))});
    }
    for (const double floor : {0.75, 0.5, 0.25}) {
        core::ModelConfig model;
        model.kind = core::ModelKind::Volatile;
        model.volatileBytes = 8 * kMiB;
        model.dynamicSizing = true;
        model.dynamicMinFraction = floor;
        const auto metrics = core::runClientSim(ops, model);
        table.addRow({util::format("dynamic, floor %.0f%%",
                                   100.0 * floor),
                      bench::pct(metrics.netWriteTrafficPct()),
                      bench::pct(metrics.netTotalTrafficPct()),
                      util::format("%.1f",
                                   toMiB(metrics.serverReadBytes))});
    }
    out += table.render() + "\n";
    out += "shrink phases evict blocks early (read misses and "
           "forced write-backs);\nthe static simplification is "
           "therefore a slightly optimistic baseline.\n";
    return out;
}

} // namespace nvfs::bench

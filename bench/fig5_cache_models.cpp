/**
 * @file
 * Figure 5: effect of cache models on net *total* (read + write)
 * traffic, Trace 7.  Every model starts from an 8 MB volatile cache;
 * the X axis adds memory — volatile memory for the volatile model,
 * NVRAM for the write-aside and unified models.
 */

#include "bench_util.hpp"
#include "core/sim/sweep.hpp"

namespace nvfs::bench {

std::string
fig5_cache_models()
{
    std::string out = bench::header(
        "Figure 5: effect of cache models on net total traffic "
        "(Trace 7, 8 MB base)",
        "with +4 MB the unified model is ~8% better than volatile and "
        "write-aside ~8% worse; at +8 MB the gaps are ~14%");

    const double scale = core::benchScale();
    const auto &ops = core::standardOps(7, scale);
    const double extra_mb[] = {0, 0.5, 1, 2, 4, 6, 8};

    // Build the whole grid row-major, then fan it out.
    std::vector<core::ModelConfig> models;
    for (const double extra : extra_mb) {
        // Volatile model: extra volatile memory.
        core::ModelConfig vol;
        vol.kind = core::ModelKind::Volatile;
        vol.volatileBytes = static_cast<Bytes>((8 + extra) * kMiB);
        models.push_back(vol);

        // NVRAM models: extra NVRAM on top of the 8 MB base.  No
        // NVRAM at all degenerates to the volatile model without the
        // 30-second write-back; use the smallest representable NVRAM
        // (one block) for continuity.
        for (const auto kind :
             {core::ModelKind::WriteAside, core::ModelKind::Unified}) {
            core::ModelConfig model;
            model.kind = kind;
            model.volatileBytes = 8 * kMiB;
            model.nvramBytes = extra == 0
                                   ? kBlockSize
                                   : static_cast<Bytes>(extra * kMiB);
            models.push_back(model);
        }
    }
    const core::SweepRunner runner;
    const auto results = runner.runClientSweep(ops, models);

    util::TextTable table({"extra MB", "volatile", "write-aside",
                           "unified"});
    std::size_t next = 0;
    for (const double extra : extra_mb) {
        std::vector<std::string> row = {util::format("%g", extra)};
        for (int column = 0; column < 3; ++column)
            row.push_back(
                bench::pct(results[next++].netTotalTrafficPct()));
        table.addRow(std::move(row));
    }
    out += table.render("net total traffic (%)") + "\n";
    out += "expected ordering for larger additions: unified < "
           "volatile < write-aside\n(the unified model also "
           "caches clean blocks in NVRAM; write-aside only "
           "duplicates dirty ones).\n";
    return out;
}

} // namespace nvfs::bench

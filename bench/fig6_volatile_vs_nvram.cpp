/**
 * @file
 * Figure 6: benefits of additional memory.  Net total traffic for the
 * volatile and unified models starting from 8 MB and from 16 MB of
 * volatile cache, as memory is added (volatile memory for the
 * volatile model, NVRAM for the unified model) — the input to the
 * Section 2.7 cost-effectiveness argument.  All four series are
 * LRU-managed size sweeps, so each one is a single curve-engine
 * replay instead of seven independent simulations.
 */

#include "bench_util.hpp"
#include "core/sim/sweep.hpp"

namespace nvfs::bench {

std::string
fig6_volatile_vs_nvram()
{
    std::string out = bench::header(
        "Figure 6: benefits of additional memory (Trace 7)",
        "on an 8 MB base, 2 MB of NVRAM ~= 4 MB of volatile memory; "
        "on a 16 MB base, 1/2 MB of NVRAM ~= 6 MB of volatile memory");

    const double scale = core::benchScale();
    const auto &ops = core::standardOps(7, scale);
    const double extra_mb[] = {0, 0.5, 1, 2, 4, 6, 8};

    const core::SweepRunner runner;
    // Column-major: (volatile-8, unified-8, volatile-16, unified-16),
    // one curve sweep per series over the shared extra-memory axis.
    std::vector<std::vector<core::Metrics>> series;
    for (const Bytes base : {Bytes{8 * kMiB}, Bytes{16 * kMiB}}) {
        core::CurveSpec vol;
        vol.base.kind = core::ModelKind::Volatile;
        vol.axis = core::CurveAxis::VolatileBytes;
        for (const double extra : extra_mb)
            vol.sizes.push_back(base +
                                static_cast<Bytes>(extra * kMiB));
        series.push_back(runner.runCurveSweep(ops, vol));

        core::CurveSpec uni;
        uni.base.kind = core::ModelKind::Unified;
        uni.base.volatileBytes = base;
        uni.axis = core::CurveAxis::NvramBytes;
        for (const double extra : extra_mb)
            uni.sizes.push_back(
                extra == 0 ? kBlockSize
                           : static_cast<Bytes>(extra * kMiB));
        series.push_back(runner.runCurveSweep(ops, uni));
    }

    util::TextTable table({"extra MB", "volatile-8MB", "unified-8MB",
                           "volatile-16MB", "unified-16MB"});
    for (std::size_t row_index = 0;
         row_index < std::size(extra_mb); ++row_index) {
        std::vector<std::string> row = {
            util::format("%g", extra_mb[row_index])};
        for (const auto &column : series)
            row.push_back(
                bench::pct(column[row_index].netTotalTrafficPct()));
        table.addRow(std::move(row));
    }
    out += table.render("net total traffic (%)") + "\n";
    return out;
}

} // namespace nvfs::bench

/**
 * @file
 * Section 2.7: non-volatile versus volatile memory per dollar.  Builds
 * the Figure 6 curves, finds how much extra volatile memory produces
 * the same traffic as each NVRAM size, and compares the break-even
 * price ratio against the Table 1 prices.
 */

#include "bench_util.hpp"
#include "core/sim/sweep.hpp"
#include "nvram/cost.hpp"

using namespace nvfs;

namespace {

std::vector<nvram::CurvePoint>
buildCurve(const core::SweepRunner &runner, const prep::OpStream &ops,
           core::ModelKind kind, Bytes base,
           const std::vector<double> &extras_mb)
{
    // Both Figure 6 curves are LRU-managed size sweeps, so each one
    // is a single curve-engine replay over all its points.
    core::CurveSpec spec;
    spec.base.kind = kind;
    if (kind == core::ModelKind::Volatile) {
        spec.axis = core::CurveAxis::VolatileBytes;
        for (const double extra : extras_mb)
            spec.sizes.push_back(base +
                                 static_cast<Bytes>(extra * kMiB));
    } else {
        spec.base.volatileBytes = base;
        spec.axis = core::CurveAxis::NvramBytes;
        for (const double extra : extras_mb)
            spec.sizes.push_back(
                extra == 0 ? kBlockSize
                           : static_cast<Bytes>(extra * kMiB));
    }
    const auto results = runner.runCurveSweep(ops, spec);

    std::vector<nvram::CurvePoint> curve;
    for (std::size_t i = 0; i < extras_mb.size(); ++i)
        curve.push_back(
            {extras_mb[i], results[i].netTotalTrafficPct()});
    return curve;
}

} // namespace

namespace nvfs::bench {

std::string
table_cost_effectiveness()
{
    std::string out = bench::header(
        "Section 2.7: cost-effectiveness of NVRAM vs. volatile memory "
        "(Trace 7)",
        "with 8 MB volatile, NVRAM wins if priced < ~2x DRAM (not yet "
        "true in 1992); with 16 MB volatile, 1/2 MB NVRAM ~= 6 MB "
        "DRAM and NVRAM wins even at 1992 prices");

    const double scale = core::benchScale();
    const auto &ops = core::standardOps(7, scale);
    const std::vector<double> extras = {0, 0.5, 1, 2, 4, 6, 8};

    const double dram = nvram::dramPricePerMB();
    const core::SweepRunner runner;

    for (const Bytes base : {Bytes{8 * kMiB}, Bytes{16 * kMiB}}) {
        const auto vol_curve = buildCurve(
            runner, ops, core::ModelKind::Volatile, base, extras);
        const auto uni_curve = buildCurve(
            runner, ops, core::ModelKind::Unified, base, extras);

        out += "base volatile cache: " + util::formatBytes(base) + "\n";
        util::TextTable table({"NVRAM MB", "traffic %",
                               "equivalent volatile MB",
                               "break-even price ratio",
                               "1992 verdict"});
        for (const double mb : {0.5, 1.0, 2.0, 4.0}) {
            const double equivalent = nvram::equivalentVolatileMB(
                vol_curve, uni_curve, mb);
            const double ratio = nvram::breakEvenPriceRatio(
                vol_curve, uni_curve, mb);
            const double nvram_price =
                nvram::cheapestNvramPricePerMB(mb);
            const bool wins = ratio >= nvram_price / dram;
            double traffic = uni_curve.back().trafficPct;
            for (const auto &p : uni_curve) {
                if (p.extraMB == mb) {
                    traffic = p.trafficPct;
                    break;
                }
            }
            table.addRow({util::format("%g", mb), bench::pct(traffic),
                          util::format("%.1f", equivalent),
                          util::format("%.1fx", ratio),
                          wins ? "buy NVRAM" : "buy DRAM"});
        }
        out += table.render() + "\n";
    }
    out += util::format("1992 prices: DRAM $%.0f/MB; cheapest small-config "
                        "NVRAM $%.0f/MB (%.1fx)\n",
                        dram, nvram::cheapestNvramPricePerMB(1.0),
                        nvram::cheapestNvramPricePerMB(1.0) / dram);
    return out;
}

} // namespace nvfs::bench

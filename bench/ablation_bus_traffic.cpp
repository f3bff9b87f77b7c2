/**
 * @file
 * Section 2.6 ablation: memory-bus traffic and NVRAM access counts of
 * the two NVRAM models (Trace 7, 8 MB volatile + 8 MB NVRAM).
 *
 * Paper claims: the unified model generates >= 25% less file-cache
 * traffic on the local memory bus; it makes 2-2.5x as many NVRAM
 * accesses; cache->NVRAM transfers (partial updates of a clean cached
 * block) are under 1% of application write events.
 */

#include "bench_util.hpp"

namespace nvfs::bench {

std::string
ablation_bus_traffic()
{
    std::string out = bench::header(
        "Section 2.6: memory bus traffic and NVRAM accesses "
        "(Trace 7, 8 MB + 8 MB)",
        "unified does >= 25% less bus traffic; 2-2.5x more NVRAM "
        "accesses; cache->NVRAM transfers < 1% of writes");

    const double scale = core::benchScale();
    const auto &ops = core::standardOps(7, scale);

    core::Metrics results[2];
    const core::ModelKind kinds[2] = {core::ModelKind::WriteAside,
                                      core::ModelKind::Unified};
    for (int i = 0; i < 2; ++i) {
        core::ModelConfig model;
        model.kind = kinds[i];
        model.volatileBytes = 8 * kMiB;
        model.nvramBytes = 8 * kMiB;
        results[i] = core::runClientSim(ops, model);
    }

    util::TextTable table({"metric", "write-aside", "unified",
                           "unified / write-aside"});
    auto ratio = [](double a, double b) {
        return b != 0.0 ? util::format("%.2fx", a / b)
                        : std::string("n/a");
    };
    const auto &wa = results[0];
    const auto &un = results[1];
    table.addRow({"bus traffic (MB)",
                  util::format("%.1f", toMiB(wa.busBytes)),
                  util::format("%.1f", toMiB(un.busBytes)),
                  ratio(static_cast<double>(un.busBytes),
                        static_cast<double>(wa.busBytes))});
    const double wa_acc = static_cast<double>(wa.nvramReadAccesses +
                                              wa.nvramWriteAccesses);
    const double un_acc = static_cast<double>(un.nvramReadAccesses +
                                              un.nvramWriteAccesses);
    table.addRow({"NVRAM accesses",
                  util::format("%.0f", wa_acc),
                  util::format("%.0f", un_acc),
                  ratio(un_acc, wa_acc)});
    table.addRow({"NVRAM reads",
                  util::format("%llu",
                               static_cast<unsigned long long>(
                                   wa.nvramReadAccesses)),
                  util::format("%llu",
                               static_cast<unsigned long long>(
                                   un.nvramReadAccesses)),
                  ratio(static_cast<double>(un.nvramReadAccesses),
                        static_cast<double>(wa.nvramReadAccesses))});
    table.addRow({"net write traffic %",
                  bench::pct(wa.netWriteTrafficPct()),
                  bench::pct(un.netWriteTrafficPct()), ""});
    table.addRow({"net total traffic %",
                  bench::pct(wa.netTotalTrafficPct()),
                  bench::pct(un.netTotalTrafficPct()), ""});
    out += table.render() + "\n";

    out += util::format("unified cache->NVRAM promotion traffic: %.2f%% of "
                        "application write bytes (paper: < 1%%)\n",
                        util::percent(
                            static_cast<double>(un.cacheToNvramBytes),
                            static_cast<double>(un.appWriteBytes)));
    out += util::format("unified bus saving vs write-aside: %.1f%% (paper: "
                        ">= 25%%)\n",
                        util::percent(static_cast<double>(wa.busBytes) -
                                          static_cast<double>(un.busBytes),
                                      static_cast<double>(wa.busBytes)));
    return out;
}

} // namespace nvfs::bench

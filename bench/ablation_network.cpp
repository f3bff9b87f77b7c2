/**
 * @file
 * The paper's premise, quantified on a network model: "As file caches
 * on both clients and servers continue to grow and satisfy even more
 * read traffic, the proportion of write traffic will increase and
 * could potentially become a bottleneck."
 *
 * Runs Trace 7 at growing volatile cache sizes and reports what share
 * of the remaining client-server traffic is writes, plus the wire
 * time a 10 Mbit/s Ethernet would spend on it — with and without
 * 1 MB of client NVRAM.
 */

#include "bench_util.hpp"
#include "core/sim/sweep.hpp"
#include "net/network_model.hpp"

namespace nvfs::bench {

std::string
ablation_network()
{
    std::string out = bench::header(
        "network ablation: writes become the bottleneck as caches "
        "grow",
        "client caches absorb ~60% of reads but only ~10% of writes; "
        "writes approach and pass half the remaining traffic");

    const double scale = core::benchScale();
    const auto &ops = core::standardOps(7, scale);
    const net::NetworkModel wire;
    const TimeUs day = 24 * kUsPerHour;

    const double cache_mb[] = {4.0, 8.0, 16.0, 32.0, 64.0};
    std::vector<core::ModelConfig> models;
    for (const double mb : cache_mb) {
        core::ModelConfig vol;
        vol.kind = core::ModelKind::Volatile;
        vol.volatileBytes = static_cast<Bytes>(mb * kMiB);
        models.push_back(vol);

        core::ModelConfig uni = vol;
        uni.kind = core::ModelKind::Unified;
        uni.nvramBytes = kMiB;
        models.push_back(uni);
    }
    const core::SweepRunner runner;
    const auto results = runner.runClientSweep(ops, models);

    util::TextTable table({"volatile MB", "write share of traffic %",
                           "wire time (volatile) s",
                           "wire time (+1 MB NVRAM) s", "saving %"});
    std::size_t next = 0;
    for (const double mb : cache_mb) {
        const auto &base = results[next++];
        const auto &nvram = results[next++];

        const Bytes base_total =
            base.totalServerWrites() + base.serverReadBytes;
        const Bytes nvram_total =
            nvram.totalServerWrites() + nvram.serverReadBytes;
        const double base_ms = wire.transfer(base_total).totalMs();
        const double nvram_ms = wire.transfer(nvram_total).totalMs();

        table.addRow(
            {util::format("%g", mb),
             bench::pct(util::percent(
                 static_cast<double>(base.totalServerWrites()),
                 static_cast<double>(base_total))),
             util::format("%.1f", base_ms / 1000.0),
             util::format("%.1f", nvram_ms / 1000.0),
             bench::pct(util::percent(base_ms - nvram_ms, base_ms))});
        (void)day;
    }
    out += table.render() + "\n";
    out += "as the volatile cache grows, reads vanish from the "
           "wire and the write share rises —\nexactly the trend "
           "that motivates client NVRAM.\n";
    return out;
}

} // namespace nvfs::bench

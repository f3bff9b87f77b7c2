/**
 * @file
 * Interactive-ish exploration of the client cache design space: sweep
 * NVRAM size, replacement policy, and cache model over one standard
 * trace from the command line.
 *
 * Usage: client_cache_explorer [trace 1..8] [scale] [volatileMB]
 *
 * Prints, for every (model, policy, NVRAM size) combination, the net
 * write and total traffic — the exploration behind Figures 3-6.
 */

#include <cstdio>
#include <cstdlib>

#include "core/sim/experiments.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

using namespace nvfs;

int
main(int argc, char **argv)
{
    const int trace = static_cast<int>(
        argc > 1 ? util::argInt("trace", argv[1], 1, 8) : 7);
    const double scale =
        argc > 2 ? util::argDouble("scale", argv[2], 1e-6, 1e6) : 0.25;
    const double volatile_mb =
        argc > 3 ? util::argDouble("volatile-mb", argv[3], 0, 1e6) : 8.0;

    std::printf("client cache explorer: trace %d, scale %.2f, "
                "%.1f MB volatile cache\n\n",
                trace, scale, volatile_mb);
    const auto &ops = core::standardOps(trace, scale);
    const auto &oracle = core::standardOracle(trace, scale);

    // Baseline: the volatile model at this cache size.
    core::ModelConfig base;
    base.kind = core::ModelKind::Volatile;
    base.volatileBytes = static_cast<Bytes>(volatile_mb * kMiB);
    const auto baseline = core::runClientSim(ops, base);
    std::printf("volatile baseline: net write %.1f%%, net total "
                "%.1f%%\n\n",
                baseline.netWriteTrafficPct(),
                baseline.netTotalTrafficPct());

    util::TextTable table({"model", "policy", "NVRAM", "net write %",
                           "net total %", "NVRAM accesses"});
    const double sizes_mb[] = {0.25, 1.0, 4.0};
    for (const auto kind :
         {core::ModelKind::WriteAside, core::ModelKind::Unified}) {
        for (const auto policy :
             {cache::PolicyKind::Lru, cache::PolicyKind::Random,
              cache::PolicyKind::Clock,
              cache::PolicyKind::Omniscient}) {
            for (const double mb : sizes_mb) {
                core::ModelConfig model;
                model.kind = kind;
                model.volatileBytes = base.volatileBytes;
                model.nvramBytes = static_cast<Bytes>(mb * kMiB);
                model.nvramPolicy = policy;
                if (policy == cache::PolicyKind::Omniscient)
                    model.oracle = &oracle;
                const auto metrics = core::runClientSim(ops, model);
                table.addRow(
                    {core::modelKindName(kind),
                     cache::policyName(policy),
                     util::format("%.2g MB", mb),
                     util::format("%.1f",
                                  metrics.netWriteTrafficPct()),
                     util::format("%.1f",
                                  metrics.netTotalTrafficPct()),
                     util::format(
                         "%llu",
                         static_cast<unsigned long long>(
                             metrics.nvramReadAccesses +
                             metrics.nvramWriteAccesses))});
            }
        }
        table.addSeparator();
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("things to notice (the paper's findings):\n"
                " - the policy barely matters; the model and size "
                "do\n"
                " - unified beats write-aside on total traffic at "
                "equal NVRAM\n"
                " - returns diminish quickly past 1 MB\n");
    return 0;
}

/**
 * @file
 * Quickstart: generate a small Sprite-like trace, run the byte-lifetime
 * analysis and the three client cache models, and print a traffic
 * summary — a five-minute tour of the library.
 *
 * Usage: quickstart [trace-number 1..8] [scale]
 */

#include <cstdio>
#include <cstdlib>

#include "core/sim/experiments.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace nvfs;

int
main(int argc, char **argv)
{
    const int trace = static_cast<int>(
        argc > 1 ? util::argInt("trace", argv[1], 1, 8) : 7);
    const double scale =
        argc > 2 ? util::argDouble("scale", argv[2], 1e-6, 1e6) : 0.25;

    std::printf("nvfs quickstart: trace %d at scale %.2f\n\n", trace,
                scale);

    // 1. Generate + preprocess the trace (memoized by the driver).
    const prep::OpStream &ops = core::standardOps(trace, scale);
    const prep::OpStreamTotals totals = prep::totals(ops);
    std::printf("trace: %zu ops, %s written, %s read, %llu fsyncs\n",
                ops.ops.size(),
                util::formatBytes(totals.writeBytes).c_str(),
                util::formatBytes(totals.readBytes).c_str(),
                static_cast<unsigned long long>(totals.fsyncs));

    // 2. Byte lifetimes with an infinite non-volatile cache.
    const core::LifetimeResult &life = core::standardLifetimes(trace,
                                                               scale);
    std::printf("\nbyte fate with an infinite NVRAM:\n");
    for (int f = 0; f < static_cast<int>(core::ByteFate::Count_); ++f) {
        const auto fate = static_cast<core::ByteFate>(f);
        std::printf("  %-16s %6.2f%%\n", core::byteFateName(fate).c_str(),
                    100.0 * static_cast<double>(life.fateBytes(fate)) /
                        static_cast<double>(life.totalWritten));
    }
    std::printf("  net write traffic if flushed after 30 s: %.1f%%\n",
                life.netWriteTrafficPct(30 * kUsPerSecond));

    // 3. The three cache models, 8 MB volatile (+1 MB NVRAM).
    util::TextTable table({"model", "net write %", "net total %",
                           "NVRAM reads", "NVRAM writes"});
    for (core::ModelKind kind :
         {core::ModelKind::Volatile, core::ModelKind::WriteAside,
          core::ModelKind::Unified}) {
        core::ModelConfig model;
        model.kind = kind;
        model.volatileBytes = 8 * kMiB;
        model.nvramBytes = kMiB;
        const core::Metrics metrics = core::runClientSim(ops, model);
        table.addRow({core::modelKindName(kind),
                      util::format("%.1f", metrics.netWriteTrafficPct()),
                      util::format("%.1f", metrics.netTotalTrafficPct()),
                      util::format("%llu",
                                   static_cast<unsigned long long>(
                                       metrics.nvramReadAccesses)),
                      util::format("%llu",
                                   static_cast<unsigned long long>(
                                       metrics.nvramWriteAccesses))});
    }
    std::printf("\n%s\n",
                table.render("client cache models (8 MB volatile, "
                             "1 MB NVRAM)").c_str());
    std::printf("Lower traffic is better; the unified model should "
                "win on both columns.\n");
    return 0;
}

/**
 * @file
 * Trace tooling demo: generate a standard trace, persist it in the
 * binary format, read it back, validate it, run pass 1, and print a
 * statistical profile — the workflow for anyone bringing their own
 * traces to the simulator (the text format is line-per-event and easy
 * to produce from other tools).
 *
 * Usage: trace_inspect [trace 1..8] [scale] [out.trace]
 */

#include <cstdio>
#include <cstdlib>
#include <map>

#include "prep/characterize.hpp"
#include "prep/converter.hpp"
#include "trace/stream.hpp"
#include "trace/validate.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "workload/generator.hpp"

using namespace nvfs;

int
main(int argc, char **argv)
{
    const int trace_number = static_cast<int>(
        argc > 1 ? util::argInt("trace", argv[1], 1, 8) : 2);
    const double scale =
        argc > 2 ? util::argDouble("scale", argv[2], 1e-6, 1e6) : 0.1;
    const std::string path =
        argc > 3 ? argv[3] : "/tmp/nvfs_demo.trace";

    // 1. Generate in the Sprite-compat dialect (offset deduction).
    const auto buffer =
        workload::generateStandardTrace(trace_number, scale, true);
    std::printf("generated trace %d: %zu events over %s\n",
                trace_number, buffer.events.size(),
                util::formatDuration(buffer.header.duration).c_str());

    // 2. Round-trip through the binary trace format.
    trace::writeTraceFile(path, buffer);
    const auto loaded = trace::readTraceFile(path);
    std::printf("wrote %s and read back %zu events\n", path.c_str(),
                loaded.events.size());

    // 3. Validate.
    const auto report = trace::validateTrace(loaded);
    std::printf("validation: %s (%zu events checked, %zu issues)\n",
                report.ok() ? "OK" : "FAILED", report.eventsChecked,
                report.issues.size());

    // 4. Event-type census.
    std::map<trace::EventType, std::uint64_t> census;
    for (const auto &event : loaded.events)
        ++census[event.type];
    util::TextTable events({"event", "count"});
    for (const auto &[type, count] : census) {
        events.addRow({trace::eventTypeName(type),
                       util::format("%llu",
                                    static_cast<unsigned long long>(
                                        count))});
    }
    std::printf("\n%s\n", events.render("raw events").c_str());

    // 5. Pass 1: reconstruct byte-range operations from offsets.
    prep::ConvertStats stats;
    const auto ops = prep::convertTrace(loaded, &stats);
    const auto totals = prep::totals(ops);
    util::TextTable summary({"metric", "value"});
    summary.addRow({"ops", util::format("%zu", ops.ops.size())});
    summary.addRow({"write bytes (deduced)",
                    util::formatBytes(stats.deducedWriteBytes)});
    summary.addRow({"read bytes (deduced)",
                    util::formatBytes(stats.deducedReadBytes)});
    summary.addRow({"writes", util::format("%llu",
                                           static_cast<unsigned long long>(
                                               totals.writes))});
    summary.addRow({"reads", util::format("%llu",
                                          static_cast<unsigned long long>(
                                              totals.reads))});
    summary.addRow({"deletes", util::format("%llu",
                                            static_cast<unsigned long long>(
                                                totals.deletes))});
    summary.addRow({"fsyncs", util::format("%llu",
                                           static_cast<unsigned long long>(
                                               totals.fsyncs))});
    std::printf("%s\n",
                summary.render("pass 1 (offset deduction)").c_str());

    // 6. Workload characterization in the style of the 1991 Sprite
    // measurement study.
    const auto profile = prep::characterize(ops);
    std::printf("%s\n",
                profile.render("workload characterization").c_str());

    std::remove(path.c_str());
    return 0;
}

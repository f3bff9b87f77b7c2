/**
 * @file
 * Section 2.1 ablation: the paper's volatile model deliberately drops
 * Sprite's preference for keeping dirty blocks ("Giving dirty blocks
 * preference helps reduce write traffic, but at the expense of
 * increasing read traffic").  This bench quantifies that trade-off by
 * running the volatile model both ways.
 */

#include "bench_util.hpp"
#include "core/sim/sweep.hpp"

namespace nvfs::bench {

std::string
ablation_dirty_preference()
{
    std::string out = bench::header(
        "volatile-model ablation: dirty-block preference in "
        "replacement",
        "preferring dirty blocks trades read traffic for write "
        "traffic (the simplification the paper's model makes)");

    const double scale = core::benchScale();
    const auto &ops = core::standardOps(7, scale);

    // With Sprite's 30-second write-back, dirty blocks are cleaned
    // long before they drift to the LRU tail, so the preference is
    // inert — which is why the paper could drop it.  It only starts
    // to matter as dirty data is allowed to live longer (exactly the
    // regime NVRAM enables), so sweep the write-back age.
    util::TextTable table({"write-back age", "cache MB",
                           "write % (plain)", "write % (pref)",
                           "read MB (plain)", "read MB (pref)",
                           "total % (plain)", "total % (pref)"});
    const double ages_s[] = {30.0, 300.0, 1800.0};
    const double sizes_mb[] = {1.0, 4.0};
    std::vector<core::ModelConfig> models;
    for (const double age_s : ages_s) {
        for (const double mb : sizes_mb) {
            core::ModelConfig model;
            model.kind = core::ModelKind::Volatile;
            model.volatileBytes = static_cast<Bytes>(mb * kMiB);
            model.writeBackAge = secondsUs(age_s);
            models.push_back(model);
            model.dirtyPreference = true;
            models.push_back(model);
        }
    }
    const core::SweepRunner runner;
    const auto results = runner.runClientSweep(ops, models);

    std::size_t next = 0;
    for (const double age_s : ages_s) {
        for (const double mb : sizes_mb) {
            const auto &plain = results[next++];
            const auto &pref = results[next++];

            table.addRow(
                {util::formatDuration(secondsUs(age_s)),
                 util::format("%g", mb),
                 bench::pct(plain.netWriteTrafficPct()),
                 bench::pct(pref.netWriteTrafficPct()),
                 util::format("%.1f", toMiB(plain.serverReadBytes)),
                 util::format("%.1f", toMiB(pref.serverReadBytes)),
                 bench::pct(plain.netTotalTrafficPct()),
                 bench::pct(pref.netTotalTrafficPct())});
        }
    }
    out += table.render() + "\n";
    out += "at 30 s the columns match (the paper's "
           "simplification is harmless); with longer\ndelays "
           "the preference buys write traffic at the cost of "
           "extra read misses.\n";
    return out;
}

} // namespace nvfs::bench

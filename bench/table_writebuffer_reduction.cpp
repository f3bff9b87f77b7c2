/**
 * @file
 * Section 3 headline: a one-half megabyte NVRAM write buffer per file
 * system reduces disk write accesses by ~10-25% on most file systems
 * and by ~90% on the transaction-heavy /user6.  Also sweeps the
 * buffer size (64 KB - 4 MB) as an ablation beyond the paper's fixed
 * half-megabyte.
 */

#include "bench_util.hpp"
#include "core/sim/sweep.hpp"

namespace nvfs::bench {

std::string
table_writebuffer_reduction()
{
    std::string out = bench::header(
        "NVRAM write buffer: reduction in disk write accesses",
        "1/2 MB buffer: ~20% fewer disk accesses on most LFS file "
        "systems, ~90% on /user6");

    const double scale = core::benchScale();
    const TimeUs duration = 24 * kUsPerHour;

    // The whole study — baseline plus every ablation buffer size —
    // is one parallel server sweep.
    const Bytes sweep_sizes[] = {64 * kKiB,  128 * kKiB, 256 * kKiB,
                                 512 * kKiB, kMiB,       2 * kMiB,
                                 4 * kMiB};
    std::vector<core::ServerSweepConfig> configs;
    configs.push_back({duration, scale, 0});
    for (const Bytes size : sweep_sizes)
        configs.push_back({duration, scale, size});
    const core::SweepRunner runner;
    const auto runs = runner.runServerSweep(configs);

    const auto &baseline = runs[0];
    const auto &buffered = runs[4]; // the 512 KiB run

    util::TextTable table({"File system", "disk writes (no NVRAM)",
                           "disk writes (1/2 MB)", "reduction %",
                           "fsyncs absorbed %"});
    for (std::size_t i = 0; i < baseline.fs.size(); ++i) {
        const auto &base = baseline.fs[i];
        const auto &buf = buffered.fs[i];
        const double reduction = util::percent(
            static_cast<double>(base.diskWrites()) -
                static_cast<double>(buf.diskWrites()),
            static_cast<double>(base.diskWrites()));
        const double absorbed = util::percent(
            static_cast<double>(buf.fsyncsAbsorbed),
            static_cast<double>(buf.fsyncs));
        table.addRow({base.name,
                      util::format("%llu",
                                   static_cast<unsigned long long>(
                                       base.diskWrites())),
                      util::format("%llu",
                                   static_cast<unsigned long long>(
                                       buf.diskWrites())),
                      bench::pct(reduction),
                      buf.fsyncs ? bench::pct(absorbed)
                                 : std::string("n/a")});
    }
    out += table.render() + "\n";

    // Ablation: buffer size sweep (server-wide totals).
    out += "ablation: buffer size sweep (total disk write "
           "accesses across all file systems)\n";
    util::TextTable sweep({"buffer", "disk writes", "reduction %"});
    sweep.addRow({"none",
                  util::format("%llu",
                               static_cast<unsigned long long>(
                                   baseline.totalDiskWrites)),
                  "0.0"});
    for (std::size_t i = 0; i < std::size(sweep_sizes); ++i) {
        const Bytes size = sweep_sizes[i];
        const auto &run = runs[i + 1];
        sweep.addRow({util::formatBytes(size),
                      util::format("%llu",
                                   static_cast<unsigned long long>(
                                       run.totalDiskWrites)),
                      bench::pct(util::percent(
                          static_cast<double>(
                              baseline.totalDiskWrites) -
                              static_cast<double>(run.totalDiskWrites),
                          static_cast<double>(
                              baseline.totalDiskWrites)))});
    }
    out += sweep.render() + "\n";
    return out;
}

} // namespace nvfs::bench

/**
 * @file
 * Section 3 cross-check of Solworth & Orji [20]: writing dirty blocks
 * randomly to disk uses only ~7% of disk bandwidth; buffering 1000
 * I/Os (about four megabytes) and sorting them raises utilization to
 * ~40%.  Also shows the LFS contrast: one 512 KB segment write per
 * seek approaches media bandwidth.
 */

#include "bench_util.hpp"
#include "disk/scheduler.hpp"

namespace nvfs::bench {

std::string
ablation_sorted_writes()
{
    std::string out = bench::header(
        "[20] cross-check: disk bandwidth utilization of random vs. "
        "sorted buffered writes",
        "random 4 KB writes ~7% utilization; 1000 sorted buffered "
        "I/Os ~40%; full LFS segments approach media rate");

    const disk::DiskModel model;
    util::Rng rng(99);

    out += util::format(
        "unbuffered random 4 KB writes: %.1f%% utilization (paper cites "
        "~7%%)\n\n",
        100.0 * disk::unbufferedUtilization(model, kBlockSize));

    util::TextTable table({"batch size", "FIFO util %",
                           "elevator util %", "speedup"});
    for (const std::size_t batch : {10u, 100u, 500u, 1000u, 4000u}) {
        std::vector<disk::DiskRequest> requests;
        requests.reserve(batch);
        for (std::size_t i = 0; i < batch; ++i) {
            requests.push_back(
                {static_cast<std::uint32_t>(rng.uniformInt(
                     0, model.params().cylinders - 1)),
                 kBlockSize});
        }
        const auto fifo = disk::serviceBatch(model, requests,
                                             disk::Schedule::Fifo);
        const auto sorted = disk::serviceBatch(
            model, requests, disk::Schedule::Elevator);
        table.addRow({util::format("%zu", batch),
                      util::format("%.1f", 100.0 * fifo.utilization()),
                      util::format("%.1f",
                                   100.0 * sorted.utilization()),
                      util::format("%.2fx",
                                   fifo.totalMs() / sorted.totalMs())});
    }
    out += table.render() + "\n";

    const auto segment = model.serviceSequential(512 * kKiB);
    out += util::format("one full LFS segment write (512 KB, one seek): "
                        "%.1f%% utilization\n",
                        100.0 * segment.utilization());
    return out;
}

} // namespace nvfs::bench

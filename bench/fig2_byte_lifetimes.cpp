/**
 * @file
 * Figure 2: byte lifetimes.  Net write traffic (% of bytes written to
 * client caches that eventually reach the server) when dirty bytes are
 * flushed after a fixed write-back delay, from a cache of infinite
 * size.  One series per trace, delay on a log axis.
 */

#include <cmath>

#include "bench_util.hpp"

namespace nvfs::bench {

std::string
fig2_byte_lifetimes()
{
    std::string out = bench::header(
        "Figure 2: byte lifetimes (net write traffic vs. write-back "
        "delay, infinite cache)",
        "for typical traces 35-50% of bytes die within 30 s, ~60% "
        "within a few hours; traces 3/4: 5-10% within 30 s, >80% "
        "within half an hour");

    const double scale = core::benchScale();
    const double delays_min[] = {0.01, 0.03, 0.1, 0.3, 0.5, 1, 3,
                                 10, 30, 60, 180, 600, 1440, 10000};

    std::vector<std::string> headers = {"delay (min)"};
    for (int t = 1; t <= 8; ++t)
        headers.push_back("trace " + std::to_string(t));
    util::TextTable table(std::move(headers));

    for (const double d : delays_min) {
        std::vector<std::string> row = {util::format("%g", d)};
        for (int t = 1; t <= 8; ++t) {
            const auto &life = core::standardLifetimes(t, scale);
            const auto delay = static_cast<TimeUs>(d * kUsPerMinute);
            row.push_back(bench::pct(life.netWriteTrafficPct(delay)));
        }
        table.addRow(std::move(row));
    }
    out += table.render("net write traffic (%)") + "\n";

    out += "checkpoints: at 30 s typical traces should read "
           "50-65%, traces 3 and 4 should read 90-95%;\n"
           "at 30 min traces 3 and 4 should have dropped below "
           "20%.\n";
    return out;
}

} // namespace nvfs::bench

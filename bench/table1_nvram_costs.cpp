/**
 * @file
 * Table 1: 1992 prices of NVRAM components versus volatile DRAM.
 * These feed the Section 2.7 cost-effectiveness analysis; the table
 * itself is published data, reproduced from the cost model.
 */

#include "bench_util.hpp"
#include "nvram/cost.hpp"

namespace nvfs::bench {

std::string
table1_nvram_costs()
{
    std::string out = bench::header(
        "Table 1: current (1992) NVRAM costs",
        "NVRAM is 4-6x the per-megabyte cost of DRAM; "
        "16 MB boards amortize battery overhead");

    util::TextTable table({"Component", "Bus", "Speed (ns)",
                           "Batteries", "$/MB", "Min config (MB)"});
    for (const auto &row : nvram::costTable1992()) {
        table.addRow({row.component, row.bus,
                      util::format("%.0f", row.speedNs),
                      util::format("%d", row.lithiumBatteries),
                      util::format("%.0f", row.pricePerMB),
                      util::format("%.1f", row.minConfigMB)});
    }
    out += table.render() + "\n";

    out += util::format("derived: DRAM = $%.0f/MB; cheapest NVRAM at 1 MB = "
                        "$%.0f/MB (%.1fx DRAM);\n"
                        "         cheapest NVRAM at 16 MB = $%.0f/MB (%.1fx "
                        "DRAM)\n",
                        nvram::dramPricePerMB(),
                        nvram::cheapestNvramPricePerMB(1.0),
                        nvram::cheapestNvramPricePerMB(1.0) /
                            nvram::dramPricePerMB(),
                        nvram::cheapestNvramPricePerMB(16.0),
                        nvram::cheapestNvramPricePerMB(16.0) /
                            nvram::dramPricePerMB());
    return out;
}

} // namespace nvfs::bench

/**
 * @file
 * Shared helpers for the figures nvfs_bench regenerates.  Each
 * figure's report prints the paper's published values next to the
 * measured ones so the shape comparison is immediate.
 */

#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/sim/experiments.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace nvfs::bench {

/**
 * The paper's NVRAM size sweep (Fig 3-4 x-axis), in MB.  Shared by
 * the figure benches and the curve-engine wiring so the single-pass
 * engine and the per-size grid provably sweep the same points.
 */
inline constexpr double kNvramSizeGrid[] = {0.03125, 0.0625, 0.125,
                                            0.25,    0.5,    1,
                                            2,       4,      8,
                                            16};

/** kNvramSizeGrid in bytes, as a CurveSpec/ModelConfig size list. */
inline std::vector<Bytes>
nvramSizeGridBytes()
{
    std::vector<Bytes> sizes;
    for (const double mb : kNvramSizeGrid)
        sizes.push_back(static_cast<Bytes>(mb * kMiB));
    return sizes;
}

/** The standard header that opens every figure's report. */
inline std::string
header(const std::string &experiment, const std::string &paper_claim)
{
    const std::string rule = "==============================================="
                             "=================\n";
    return rule + experiment + "\npaper: " + paper_claim +
           "\n(shape comparison — absolute numbers depend on the "
           "synthetic traces)\n" +
           rule + "\n";
}

/** Format a percentage cell. */
inline std::string
pct(double value)
{
    return util::format("%.1f", value);
}

} // namespace nvfs::bench

#include "check/reference.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace nvfs::check {

core::Metrics
runPerBlockReference(const prep::OpStream &ops,
                     const core::ClusterConfig &config)
{
    // Same construction order and Rng stream as ClusterSim, so random
    // replacement draws the same victims on both sides.
    util::Rng rng(config.seed);
    core::Metrics metrics;
    core::FileSizeMap sizes;
    const std::uint32_t client_count =
        std::max<std::uint32_t>(1, ops.clientCount);
    std::vector<std::unique_ptr<core::ClientModel>> clients;
    clients.reserve(client_count);
    for (std::uint32_t i = 0; i < client_count; ++i) {
        clients.push_back(
            core::makeClientModel(config.model, metrics, sizes, rng));
    }
    core::replayOps(ops, config, clients, sizes, {&metrics, 1},
                    /*coalesce=*/false);
    return metrics;
}

} // namespace nvfs::check

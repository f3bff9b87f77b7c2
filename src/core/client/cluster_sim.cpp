#include "core/client/cluster_sim.hpp"

#include "util/log.hpp"

namespace nvfs::core {

ClusterSim::ClusterSim(const ClusterConfig &config,
                       std::uint32_t client_count)
    : config_(config), rng_(config.seed)
{
    NVFS_REQUIRE(client_count > 0, "need at least one client");
    clients_.reserve(client_count);
    for (std::uint32_t i = 0; i < client_count; ++i) {
        clients_.push_back(makeClientModel(config_.model, metrics_,
                                           sizes_, rng_));
    }
}

ClientModel &
ClusterSim::client(ClientId id)
{
    NVFS_REQUIRE(id < clients_.size(), "bad client id");
    return *clients_[id];
}

Metrics
ClusterSim::run(const prep::OpStream &ops)
{
    metrics_ = Metrics{};
    replayOps(ops, config_, clients_, sizes_, {&metrics_, 1});
    return metrics_;
}

} // namespace nvfs::core

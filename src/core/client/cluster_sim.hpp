/**
 * @file
 * The cluster simulator: one cache model instance per client, replayed
 * through the shared client protocol (core::replayOps — Sprite's
 * consistency engine and the 5-second block-cleaner clock).  This is
 * the simulator behind all of Section 2's figures.
 */

#pragma once

#include <memory>
#include <vector>

#include "core/client/client_model.hpp"
#include "core/client/replay.hpp"
#include "prep/ops.hpp"

namespace nvfs::core {

/** Replays one trace. */
class ClusterSim
{
  public:
    ClusterSim(const ClusterConfig &config, std::uint32_t client_count);

    /**
     * Run to completion and return the cluster-wide metrics.  Call
     * once: the models keep their cache state afterwards (tests
     * inspect it through client()).
     */
    Metrics run(const prep::OpStream &ops);

    /** Per-client model access (tests). */
    ClientModel &client(ClientId id);

  private:
    ClusterConfig config_;
    util::Rng rng_;
    Metrics metrics_;
    FileSizeMap sizes_;
    std::vector<std::unique_ptr<ClientModel>> clients_;
};

} // namespace nvfs::core

/**
 * @file
 * nvfs::check — the unfolded reference replay.
 *
 * core::replayOps folds adjacent same-time sequential reads and
 * writes of one stream into one op before dispatch.  The reference
 * replays the same client models (ClusterSim's) with that fold turned
 * off, so every op reaches the models as it stands; a differential
 * against ClusterSim isolates the fold from everything else.
 */

#pragma once

#include "core/client/replay.hpp"
#include "prep/ops.hpp"

namespace nvfs::check {

/**
 * Replay `ops` as core::ClusterSim(config, max(1, ops.clientCount))
 * would, with no op folded into its neighbours.  ClusterSim, which
 * folds sequential runs, must return identical Metrics.
 */
core::Metrics runPerBlockReference(const prep::OpStream &ops,
                                   const core::ClusterConfig &config);

} // namespace nvfs::check

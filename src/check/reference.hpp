/**
 * @file
 * nvfs::check — the per-block reference engine.
 *
 * The client models process whole block runs through the caches'
 * range operations.  Their per-block bodies — one probe and one LRU
 * splice per 4 KB block — survive only as the oracle those fast paths
 * are checked against: runPerBlockReference replays an op stream
 * through the same protocol driver (core::replayOps) with model
 * subclasses whose read, write and recallRange take the per-block
 * route, so a differential isolates the engine from the protocol.
 */

#pragma once

#include "core/client/replay.hpp"
#include "prep/ops.hpp"

namespace nvfs::check {

/**
 * Replay `ops` as core::ClusterSim(config, max(1, ops.clientCount))
 * would, with every read, write and block-level recall handled one
 * block at a time and no op folded into its neighbours.  The
 * production replay, which folds sequential runs, must return
 * identical Metrics, so every differential also checks the fold.
 */
core::Metrics runPerBlockReference(const prep::OpStream &ops,
                                   const core::ClusterConfig &config);

} // namespace nvfs::check

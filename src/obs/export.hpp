/**
 * @file
 * Export paths for nvfs::obs: JSON snapshot, human-readable table,
 * Chrome trace-event file, and the env-driven auto-export hook
 * (NVFS_STATS_OUT / NVFS_TRACE_OUT).  Split from obs.hpp so the
 * hot-path header stays free of util/ dependencies; link nvfs_obs to
 * use these.
 */

#pragma once

#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace nvfs::obs {

/**
 * Serialize a snapshot as the versioned JSON schema checked into
 * scripts/stats_schema.json:
 *
 *   {"version": 1, "enabled": <bool>, "stats": {
 *      "<name>": {"kind": "counter", "count": N, "value": N} |
 *                {"kind": "max", "count": N, "value": N} |
 *                {"kind": "timer", "count": N, "total_ns": N,
 *                 "min_ns": N, "max_ns": N}}}
 *
 * `enabled` is false in -DNVFS_NO_STATS builds (stats always {}).
 */
std::string toJson(const Snapshot &snap);

/** Aligned human table of the snapshot (nvfs_sim --stats). */
std::string renderTable(const Snapshot &snap);

/**
 * Take a snapshot now and write it as JSON to `path` (atomic rename).
 * Warns and returns false on I/O failure.
 */
bool writeStatsFile(const std::string &path);

/**
 * Drain every buffered trace span and write a Chrome trace-event
 * (about://tracing / Perfetto) JSON file.  Warns and returns false on
 * I/O failure.
 */
bool writeTraceFile(const std::string &path);

/** Chrome trace-event serialization of spans (testable piece). */
std::string spansToChromeTrace(const std::vector<TraceSpan> &spans);

/**
 * Read NVFS_STATS_OUT / NVFS_TRACE_OUT once: enable span buffering
 * when NVFS_TRACE_OUT is set, and register an atexit hook that writes
 * both files when the process ends.  Call early in main() of any
 * binary that should honour the variables (nvfs_bench, nvfs_sim, the
 * perf harness); safe to call more than once.
 */
void autoExportFromEnv();

} // namespace nvfs::obs

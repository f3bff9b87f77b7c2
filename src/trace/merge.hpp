/**
 * @file
 * Time ordering of a trace: the generator emits each client's events
 * in turn and sorts the whole buffer into one cluster-wide stream
 * (what the Sprite tracing infrastructure produced).
 */

#pragma once

#include "trace/stream.hpp"

namespace nvfs::trace {

/** Sort a single trace's events by (time, original order). */
void stableSortByTime(TraceBuffer &buffer);

} // namespace nvfs::trace

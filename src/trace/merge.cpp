#include "trace/merge.hpp"

#include <algorithm>

namespace nvfs::trace {

void
stableSortByTime(TraceBuffer &buffer)
{
    std::stable_sort(buffer.events.begin(), buffer.events.end(),
                     [](const Event &a, const Event &b) {
                         return a.time < b.time;
                     });
}

} // namespace nvfs::trace

/**
 * @file
 * The omniscient policy's oracle: for every 4 KB block, the sorted
 * list of times at which the trace *modifies* it — overwrites,
 * deletes, or truncates it away.  The paper built this from the
 * byte-death log of the infinite-cache pass ("the omniscient policy
 * simulator used this information to choose the block with the next
 * modify time furthest in the future"); deletions must count, because
 * a block whose file is about to be deleted is precisely the block
 * worth keeping in the NVRAM.
 */

#pragma once

#include <vector>

#include "cache/policy.hpp"
#include "prep/ops.hpp"
#include "util/flat_map.hpp"
#include "util/interval_set.hpp"

namespace nvfs::core {

/** Per-block modify-time index implementing the policy oracle. */
class NextModifyIndex : public cache::NextModifyOracle
{
  public:
    /** Build from a processed trace in one forward scan. */
    explicit NextModifyIndex(const prep::OpStream &ops);

    /** Next write to `id` strictly after `after`; infinity if none. */
    TimeUs nextModify(const cache::BlockId &id,
                      TimeUs after) const override;

    /** Number of indexed blocks. */
    std::size_t blockCount() const { return blockCount_; }

  private:
    /**
     * Per-file state: the modify-time list of block `b` lives at
     * blocks[b], and `live` holds the block-index runs currently in
     * existence (so Delete/Truncate fan out run-wise, not through an
     * element-wise set).
     */
    struct FileTimes
    {
        std::vector<std::vector<TimeUs>> blocks;
        util::IntervalSet live;
    };

    util::FlatMap<FileId, FileTimes, util::SplitMix64Hash> files_;
    std::size_t blockCount_ = 0;
};

} // namespace nvfs::core

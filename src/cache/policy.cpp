#include "cache/policy.hpp"

#include <set>
#include <vector>

#include "util/flat_map.hpp"
#include "util/log.hpp"

namespace nvfs::cache {

std::string
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Lru: return "LRU";
      case PolicyKind::Random: return "random";
      case PolicyKind::Clock: return "clock";
      case PolicyKind::Omniscient: return "omniscient";
    }
    return "unknown";
}

namespace {

/** Uniform-random victim via swap-remove vector. */
class RandomPolicy : public ReplacementPolicy
{
  public:
    explicit RandomPolicy(util::Rng *rng) : rng_(rng)
    {
        NVFS_REQUIRE(rng_ != nullptr, "random policy needs an Rng");
    }

    void
    onInsert(const BlockId &id, TimeUs) override
    {
        where_.insertOrAssign(id, blocks_.size());
        blocks_.push_back(id);
    }

    void onAccess(const BlockId &, TimeUs) override {}

    void
    onRemove(const BlockId &id) override
    {
        const std::size_t *found = where_.find(id);
        NVFS_REQUIRE(found != nullptr, "random remove of absent block");
        const std::size_t idx = *found;
        const BlockId last = blocks_.back();
        blocks_[idx] = last;
        where_.insertOrAssign(last, idx);
        blocks_.pop_back();
        where_.erase(id);
    }

    std::optional<BlockId>
    chooseVictim(TimeUs) override
    {
        if (blocks_.empty())
            return std::nullopt;
        return blocks_[rng_->uniformInt(0, blocks_.size() - 1)];
    }

  private:
    util::Rng *rng_;
    std::vector<BlockId> blocks_;
    util::FlatMap<BlockId, std::size_t, BlockIdHash> where_;
};

/** Second-chance clock sweep. */
class ClockPolicy : public ReplacementPolicy
{
  public:
    void
    onInsert(const BlockId &id, TimeUs) override
    {
        where_.insertOrAssign(id, frames_.size());
        frames_.push_back({id, true});
    }

    void
    onAccess(const BlockId &id, TimeUs) override
    {
        const std::size_t *found = where_.find(id);
        NVFS_REQUIRE(found != nullptr, "clock access to absent block");
        frames_[*found].referenced = true;
    }

    void
    onRemove(const BlockId &id) override
    {
        const std::size_t *found = where_.find(id);
        NVFS_REQUIRE(found != nullptr, "clock remove of absent block");
        const std::size_t idx = *found;
        frames_[idx] = frames_.back();
        where_.insertOrAssign(frames_[idx].id, idx);
        frames_.pop_back();
        where_.erase(id);
        if (hand_ >= frames_.size())
            hand_ = 0;
    }

    std::optional<BlockId>
    chooseVictim(TimeUs) override
    {
        if (frames_.empty())
            return std::nullopt;
        // Sweep at most two full revolutions; the first clears bits.
        for (std::size_t step = 0; step < 2 * frames_.size(); ++step) {
            Frame &frame = frames_[hand_];
            hand_ = (hand_ + 1) % frames_.size();
            if (frame.referenced)
                frame.referenced = false;
            else
                return frame.id;
        }
        // All referenced and re-referenced: fall back to the hand.
        return frames_[hand_].id;
    }

  private:
    struct Frame
    {
        BlockId id;
        bool referenced;
    };

    std::vector<Frame> frames_;
    util::FlatMap<BlockId, std::size_t, BlockIdHash> where_;
    std::size_t hand_ = 0;
};

/**
 * Omniscient: evict the block whose next modify time is furthest in
 * the future (Section 2.4).  Keys are refreshed on every access so the
 * ordering stays consistent with the oracle as time advances.
 */
class OmniscientPolicy : public ReplacementPolicy
{
  public:
    explicit OmniscientPolicy(const NextModifyOracle *oracle)
        : oracle_(oracle)
    {
        NVFS_REQUIRE(oracle_ != nullptr, "omniscient policy needs oracle");
    }

    void
    onInsert(const BlockId &id, TimeUs now) override
    {
        const TimeUs key = oracle_->nextModify(id, now);
        keys_.insertOrAssign(id, key);
        byKey_.insert({key, id});
    }

    void
    onAccess(const BlockId &id, TimeUs now) override
    {
        TimeUs *key = keys_.find(id);
        NVFS_REQUIRE(key != nullptr, "omniscient access absent block");
        const TimeUs fresh = oracle_->nextModify(id, now);
        if (fresh == *key)
            return;
        byKey_.erase({*key, id});
        *key = fresh;
        byKey_.insert({fresh, id});
    }

    void
    onRemove(const BlockId &id) override
    {
        const TimeUs *key = keys_.find(id);
        NVFS_REQUIRE(key != nullptr, "omniscient remove absent block");
        byKey_.erase({*key, id});
        keys_.erase(id);
    }

    std::optional<BlockId>
    chooseVictim(TimeUs) override
    {
        if (byKey_.empty())
            return std::nullopt;
        return std::prev(byKey_.end())->second; // furthest next modify
    }

  private:
    const NextModifyOracle *oracle_;
    util::FlatMap<BlockId, TimeUs, BlockIdHash> keys_;
    std::set<std::pair<TimeUs, BlockId>> byKey_;
};

} // namespace

std::unique_ptr<ReplacementPolicy>
makePolicy(PolicyKind kind, util::Rng *rng,
           const NextModifyOracle *oracle)
{
    switch (kind) {
      case PolicyKind::Lru:
        return nullptr; // BlockCache's own recency list
      case PolicyKind::Random:
        return std::make_unique<RandomPolicy>(rng);
      case PolicyKind::Clock:
        return std::make_unique<ClockPolicy>();
      case PolicyKind::Omniscient:
        return std::make_unique<OmniscientPolicy>(oracle);
    }
    util::panic("unreachable policy kind");
}

} // namespace nvfs::cache

/**
 * @file
 * Replacement policies for the NVRAM cache (Section 2.5 of the paper).
 *
 * The paper evaluates LRU, random, and an omniscient policy that
 * evicts the block whose next modification lies furthest in the
 * future; we add clock as an additional realistic policy for the
 * ablation study.  Policies are notified of cache events and asked for
 * victims; they never mutate the cache themselves.
 */

#pragma once

#include <memory>
#include <optional>
#include <string>

#include "cache/block.hpp"
#include "util/rng.hpp"

namespace nvfs::cache {

/**
 * Oracle giving the next time a block will be modified (used by the
 * omniscient policy; implemented by the lifetime pass).
 */
class NextModifyOracle
{
  public:
    virtual ~NextModifyOracle() = default;

    /**
     * Next time at or after `after` at which `id` is written;
     * kTimeInfinity when the block is never written again.
     */
    virtual TimeUs nextModify(const BlockId &id, TimeUs after) const = 0;
};

/** Which replacement policy to instantiate. */
enum class PolicyKind { Lru, Random, Clock, Omniscient };

/** Printable policy name. */
std::string policyName(PolicyKind kind);

/**
 * Victim-selection strategy.  The owning cache reports every resident-
 * set change; chooseVictim() must return a currently resident block.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Block entered the resident set. */
    virtual void onInsert(const BlockId &id, TimeUs now) = 0;

    /** Block accessed (read or write hit). */
    virtual void onAccess(const BlockId &id, TimeUs now) = 0;

    /** Block left the resident set. */
    virtual void onRemove(const BlockId &id) = 0;

    /** Pick a victim; nullopt when the resident set is empty. */
    virtual std::optional<BlockId> chooseVictim(TimeUs now) = 0;
};

/**
 * Create a policy.  LRU has no policy object: the result is nullptr,
 * and a BlockCache without a policy serves LRU victims from its own
 * recency list.
 *
 * @param kind which policy
 * @param rng required for Random (seeds victim choice)
 * @param oracle required for Omniscient
 */
std::unique_ptr<ReplacementPolicy>
makePolicy(PolicyKind kind, util::Rng *rng = nullptr,
           const NextModifyOracle *oracle = nullptr);

} // namespace nvfs::cache

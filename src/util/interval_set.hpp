/**
 * @file
 * Byte-range interval containers.
 *
 * IntervalSet tracks a set of disjoint half-open ranges [begin, end) of
 * bytes, coalescing on insert.  IntervalMap associates a value with
 * each range (used by the lifetime tracker to remember when every live
 * byte run was written).  Both are the workhorses behind the
 * byte-accurate accounting the paper's simulator performs.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "util/audit.hpp"
#include "util/log.hpp"
#include "util/types.hpp"

namespace nvfs::util {

/** A half-open byte range [begin, end). */
struct ByteRange
{
    Bytes begin = 0;
    Bytes end = 0;

    Bytes length() const { return end - begin; }
    bool empty() const { return end <= begin; }
    bool operator==(const ByteRange &other) const = default;
};

/**
 * A set of disjoint, coalesced half-open byte ranges.
 *
 * Insert/erase are O(log n + k) where k is the number of overlapped
 * ranges.  Iteration yields ranges in increasing order.
 *
 * Almost every set holds at most one run (a cache block's dirty bytes
 * are nearly always one contiguous span), so that case is stored
 * inline and allocates nothing.  A second disjoint run spills the runs
 * into an ordered map; the set returns to the inline form as soon as
 * it is back to one run or none, so the representation is canonical:
 * spilled if and only if it holds two or more runs.
 */
class IntervalSet
{
  public:
    IntervalSet() = default;

    // Copies are deep: a spilled source's runs are duplicated.
    IntervalSet(const IntervalSet &other)
        : begin_(other.begin_), end_(other.end_),
          spill_(other.spill_ ? std::make_unique<Spill>(*other.spill_)
                              : nullptr)
    {}

    IntervalSet &
    operator=(const IntervalSet &other)
    {
        if (this != &other)
            *this = IntervalSet(other);
        return *this;
    }

    // Moves leave the source empty and zeroed, ready for reuse;
    // otherwise an inline source would keep a copy of its run.
    IntervalSet(IntervalSet &&other) noexcept
        : begin_(other.begin_), end_(other.end_),
          spill_(std::move(other.spill_))
    {
        other.begin_ = 0;
        other.end_ = 0;
    }

    IntervalSet &
    operator=(IntervalSet &&other) noexcept
    {
        if (this != &other) {
            begin_ = other.begin_;
            end_ = other.end_;
            spill_ = std::move(other.spill_);
            other.begin_ = 0;
            other.end_ = 0;
        }
        return *this;
    }

    /** Add [begin, end), merging with any adjacent/overlapping runs. */
    void
    insert(Bytes begin, Bytes end)
    {
        if (end <= begin)
            return;
        if (!spill_) {
            if (begin_ == end_) {
                begin_ = begin;
                end_ = end;
                return;
            }
            if (begin <= end_ && end >= begin_) {
                begin_ = std::min(begin_, begin);
                end_ = std::max(end_, end);
                return;
            }
            spillRuns({begin_, end_}, {begin, end});
            return;
        }
        auto &ranges = spill_->ranges;
        // Find the first range that could touch [begin, end).
        auto it = ranges.lower_bound(begin);
        if (it != ranges.begin()) {
            auto prev = std::prev(it);
            if (prev->second >= begin)
                it = prev;
        }
        Bytes new_begin = begin;
        Bytes new_end = end;
        Bytes absorbed = 0;
        while (it != ranges.end() && it->first <= new_end) {
            new_begin = std::min(new_begin, it->first);
            new_end = std::max(new_end, it->second);
            absorbed += it->second - it->first;
            it = ranges.erase(it);
        }
        ranges.emplace_hint(it, new_begin, new_end);
        spill_->total += (new_end - new_begin) - absorbed;
        unspillIfSmall();
    }

    /** Remove [begin, end) from the set, splitting runs as needed. */
    void
    erase(Bytes begin, Bytes end)
    {
        if (end <= begin)
            return;
        if (!spill_) {
            if (end <= begin_ || begin >= end_)
                return; // disjoint, or the set is empty
            if (begin <= begin_ && end >= end_) {
                begin_ = 0;
                end_ = 0;
            } else if (begin <= begin_) {
                begin_ = end;
            } else if (end >= end_) {
                end_ = begin;
            } else {
                spillRuns({begin_, begin}, {end, end_});
            }
            return;
        }
        auto &ranges = spill_->ranges;
        auto it = ranges.lower_bound(begin);
        if (it != ranges.begin()) {
            auto prev = std::prev(it);
            if (prev->second > begin)
                it = prev;
        }
        // Only the first and last overlapped runs can leave a flank.
        ByteRange head;
        ByteRange tail;
        while (it != ranges.end() && it->first < end) {
            const Bytes rb = it->first;
            const Bytes re = it->second;
            it = ranges.erase(it);
            if (rb < begin)
                head = {rb, begin};
            if (re > end)
                tail = {end, re};
            spill_->total -= std::min(re, end) - std::max(rb, begin);
        }
        if (!head.empty())
            ranges.emplace_hint(it, head.begin, head.end);
        if (!tail.empty())
            ranges.emplace_hint(it, tail.begin, tail.end);
        unspillIfSmall();
    }

    /** Total bytes covered. */
    Bytes totalBytes() const { return spill_ ? spill_->total : end_ - begin_; }

    /** Bytes of [begin, end) covered by the set. */
    Bytes
    overlapBytes(Bytes begin, Bytes end) const
    {
        if (end <= begin)
            return 0;
        if (!spill_) {
            const Bytes b = std::max(begin, begin_);
            const Bytes e = std::min(end, end_);
            return e > b ? e - b : 0;
        }
        const auto &ranges = spill_->ranges;
        Bytes covered = 0;
        auto it = ranges.lower_bound(begin);
        if (it != ranges.begin()) {
            auto prev = std::prev(it);
            if (prev->second > begin)
                it = prev;
        }
        for (; it != ranges.end() && it->first < end; ++it) {
            const Bytes b = std::max(begin, it->first);
            const Bytes e = std::min(end, it->second);
            if (e > b)
                covered += e - b;
        }
        return covered;
    }

    /** True when nothing is covered. */
    bool empty() const { return !spill_ && begin_ == end_; }

    /** Number of disjoint runs. */
    std::size_t
    runCount() const
    {
        return spill_ ? spill_->ranges.size() : (begin_ != end_ ? 1 : 0);
    }

    /** Remove everything. */
    void
    clear()
    {
        spill_.reset();
        begin_ = 0;
        end_ = 0;
    }

    /**
     * Visit every run as fn(begin, end), in increasing order, without
     * allocating.  fn must not mutate the set.
     */
    template <typename Fn>
    void
    forEachRun(Fn &&fn) const
    {
        if (!spill_) {
            if (begin_ != end_)
                fn(begin_, end_);
            return;
        }
        for (const auto &[b, e] : spill_->ranges)
            fn(b, e);
    }

    /** Snapshot of the runs in increasing order. */
    std::vector<ByteRange>
    runs() const
    {
        std::vector<ByteRange> out;
        if (!spill_) {
            if (begin_ != end_)
                out.push_back({begin_, end_});
            return out;
        }
        out.reserve(spill_->ranges.size());
        for (const auto &[b, e] : spill_->ranges)
            out.push_back({b, e});
        return out;
    }

    /**
     * Structural audit (nvfs::check): every run non-empty, runs
     * strictly separated (coalescing leaves no adjacent pair), the
     * incremental total equal to the sum of the runs, and the
     * representation canonical (inline for zero or one run, with an
     * empty set zeroed; spilled only for two or more).  Throws
     * AuditError on violation.
     */
    void
    auditInvariants() const
    {
        if (!spill_) {
            NVFS_AUDIT_CHECK(begin_ < end_ || (begin_ == 0 && end_ == 0),
                             "IntervalSet",
                             "inline run inverted or empty but not zeroed");
            return;
        }
        NVFS_AUDIT_CHECK(begin_ == 0 && end_ == 0, "IntervalSet",
                         "spilled set kept a stale inline run");
        NVFS_AUDIT_CHECK(spill_->ranges.size() >= 2, "IntervalSet",
                         "spilled set holds fewer than two runs");
        Bytes sum = 0;
        Bytes prev_end = 0;
        bool first = true;
        for (const auto &[b, e] : spill_->ranges) {
            NVFS_AUDIT_CHECK(b < e, "IntervalSet", "empty run stored");
            NVFS_AUDIT_CHECK(first || b > prev_end, "IntervalSet",
                             "runs overlap or touch (not coalesced)");
            sum += e - b;
            prev_end = e;
            first = false;
        }
        NVFS_AUDIT_CHECK(sum == spill_->total, "IntervalSet",
                         "incremental byte total diverged from runs");
    }

  private:
    /** Two or more runs: begin -> end, plus their byte total. */
    struct Spill
    {
        std::map<Bytes, Bytes> ranges;
        Bytes total = 0;
    };

    /** Leave the inline form holding the two disjoint runs `a` < `b`. */
    void
    spillRuns(ByteRange a, ByteRange b)
    {
        if (b.begin < a.begin)
            std::swap(a, b);
        spill_ = std::make_unique<Spill>();
        spill_->ranges.emplace_hint(spill_->ranges.end(), a.begin, a.end);
        spill_->ranges.emplace_hint(spill_->ranges.end(), b.begin, b.end);
        spill_->total = a.length() + b.length();
        begin_ = 0;
        end_ = 0;
    }

    /** Return to the inline form once at most one run is left. */
    void
    unspillIfSmall()
    {
        const auto &ranges = spill_->ranges;
        if (ranges.size() >= 2)
            return;
        const bool one = !ranges.empty();
        const Bytes b = one ? ranges.begin()->first : 0;
        const Bytes e = one ? ranges.begin()->second : 0;
        spill_.reset();
        begin_ = b;
        end_ = e;
    }

    // Inline form (spill_ empty): the one run is [begin_, end_), and
    // begin_ == end_ == 0 when the set is empty.  Spilled form: both
    // are 0 and the runs live in *spill_.
    Bytes begin_ = 0;
    Bytes end_ = 0;
    std::unique_ptr<Spill> spill_;
};

static_assert(sizeof(IntervalSet) <= 24,
              "IntervalSet must stay two offsets and a pointer");

/**
 * A map from disjoint byte ranges to values of type T.
 *
 * Inserting a range overwrites whatever it overlaps; the overwritten
 * pieces are reported to a callback so the caller can account for
 * them (e.g. the lifetime tracker records a byte-run death).  Adjacent
 * ranges with equal values are NOT coalesced — each written run keeps
 * its own identity (its own write timestamp).
 */
template <typename T>
class IntervalMap
{
  public:
    /** A mapped run. */
    struct Entry
    {
        Bytes begin;
        Bytes end;
        T value;
    };

    /** Callback invoked with every (sub)run displaced by an update. */
    using DisplacedFn = std::function<void(Bytes, Bytes, const T &)>;

    /**
     * Map [begin, end) to `value`, displacing any overlapped pieces.
     * @param on_displaced invoked once per displaced sub-run.
     */
    void
    assign(Bytes begin, Bytes end, T value,
           const DisplacedFn &on_displaced = nullptr)
    {
        if (end <= begin)
            return;
        eraseInternal(begin, end, on_displaced);
        map_.emplace(begin, Node{end, std::move(value)});
    }

    /** Remove [begin, end); displaced pieces go to the callback. */
    void
    erase(Bytes begin, Bytes end, const DisplacedFn &on_displaced = nullptr)
    {
        if (end <= begin)
            return;
        eraseInternal(begin, end, on_displaced);
    }

    /** Remove everything; displaced pieces go to the callback. */
    void
    clear(const DisplacedFn &on_displaced = nullptr)
    {
        if (on_displaced) {
            for (const auto &[b, node] : map_)
                on_displaced(b, node.end, node.value);
        }
        map_.clear();
    }

    /** Visit every run overlapping [begin, end), clipped to it. */
    void
    forEachIn(Bytes begin, Bytes end,
              const std::function<void(Bytes, Bytes, const T &)> &fn) const
    {
        if (end <= begin)
            return;
        auto it = map_.lower_bound(begin);
        if (it != map_.begin()) {
            auto prev = std::prev(it);
            if (prev->second.end > begin)
                it = prev;
        }
        for (; it != map_.end() && it->first < end; ++it) {
            const Bytes b = std::max(begin, it->first);
            const Bytes e = std::min(end, it->second.end);
            if (e > b)
                fn(b, e, it->second.value);
        }
    }

    /** Total bytes currently mapped. */
    Bytes
    totalBytes() const
    {
        Bytes total = 0;
        for (const auto &[b, node] : map_)
            total += node.end - b;
        return total;
    }

    /** Number of runs. */
    std::size_t runCount() const { return map_.size(); }

    /** True when nothing is mapped. */
    bool empty() const { return map_.empty(); }

    /** Snapshot of all runs in order. */
    std::vector<Entry>
    entries() const
    {
        std::vector<Entry> out;
        out.reserve(map_.size());
        for (const auto &[b, node] : map_)
            out.push_back({b, node.end, node.value});
        return out;
    }

  private:
    struct Node
    {
        Bytes end;
        T value;
    };

    void
    eraseInternal(Bytes begin, Bytes end, const DisplacedFn &on_displaced)
    {
        auto it = map_.lower_bound(begin);
        if (it != map_.begin()) {
            auto prev = std::prev(it);
            if (prev->second.end > begin)
                it = prev;
        }
        std::vector<std::pair<Bytes, Node>> to_add;
        while (it != map_.end() && it->first < end) {
            const Bytes rb = it->first;
            const Bytes re = it->second.end;
            T value = std::move(it->second.value);
            it = map_.erase(it);
            // Keep the non-overlapped flanks with the same value.
            if (rb < begin)
                to_add.emplace_back(rb, Node{begin, value});
            if (re > end)
                to_add.emplace_back(end, Node{re, value});
            if (on_displaced) {
                const Bytes db = std::max(rb, begin);
                const Bytes de = std::min(re, end);
                if (de > db)
                    on_displaced(db, de, value);
            }
        }
        for (auto &[b, node] : to_add)
            map_.emplace(b, std::move(node));
    }

    std::map<Bytes, Node> map_; // begin -> (end, value)
};

} // namespace nvfs::util

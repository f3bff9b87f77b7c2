/**
 * @file
 * An open-addressing hash map tuned for the simulator's per-op inner
 * loops.
 *
 * Power-of-two capacity, robin-hood probing (inserts displace entries
 * that are closer to their home slot, so probe lengths stay short and
 * uniform), and backward-shift deletion (no tombstones, so lookup cost
 * never degrades under churn).  Keys and values live inline in one
 * contiguous slot array: a lookup touches one cache line in the common
 * case instead of chasing a node pointer as std::unordered_map does.
 *
 * The API is deliberately pointer-based (find() returns V* or nullptr)
 * rather than iterator-based: every hot caller only needs "present?
 * give me the value", and pointer returns keep the fast path free of
 * iterator bookkeeping.  Pointers and iteration order are invalidated
 * by any insert or erase, like unordered_map under rehash.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/audit.hpp"
#include "util/log.hpp"

namespace nvfs::util {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap
{
  public:
    FlatMap() = default;

    explicit FlatMap(std::size_t expected) { reserve(expected); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Drop every entry but keep the allocated table. */
    void
    clear()
    {
        std::fill(meta_.begin(), meta_.end(), kEmpty);
        for (Slot &slot : slots_)
            slot = Slot{};
        size_ = 0;
    }

    /** Grow the table so `expected` entries fit without rehashing. */
    void
    reserve(std::size_t expected)
    {
        std::size_t needed = kMinCapacity;
        // Keep the load factor at or below 7/8 after `expected` inserts.
        while (needed * 7 / 8 < expected)
            needed <<= 1;
        if (needed > capacity())
            rehash(needed);
    }

    /** Value of `key`, or nullptr when absent. */
    V *
    find(const K &key)
    {
        return const_cast<V *>(
            static_cast<const FlatMap *>(this)->find(key));
    }

    const V *
    find(const K &key) const
    {
        if (size_ == 0)
            return nullptr;
        const std::size_t mask = capacity() - 1;
        std::size_t pos = Hash{}(key) & mask;
        // `dist` is widened past uint8_t so a probe that walks beyond
        // the maximum storable distance exits via `meta < dist`
        // instead of wrapping.
        for (std::size_t dist = 1;; ++dist) {
            const std::uint8_t meta = meta_[pos];
            if (meta == kEmpty || meta < dist) {
                // An empty slot — or a resident closer to *its* home
                // than we are to ours — proves the key was never
                // robin-hood-inserted past here.  meta <= 255 also
                // makes this the exit once dist outruns kMaxDist.
                return nullptr;
            }
            if (meta == dist && slots_[pos].key == key)
                return &slots_[pos].value;
            pos = (pos + 1) & mask;
        }
    }

    bool contains(const K &key) const { return find(key) != nullptr; }

    /**
     * Insert default-constructed value if absent; return a reference
     * (unordered_map::operator[] semantics).
     */
    V &operator[](const K &key) { return *tryEmplace(key).first; }

    /**
     * Insert (key, V(args...)) if absent.  Returns the value pointer
     * and whether an insert happened.
     */
    template <typename... Args>
    std::pair<V *, bool>
    tryEmplace(const K &key, Args &&...args)
    {
        if (slots_.empty() || (size_ + 1) * 8 > capacity() * 7)
            rehash(slots_.empty() ? kMinCapacity : capacity() * 2);
        for (;;) {
            const auto [pos, found] = probeForInsert(key);
            if (found)
                return {&slots_[pos].value, false};
            if (pos == kNeedsRehash) {
                rehash(capacity() * 2); // probe run hit the distance cap
                continue;
            }
            slots_[pos].key = key;
            slots_[pos].value = V(std::forward<Args>(args)...);
            ++size_;
            return {&slots_[pos].value, true};
        }
    }

    /** Insert or overwrite. */
    V &
    insertOrAssign(const K &key, V value)
    {
        V *ptr = tryEmplace(key).first;
        *ptr = std::move(value);
        return *ptr;
    }

    /** Remove `key`; returns whether it was present. */
    bool
    erase(const K &key)
    {
        if (size_ == 0)
            return false;
        const std::size_t mask = capacity() - 1;
        std::size_t pos = Hash{}(key) & mask;
        std::size_t dist = 1;
        for (;;) {
            const std::uint8_t meta = meta_[pos];
            if (meta == kEmpty || meta < dist)
                return false;
            if (meta == dist && slots_[pos].key == key)
                break;
            pos = (pos + 1) & mask;
            ++dist;
        }
        // Backward-shift: pull successors one slot toward their home
        // until a slot that is empty or already home terminates the run.
        std::size_t hole = pos;
        for (;;) {
            const std::size_t next = (hole + 1) & mask;
            if (meta_[next] <= 1) { // empty or at its home slot
                meta_[hole] = kEmpty;
                slots_[hole] = Slot{};
                break;
            }
            slots_[hole] = std::move(slots_[next]);
            meta_[hole] = static_cast<std::uint8_t>(meta_[next] - 1);
            hole = next;
        }
        --size_;
        return true;
    }

    /**
     * Visit every (key, value) pair.  Order is the table's probe
     * order — deterministic for a given insert/erase history, but
     * arbitrary; sort the results when order matters.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (meta_[i] != kEmpty)
                fn(slots_[i].key, slots_[i].value);
        }
    }

    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (meta_[i] != kEmpty)
                fn(slots_[i].key, slots_[i].value);
        }
    }

    /**
     * Structural audit (nvfs::check): capacity a power of two, size_
     * matching the occupied-slot count, and every resident's stored
     * probe distance equal to its true distance from its hash's home
     * slot (the invariant both lookup early-exit and backward-shift
     * deletion depend on).  Throws AuditError on violation.
     */
    void
    auditInvariants() const
    {
        NVFS_AUDIT_CHECK(slots_.size() == meta_.size(), "FlatMap",
                         "slot and metadata arrays disagree on size");
        if (slots_.empty()) {
            NVFS_AUDIT_CHECK(size_ == 0, "FlatMap",
                             "nonzero size with no table");
            return;
        }
        NVFS_AUDIT_CHECK((capacity() & (capacity() - 1)) == 0, "FlatMap",
                         "capacity not a power of two");
        const std::size_t mask = capacity() - 1;
        std::size_t occupied = 0;
        for (std::size_t pos = 0; pos < slots_.size(); ++pos) {
            const std::uint8_t meta = meta_[pos];
            if (meta == kEmpty)
                continue;
            ++occupied;
            const std::size_t home = Hash{}(slots_[pos].key) & mask;
            const std::size_t dist = ((pos - home) & mask) + 1;
            NVFS_AUDIT_CHECK(dist == meta, "FlatMap",
                             "stored probe distance does not match the "
                             "slot's true distance from home");
        }
        NVFS_AUDIT_CHECK(occupied == size_, "FlatMap",
                         "size counter diverged from occupied slots");
    }

    /** Erase every entry matching the predicate; returns the count. */
    template <typename Pred>
    std::size_t
    eraseIf(Pred &&pred)
    {
        // Collect first: backward-shift deletion moves entries, so
        // erasing during the scan could skip or revisit slots.
        std::vector<K> doomed;
        forEach([&](const K &key, const V &value) {
            if (pred(key, value))
                doomed.push_back(key);
        });
        for (const K &key : doomed)
            erase(key);
        return doomed.size();
    }

  private:
    struct Slot
    {
        K key{};
        V value{};
    };

    static constexpr std::size_t kMinCapacity = 16;
    static constexpr std::uint8_t kEmpty = 0;
    static constexpr std::uint8_t kMaxDist = 255;
    static constexpr std::size_t kNeedsRehash =
        static_cast<std::size_t>(-1);

    std::size_t capacity() const { return slots_.size(); }

    /**
     * Robin-hood probe for an insert of `key`.  Returns (slot, true)
     * when the key is already present, (slot, false) for the slot the
     * key should land in — displacing richer residents as needed — or
     * (kNeedsRehash, false) when a probe distance would overflow the
     * uint8_t metadata.
     */
    std::pair<std::size_t, bool>
    probeForInsert(const K &key)
    {
        const std::size_t mask = capacity() - 1;
        std::size_t pos = Hash{}(key) & mask;
        std::uint8_t dist = 1;
        K carry_key = key;
        V carry_value{};
        bool carrying = false;
        std::size_t result_pos = kNeedsRehash;
        for (;;) {
            if (meta_[pos] == kEmpty) {
                meta_[pos] = dist;
                slots_[pos].key = std::move(carry_key);
                if (carrying)
                    slots_[pos].value = std::move(carry_value);
                return {carrying ? result_pos : pos, false};
            }
            if (!carrying && meta_[pos] == dist &&
                slots_[pos].key == key) {
                return {pos, true};
            }
            if (meta_[pos] < dist) {
                // Rich resident: swap it out and keep probing for it.
                std::swap(carry_key, slots_[pos].key);
                std::swap(carry_value, slots_[pos].value);
                const std::uint8_t old = meta_[pos];
                meta_[pos] = dist;
                dist = old;
                if (!carrying) {
                    carrying = true;
                    result_pos = pos;
                }
            }
            pos = (pos + 1) & mask;
            if (dist == kMaxDist) {
                if (carrying) {
                    // Undo is impossible mid-displacement; the caller
                    // rehashes and retries, so a clean abort needs the
                    // carried entry parked somewhere.  Force growth
                    // instead: distances this long mean the table is
                    // pathological for its size.
                    util::panic("FlatMap probe distance overflow "
                                "mid-displacement");
                }
                return {kNeedsRehash, false};
            }
            ++dist;
        }
    }

    void
    rehash(std::size_t new_capacity)
    {
        std::vector<Slot> old_slots = std::move(slots_);
        std::vector<std::uint8_t> old_meta = std::move(meta_);
        slots_.assign(new_capacity, Slot{});
        meta_.assign(new_capacity, kEmpty);
        size_ = 0;
        for (std::size_t i = 0; i < old_slots.size(); ++i) {
            if (old_meta[i] == kEmpty)
                continue;
            auto [ptr, inserted] = tryEmplace(old_slots[i].key);
            NVFS_REQUIRE(inserted, "duplicate key during rehash");
            *ptr = std::move(old_slots[i].value);
        }
    }

    std::vector<Slot> slots_;
    /** Probe distance + 1 per slot; 0 = empty.  Separate byte array so
     *  misses scan metadata without loading full slots. */
    std::vector<std::uint8_t> meta_;
    std::size_t size_ = 0;
};

/** splitmix64 finalizer — a good default hash for integer keys. */
struct SplitMix64Hash
{
    std::size_t
    operator()(std::uint64_t v) const
    {
        std::uint64_t z = v + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return static_cast<std::size_t>(z ^ (z >> 31));
    }

    std::size_t
    operator()(std::uint32_t v) const
    {
        return (*this)(static_cast<std::uint64_t>(v));
    }
};

} // namespace nvfs::util

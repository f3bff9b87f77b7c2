/**
 * @file
 * nvfs::obs — low-overhead observability: named monotonic counters,
 * high-water marks, and distribution timers, with per-thread sharded
 * slots and aggregate-on-read semantics.
 *
 * The simulator's perf story so far lives entirely in wall-clock
 * medians (BENCH_e2e.json); nothing records *why* a sweep took the
 * time it took — steal rates, cache hit ratios, stage times.
 * This header is the hot-path half of the subsystem: tiny handles
 * (Counter / MaxCounter / Timer / StageTimer) that write to a
 * thread-local slab, so the common increment is a TLS load plus one
 * relaxed atomic store — no shared cache line, no lock, no contention.
 * Aggregation walks every live slab (plus the merged totals of exited
 * threads) under a registry mutex, so totals read at a quiescent
 * point — after a parallel loop returns, for example — are *exact*, not
 * approximately merged; obs_test proves this differentially against
 * serial runs.
 *
 * The export half (JSON snapshot, human table, Chrome trace-event
 * spans) lives in obs/export.hpp so this header stays dependency-free
 * and can be included from util/thread_pool.hpp and the cache hot
 * paths without a link cycle.
 *
 * Compile with -DNVFS_NO_STATS to stub the whole subsystem out: every
 * handle becomes an empty struct, every record a no-op the optimizer
 * deletes, and snapshots come back empty.  The CI no-stats leg builds
 * that configuration to keep it honest.
 */

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace nvfs::obs {

/** What a registered stat measures (and how slabs aggregate). */
enum class StatKind : std::uint8_t {
    Counter, ///< monotonic sum across threads
    Max,     ///< high-water mark (max across threads)
    Timer,   ///< duration distribution: count/total/min/max ns
};

/** One aggregated stat in a snapshot. */
struct StatValue
{
    std::string name;
    StatKind kind = StatKind::Counter;
    std::uint64_t count = 0;   ///< Counter/Max: observations; Timer: samples
    std::uint64_t total = 0;   ///< Counter: the sum; Timer: total ns
    std::uint64_t min = 0;     ///< Timer only (ns); 0 when no samples
    std::uint64_t max = 0;     ///< Max: the high water; Timer: max ns
};

/** Point-in-time aggregate of every registered stat. */
struct Snapshot
{
    std::vector<StatValue> stats;

    /** Value of a counter/max by name (0 when absent). */
    std::uint64_t
    value(const std::string &name) const
    {
        for (const StatValue &s : stats) {
            if (s.name == name)
                return s.kind == StatKind::Max ? s.max : s.total;
        }
        return 0;
    }

    /** The full entry by name; nullptr when absent. */
    const StatValue *
    find(const std::string &name) const
    {
        for (const StatValue &s : stats) {
            if (s.name == name)
                return &s;
        }
        return nullptr;
    }
};

/** One completed trace-event span (Chrome trace-event "X" phase). */
struct TraceSpan
{
    const char *name = "";   ///< static storage (stage name)
    std::string label;       ///< optional per-instance detail
    std::uint64_t startUs = 0; ///< since process trace epoch
    std::uint64_t durUs = 0;
    std::uint32_t tid = 0;   ///< registry-assigned slab id
};

#ifndef NVFS_NO_STATS

namespace detail {

/** Monotonic nanoseconds for stage timing. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Per-stat storage inside one thread's slab.  Only the owning thread
 * writes; aggregation reads concurrently, so the fields are relaxed
 * atomics (single-writer: plain load/store pairs, never RMW).
 */
struct Cell
{
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total{0};
    std::atomic<std::uint64_t> min{0};
    std::atomic<std::uint64_t> max{0};
};

/** Fixed slab capacity: avoids growth races between the owning
 *  thread and concurrent aggregation.  64 B/cell * 192 = 12 KiB per
 *  thread, registered lazily on first stat touch. */
constexpr std::size_t kMaxStats = 192;

struct Slab
{
    std::array<Cell, kMaxStats> cells;
    std::vector<TraceSpan> spans; ///< guarded by spanMutex
    std::mutex spanMutex;         ///< spans: owner appends, export drains
    std::uint32_t id = 0;         ///< stable per-thread id (for tid)
};

} // namespace detail

/**
 * The process-wide stat registry: name -> id, the live slab list, and
 * the merged totals of exited threads.  All hot-path writes bypass it
 * entirely; it is only locked for registration, thread attach/detach,
 * and aggregation.
 */
class Registry
{
  public:
    /**
     * Never destroyed.  util::ThreadPool::global() is a function-local
     * static too: a static registry first touched after the pool was
     * built would be destroyed before it, and the pool's workers
     * detach their slabs into the registry while static teardown
     * joins them.
     */
    static Registry &
    instance()
    {
        static Registry *registry = new Registry;
        return *registry;
    }

    /**
     * Register (or look up) a stat.  Stable id for the process
     * lifetime; call sites cache it in a static handle.  Registering
     * the same name twice returns the first id (the kind must match).
     */
    std::size_t
    registerStat(const std::string &name, StatKind kind)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        auto it = ids_.find(name);
        if (it != ids_.end())
            return it->second;
        if (names_.size() >= detail::kMaxStats) {
            // Out of slots: alias everything further to the overflow
            // cell so handles stay valid (the value is garbage, but
            // nothing crashes; kMaxStats is sized far above need).
            return detail::kMaxStats - 1;
        }
        const std::size_t id = names_.size();
        names_.push_back(name);
        kinds_.push_back(kind);
        ids_.emplace(name, id);
        return id;
    }

    /** Aggregate every stat across retired totals and live slabs. */
    Snapshot
    snapshot()
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        Snapshot snap;
        snap.stats.reserve(names_.size());
        for (std::size_t i = 0; i < names_.size(); ++i) {
            StatValue v;
            v.name = names_[i];
            v.kind = kinds_[i];
            aggregateCell(v, retired_.cells[i]);
            for (const auto &slab : slabs_)
                aggregateCell(v, slab->cells[i]);
            snap.stats.push_back(std::move(v));
        }
        return snap;
    }

    /**
     * Zero every cell (retired and live) and drop buffered trace
     * spans.  For tests; callers must be quiescent (no pool task in
     * flight), since concurrent writers could interleave with the
     * zeroing.
     */
    void
    reset()
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        zeroCells(retired_);
        for (const auto &slab : slabs_) {
            zeroCells(*slab);
            const std::lock_guard<std::mutex> spans(slab->spanMutex);
            slab->spans.clear();
        }
        retiredSpans_.clear();
    }

    /** Turn trace-span buffering on/off (NVFS_TRACE_OUT sets it). */
    void
    enableTracing(bool on)
    {
        tracing_.store(on, std::memory_order_relaxed);
        if (on) {
            // Spans are stamped relative to the first enable, so a
            // trace starts near ts=0 instead of machine uptime.
            std::uint64_t expected = 0;
            traceEpochNs_.compare_exchange_strong(
                expected, detail::nowNs(), std::memory_order_relaxed);
        }
    }

    bool
    tracingEnabled() const
    {
        return tracing_.load(std::memory_order_relaxed);
    }

    /** Nanoseconds since the trace epoch (0 before tracing enabled). */
    std::uint64_t
    sinceTraceEpochNs() const
    {
        const std::uint64_t epoch =
            traceEpochNs_.load(std::memory_order_relaxed);
        if (epoch == 0)
            return 0;
        const std::uint64_t now = detail::nowNs();
        return now > epoch ? now - epoch : 0;
    }

    /** Move every buffered span out (live slabs + exited threads). */
    std::vector<TraceSpan>
    drainSpans()
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        std::vector<TraceSpan> out = std::move(retiredSpans_);
        retiredSpans_.clear();
        for (const auto &slab : slabs_) {
            const std::lock_guard<std::mutex> spans(slab->spanMutex);
            out.insert(out.end(),
                       std::make_move_iterator(slab->spans.begin()),
                       std::make_move_iterator(slab->spans.end()));
            slab->spans.clear();
        }
        return out;
    }

    /** Registered stat count (tests). */
    std::size_t
    statCount()
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return names_.size();
    }

    // ---- thread slab lifecycle (detail; called via tls handle) ------

    std::shared_ptr<detail::Slab>
    attachThread()
    {
        auto slab = std::make_shared<detail::Slab>();
        const std::lock_guard<std::mutex> lock(mutex_);
        slab->id = nextThreadId_++;
        slabs_.push_back(slab);
        return slab;
    }

    /** Fold an exiting thread's slab into the retired totals. */
    void
    detachThread(const std::shared_ptr<detail::Slab> &slab)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < detail::kMaxStats; ++i) {
            mergeCell(retired_.cells[i], slab->cells[i],
                      i < kinds_.size() ? kinds_[i]
                                        : StatKind::Counter);
        }
        {
            const std::lock_guard<std::mutex> spans(slab->spanMutex);
            retiredSpans_.insert(
                retiredSpans_.end(),
                std::make_move_iterator(slab->spans.begin()),
                std::make_move_iterator(slab->spans.end()));
        }
        for (auto it = slabs_.begin(); it != slabs_.end(); ++it) {
            if (it->get() == slab.get()) {
                slabs_.erase(it);
                break;
            }
        }
    }

  private:
    Registry() = default;

    static void
    aggregateCell(StatValue &v, const detail::Cell &cell)
    {
        const std::uint64_t count =
            cell.count.load(std::memory_order_relaxed);
        if (count == 0)
            return;
        const std::uint64_t total =
            cell.total.load(std::memory_order_relaxed);
        const std::uint64_t mn =
            cell.min.load(std::memory_order_relaxed);
        const std::uint64_t mx =
            cell.max.load(std::memory_order_relaxed);
        if (v.count == 0 || mn < v.min)
            v.min = mn;
        if (mx > v.max)
            v.max = mx;
        v.count += count;
        v.total += total;
    }

    static void
    mergeCell(detail::Cell &into, const detail::Cell &from, StatKind)
    {
        const std::uint64_t count =
            from.count.load(std::memory_order_relaxed);
        if (count == 0)
            return;
        const std::uint64_t prev_count =
            into.count.load(std::memory_order_relaxed);
        into.count.store(prev_count + count,
                         std::memory_order_relaxed);
        into.total.store(
            into.total.load(std::memory_order_relaxed) +
                from.total.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        const std::uint64_t mn =
            from.min.load(std::memory_order_relaxed);
        if (prev_count == 0 ||
            mn < into.min.load(std::memory_order_relaxed))
            into.min.store(mn, std::memory_order_relaxed);
        const std::uint64_t mx =
            from.max.load(std::memory_order_relaxed);
        if (mx > into.max.load(std::memory_order_relaxed))
            into.max.store(mx, std::memory_order_relaxed);
    }

    static void
    zeroCells(detail::Slab &slab)
    {
        for (detail::Cell &cell : slab.cells) {
            cell.count.store(0, std::memory_order_relaxed);
            cell.total.store(0, std::memory_order_relaxed);
            cell.min.store(0, std::memory_order_relaxed);
            cell.max.store(0, std::memory_order_relaxed);
        }
    }

    std::mutex mutex_;
    std::map<std::string, std::size_t> ids_;
    std::vector<std::string> names_;
    std::vector<StatKind> kinds_;
    std::vector<std::shared_ptr<detail::Slab>> slabs_;
    detail::Slab retired_; ///< merged totals of exited threads
    std::vector<TraceSpan> retiredSpans_;
    std::uint32_t nextThreadId_ = 1;
    std::atomic<bool> tracing_{false};
    std::atomic<std::uint64_t> traceEpochNs_{0};
};

namespace detail {

/** RAII owner of this thread's slab; detaches (merges) on exit. */
struct SlabHandle
{
    SlabHandle() : slab(Registry::instance().attachThread()) {}
    ~SlabHandle() { Registry::instance().detachThread(slab); }
    std::shared_ptr<Slab> slab;
};

inline Slab &
slab()
{
    static thread_local SlabHandle handle;
    return *handle.slab;
}

/** Single-writer add: load+store, never a lock-prefixed RMW. */
inline void
cellAdd(std::atomic<std::uint64_t> &a, std::uint64_t n)
{
    a.store(a.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
}

} // namespace detail

/** Handle to a monotonic counter; copy freely, add() from anywhere. */
class Counter
{
  public:
    explicit Counter(const char *name)
        : id_(Registry::instance().registerStat(name,
                                                StatKind::Counter))
    {
    }

    void
    add(std::uint64_t n = 1) const
    {
        detail::Cell &cell = detail::slab().cells[id_];
        detail::cellAdd(cell.count, 1);
        detail::cellAdd(cell.total, n);
    }

  private:
    std::size_t id_;
};

/** High-water mark: aggregate is the max observed on any thread. */
class MaxCounter
{
  public:
    explicit MaxCounter(const char *name)
        : id_(Registry::instance().registerStat(name, StatKind::Max))
    {
    }

    void
    observe(std::uint64_t value) const
    {
        detail::Cell &cell = detail::slab().cells[id_];
        detail::cellAdd(cell.count, 1);
        if (value > cell.max.load(std::memory_order_relaxed))
            cell.max.store(value, std::memory_order_relaxed);
    }

  private:
    std::size_t id_;
};

/** Duration distribution: count / total / min / max nanoseconds. */
class Timer
{
  public:
    explicit Timer(const char *name)
        : id_(Registry::instance().registerStat(name, StatKind::Timer))
    {
    }

    void
    record(std::uint64_t ns) const
    {
        detail::Cell &cell = detail::slab().cells[id_];
        const std::uint64_t count =
            cell.count.load(std::memory_order_relaxed);
        cell.count.store(count + 1, std::memory_order_relaxed);
        detail::cellAdd(cell.total, ns);
        if (count == 0 ||
            ns < cell.min.load(std::memory_order_relaxed))
            cell.min.store(ns, std::memory_order_relaxed);
        if (ns > cell.max.load(std::memory_order_relaxed))
            cell.max.store(ns, std::memory_order_relaxed);
    }

  private:
    std::size_t id_;
};

/**
 * RAII stage timer: times construction-to-destruction into `timer`
 * and, when tracing is enabled, also buffers a Chrome trace-event
 * span named `name` (with an optional per-instance label, e.g. the
 * trace path or sweep-point index).
 */
class StageTimer
{
  public:
    /**
     * Name-only convenience: registers (or looks up) the timer by
     * name at construction.  That takes the registry mutex, so prefer
     * the (timer, name) overload with a static Timer handle anywhere
     * hotter than per-stage granularity.
     */
    explicit StageTimer(const char *name, std::string label = {})
        : StageTimer(Timer(name), name, std::move(label))
    {
    }

    StageTimer(const Timer &timer, const char *name,
               std::string label = {})
        : timer_(timer), name_(name), label_(std::move(label)),
          tracing_(Registry::instance().tracingEnabled()),
          startNs_(detail::nowNs()),
          startSinceEpochNs_(
              tracing_
                  ? Registry::instance().sinceTraceEpochNs()
                  : 0)
    {
    }

    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;

    ~StageTimer()
    {
        const std::uint64_t end = detail::nowNs();
        const std::uint64_t dur =
            end > startNs_ ? end - startNs_ : 0;
        timer_.record(dur);
        if (tracing_) {
            detail::Slab &slab = detail::slab();
            TraceSpan span;
            span.name = name_;
            span.label = std::move(label_);
            span.startUs = startSinceEpochNs_ / 1000;
            span.durUs = dur / 1000;
            span.tid = slab.id;
            const std::lock_guard<std::mutex> lock(slab.spanMutex);
            slab.spans.push_back(std::move(span));
        }
    }

  private:
    Timer timer_;
    const char *name_;
    std::string label_;
    bool tracing_;
    std::uint64_t startNs_;
    std::uint64_t startSinceEpochNs_;
};

/** Take an aggregated snapshot of every stat. */
inline Snapshot
snapshot()
{
    return Registry::instance().snapshot();
}

/** Zero everything (tests; callers must be quiescent). */
inline void
resetAll()
{
    Registry::instance().reset();
}

#else // NVFS_NO_STATS ------------------------------------------------

/**
 * Stub surface: same API, zero code.  Handles still construct from a
 * name so call sites compile unchanged, but nothing registers and
 * every record is a no-op the optimizer deletes.
 */
class Registry
{
  public:
    static Registry &
    instance()
    {
        static Registry *registry = new Registry;
        return *registry;
    }

    Snapshot snapshot() { return {}; }
    void reset() {}
    void enableTracing(bool) {}
    bool tracingEnabled() const { return false; }
    std::vector<TraceSpan> drainSpans() { return {}; }
    std::size_t statCount() { return 0; }
};

class Counter
{
  public:
    explicit Counter(const char *) {}
    void add(std::uint64_t = 1) const {}
};

class MaxCounter
{
  public:
    explicit MaxCounter(const char *) {}
    void observe(std::uint64_t) const {}
};

class Timer
{
  public:
    explicit Timer(const char *) {}
    void record(std::uint64_t) const {}
};

class StageTimer
{
  public:
    explicit StageTimer(const char *, std::string = {}) {}
    StageTimer(const Timer &, const char *, std::string = {}) {}
    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;
};

inline Snapshot
snapshot()
{
    return {};
}

inline void
resetAll()
{
}

#endif // NVFS_NO_STATS

} // namespace nvfs::obs

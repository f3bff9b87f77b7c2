/**
 * @file
 * The worker pool behind every parallel fan-out, and its one loop.
 *
 * The simulator's parallel work is coarse: independent cache
 * simulations (replay-grid cells, sweep tasks), each milliseconds to
 * seconds long.  So the pool is a fixed set of NVFS_JOBS workers
 * popping one mutex-guarded FIFO, and the only way to use it is
 * ThreadPool::forEach(): a caller-helps claim loop that runs body(i)
 * for every i in [0, n) on the calling thread plus up to width - 1
 * helper tasks.
 *
 *  - **Same answer at every width.**  Every index runs, even after
 *    one throws, and the lowest index's exception is rethrown in a
 *    TaskError naming that index's TaskLabel.  Bodies write their
 *    results to per-index slots.
 *  - **Nesting cannot deadlock.**  The caller claims indices itself
 *    and waits only for indices another thread is already running,
 *    never for a queued helper, so a body may run a loop of its own
 *    on the same pool (a sweep task running a replay grid).
 *
 * ThreadPool::global() is the process-wide pool, sized by NVFS_JOBS.
 */

#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/env.hpp"

namespace nvfs::util {

/**
 * A task exception wrapped with the context of the task that threw
 * it.  Exceptions rethrown from a parallel loop used to surface with
 * no hint of *which* task failed — a replay error in a 24-point sweep
 * read the same as one in a smoke test.  Tasks (and the sweep/grid
 * wiring) now name themselves with a TaskLabel; the loop wraps any
 * escaping std::exception in a TaskError whose message leads with
 * that label.
 */
class TaskError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * RAII thread-local label naming the work currently executing on this
 * thread ("sweep point 2 (t4.trace)", "replay grid model 1
 * (unified)").  Labels nest; the innermost one wins.
 */
class TaskLabel
{
  public:
    explicit TaskLabel(std::string text) : prev_(std::move(slot()))
    {
        slot() = std::move(text);
    }

    TaskLabel(const TaskLabel &) = delete;
    TaskLabel &operator=(const TaskLabel &) = delete;

    ~TaskLabel() { slot() = std::move(prev_); }

    /** The innermost active label on this thread ("" when none). */
    static const std::string &current() { return slot(); }

  private:
    static std::string &
    slot()
    {
        static thread_local std::string label;
        return label;
    }

    std::string prev_;
};

/**
 * Wrap a captured exception with `context` (default: the calling
 * thread's active TaskLabel).  std::exception payloads become a
 * TaskError("context: what()"); foreign exceptions and empty contexts
 * pass through untouched.
 */
inline std::exception_ptr
wrapTaskContext(std::exception_ptr error, const std::string &context)
{
    if (!error || context.empty())
        return error;
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &e) {
        return std::make_exception_ptr(
            TaskError(context + ": " + e.what()));
    } catch (...) {
        return error;
    }
}

inline std::exception_ptr
wrapTaskContext(std::exception_ptr error)
{
    return wrapTaskContext(std::move(error), TaskLabel::current());
}

/**
 * Worker count for parallel work: the NVFS_JOBS environment variable
 * when set, else the hardware thread count (and 1 when even that is
 * unknown).  A malformed NVFS_JOBS (not a plain integer in
 * [1, 65536]) is a fatal error via envInt().
 */
inline unsigned
defaultJobCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned fallback = hw == 0 ? 1 : hw;
    return static_cast<unsigned>(
        envInt("NVFS_JOBS", fallback, 1, 65536));
}

/** Fixed workers on one FIFO, driven through forEach(). */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 = defaultJobCount() */
    explicit ThreadPool(unsigned threads = 0)
    {
        if (threads == 0)
            threads = defaultJobCount();
        workers_.reserve(threads);
        for (unsigned i = 0; i < threads; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Runs the helpers still queued (each finds its loop finished and
     * returns at once), then joins the workers.
     */
    ~ThreadPool()
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        wake_.notify_all();
        for (std::thread &worker : workers_)
            worker.join();
    }

    /** Number of worker threads. */
    unsigned
    threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * The claim loop: run body(i) for every i in [0, n) on the calling
     * thread plus min(n - 1, threadCount(), width - 1) helpers, which
     * claim indices off one shared counter.  Index i runs under the
     * TaskLabel label(i), or under the caller's label when label(i)
     * is empty.  After every index ran, the lowest-index exception
     * (if any) is rethrown, wrapped with that label.
     */
    template <typename Label, typename Body>
    void
    forEach(std::size_t n, unsigned width, const Label &label,
            const Body &body)
    {
        if (n == 0)
            return;
        const std::string context = TaskLabel::current();
        // Never throws: it runs as a helper's task on a worker thread.
        const auto run = [&](std::size_t i) -> std::exception_ptr {
            try {
                std::string name = label(i);
                const TaskLabel scope(name.empty() ? context
                                                   : std::move(name));
                try {
                    body(i);
                } catch (...) {
                    return wrapTaskContext(std::current_exception());
                }
            } catch (...) {
                return std::current_exception();
            }
            return nullptr;
        };

        // Helpers hold the claims by shared_ptr: one may be popped
        // after the loop returned.  It then finds no index left and
        // never touches `run`, whose references die with this frame.
        auto claims = std::make_shared<Claims>(n);
        const auto drive = [claims, &run] {
            for (;;) {
                const std::size_t i =
                    claims->next.fetch_add(1, std::memory_order_relaxed);
                if (i >= claims->n)
                    return;
                std::exception_ptr error = run(i);
                const std::lock_guard<std::mutex> lock(claims->m);
                claims->errors[i] = std::move(error);
                if (++claims->done == claims->n)
                    claims->cv.notify_all();
            }
        };
        const std::size_t helpers = std::min<std::size_t>(
            {n - 1, threadCount(), width > 1 ? width - 1 : 0});
        for (std::size_t h = 0; h < helpers; ++h)
            submit(drive);
        drive();
        {
            std::unique_lock<std::mutex> lock(claims->m);
            claims->cv.wait(lock,
                            [&claims] { return claims->done == claims->n; });
        }
        // Take every error out before rethrowing: whichever thread
        // drops the last reference to the claims releases what they
        // still hold, and that must not be a straggling helper while
        // the caller is reading the exception.
        std::exception_ptr first;
        for (std::exception_ptr &error : claims->errors) {
            if (!first)
                first = std::move(error);
            error = nullptr;
        }
        if (first)
            std::rethrow_exception(first);
    }

    /** The process-wide pool, sized by NVFS_JOBS at first use. */
    static ThreadPool &
    global()
    {
        static ThreadPool pool;
        return pool;
    }

  private:
    /** Shared index-claiming state of one forEach(). */
    struct Claims
    {
        explicit Claims(std::size_t count) : n(count), errors(count) {}

        const std::size_t n;
        std::atomic<std::size_t> next{0};
        std::mutex m; ///< guards done and errors
        std::size_t done = 0;
        std::vector<std::exception_ptr> errors;
        std::condition_variable cv;
    };

    void
    submit(std::function<void()> task)
    {
        static const obs::Counter submitted("pool.tasks_submitted");
        static const obs::MaxCounter depth("pool.queue_depth_hwm");
        submitted.add();
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back(std::move(task));
            depth.observe(queue_.size());
        }
        wake_.notify_one();
    }

    void
    workerLoop()
    {
        static const obs::Counter executed("pool.tasks_executed");
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock, [this] {
                    return stopping_ || !queue_.empty();
                });
                if (queue_.empty())
                    return; // stopping, and nothing left to drain
                task = std::move(queue_.front());
                queue_.pop_front();
            }
            executed.add();
            task();
        }
    }

    std::mutex mutex_; ///< guards queue_ and stopping_
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
    std::condition_variable wake_;
    std::vector<std::thread> workers_; ///< last: they use the above
};

} // namespace nvfs::util

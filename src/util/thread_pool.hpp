/**
 * @file
 * A work-stealing task scheduler.
 *
 * PR 1's ThreadPool was a single mutex-guarded FIFO feeding
 * NVFS_JOBS workers — fine for fanning out a dozen long simulator
 * runs, hopeless for fine-grained work (every push and pop fought for
 * one lock) and unable to let a task fan out further.  This version
 * keeps the same surface (submit()/wait()/threadCount()/
 * defaultJobCount()) and adds:
 *
 *  - **Per-worker Chase–Lev deques** (util::TaskDeque): a worker
 *    pushes nested tasks to its own deque lock-free and pops LIFO;
 *    idle workers steal FIFO from victims, oldest task first.  A
 *    global mutex-guarded *injector* queue accepts submissions from
 *    non-worker threads.
 *  - **Nested submission**: submit() from inside a task enqueues to
 *    the executing worker's own deque, so a sweep task can itself fan
 *    out (parallel ingest/prep inside one experiment).
 *  - **parallelFor()/parallelReduce()**: chunked data-parallel loops
 *    whose chunk structure depends only on the iteration count — not
 *    the worker count — and whose reduction is chunk-ordered, so the
 *    result is *identical* for any NVFS_JOBS (the same guarantee
 *    SweepRunner established for sweeps).  The calling thread
 *    participates (it claims chunks too), so a 1-thread pool degrades
 *    to the plain serial loop.
 *  - **Exception safety**: a task that throws no longer deadlocks
 *    shutdown; the first exception is captured and rethrown to the
 *    next wait() caller.  parallelFor rethrows the lowest-index
 *    chunk's exception after all chunks ran (deterministic).
 *
 * ThreadPool::global() is the process-wide pool (sized by NVFS_JOBS);
 * ThreadPool::ambient() resolves to the pool whose worker is
 * currently executing (nested use) and falls back to global() — the
 * parallel ingest/prep paths use it so their width always follows the
 * enclosing sweep.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
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
#include "util/log.hpp"
#include "util/task_deque.hpp"

namespace nvfs::util {

/**
 * A task exception wrapped with the context of the task that threw
 * it.  Exceptions rethrown from ThreadPool::wait() / parallelFor used
 * to surface with no hint of *which* task failed — a replay error in
 * a 24-point sweep read the same as one in a smoke test.  Tasks (and
 * the sweep/grid wiring) now name themselves with a TaskLabel; the
 * pool wraps any escaping std::exception in a TaskError whose message
 * leads with that label.
 */
class TaskError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * RAII thread-local label naming the work currently executing on this
 * thread ("sweep point 2 (t4.trace)", "replay grid model 1
 * (unified)").  Labels nest; the innermost one wins.  submit()
 * snapshots the submitter's label into the task, so context crosses
 * the pool boundary onto whichever worker runs the task.
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

/** Work-stealing scheduler; see the file comment. */
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
            workers_.push_back(std::make_unique<Worker>(i));
        for (unsigned i = 0; i < threads; ++i) {
            workers_[i]->thread =
                std::thread([this, i] { workerLoop(*workers_[i]); });
        }
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Drains every queue (running all remaining tasks, including ones
     * they spawn), then joins the workers.  Safe even if tasks threw:
     * the exception is captured per-pool, never propagated out of a
     * worker, so shutdown cannot deadlock on an unwinding task.
     */
    ~ThreadPool()
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
            ++epoch_;
        }
        wake_.notify_all();
        for (const auto &worker : workers_)
            worker->thread.join();
    }

    /**
     * Enqueue a task.  Never blocks on task execution.  From inside a
     * pool task this pushes to the executing worker's own deque
     * (nested fan-out); from any other thread it goes through the
     * injector queue.  If the task throws, the first such exception
     * is rethrown by the next wait().
     */
    void
    submit(std::function<void()> task)
    {
        static const obs::Counter submitted("pool.tasks_submitted");
        static const obs::MaxCounter depth("pool.queue_depth_hwm");
        auto *node =
            new Task{std::move(task), TaskLabel::current()};
        submitted.add();
        depth.observe(
            pending_.fetch_add(1, std::memory_order_relaxed) + 1);
        if (tlsPool_ == this && tlsWorker_ != nullptr) {
            tlsWorker_->deque.push(node);
        } else {
            const std::lock_guard<std::mutex> lock(injectorMutex_);
            injector_.push_back(node);
        }
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            ++epoch_;
        }
        wake_.notify_one();
    }

    /**
     * Block until every submitted task has finished running, then
     * rethrow the first exception any of them threw (if any; the
     * error is consumed, so a later wait() succeeds).
     */
    void
    wait()
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            idle_.wait(lock, [this] {
                return pending_.load(std::memory_order_acquire) == 0;
            });
        }
        rethrowFirstError();
    }

    /** Number of worker threads. */
    unsigned
    threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Run body(chunkBegin, chunkEnd) over [begin, end) split into
     * chunks of `grain` iterations (0 = even split into at most
     * kMaxAutoChunks).  The chunk structure depends only on the
     * iteration count and grain — never on the worker count — and the
     * calling thread claims chunks alongside the workers, so results
     * (and side effects into disjoint per-chunk slots) are identical
     * for any pool width.  If chunks throw, every chunk still runs
     * and the lowest-index chunk's exception is rethrown.
     */
    template <typename Body>
    void
    parallelFor(std::size_t begin, std::size_t end, Body &&body,
                std::size_t grain = 0)
    {
        const std::size_t n = end > begin ? end - begin : 0;
        if (n == 0)
            return;
        if (grain == 0)
            grain = (n + kMaxAutoChunks - 1) / kMaxAutoChunks;
        const std::size_t chunks = (n + grain - 1) / grain;
        auto runChunk = [begin, end, grain, &body](std::size_t c) {
            const std::size_t b = begin + c * grain;
            const std::size_t e = b + grain < end ? b + grain : end;
            body(b, e);
        };
        if (chunks == 1 || threadCount() <= 1) {
            // Same chunk structure, executed in order on this thread
            // (every chunk runs even if one throws, matching the
            // parallel path's deterministic error selection).
            std::exception_ptr first;
            for (std::size_t c = 0; c < chunks; ++c) {
                try {
                    runChunk(c);
                } catch (...) {
                    if (!first)
                        first =
                            wrapTaskContext(std::current_exception());
                }
            }
            if (first)
                std::rethrow_exception(first);
            return;
        }

        auto fork = std::make_shared<ForkState>(chunks);
        auto drive = [fork, runChunk] {
            for (;;) {
                const std::size_t c = fork->next.fetch_add(
                    1, std::memory_order_relaxed);
                if (c >= fork->chunks)
                    return;
                try {
                    runChunk(c);
                } catch (...) {
                    fork->errors[c] =
                        wrapTaskContext(std::current_exception());
                }
                if (fork->done.fetch_add(
                        1, std::memory_order_acq_rel) +
                        1 ==
                    fork->chunks) {
                    const std::lock_guard<std::mutex> lock(fork->m);
                    fork->cv.notify_all();
                }
            }
        };
        // Helpers so idle workers can join in; the shared_ptr keeps
        // the fork state alive for stragglers that find no chunk
        // left.  The caller drives too, so progress never depends on
        // a helper being scheduled.
        const std::size_t helpers =
            chunks - 1 < threadCount() ? chunks - 1 : threadCount();
        for (std::size_t h = 0; h < helpers; ++h)
            submit(drive);
        drive();
        {
            std::unique_lock<std::mutex> lock(fork->m);
            fork->cv.wait(lock, [&fork] {
                return fork->done.load(std::memory_order_acquire) ==
                       fork->chunks;
            });
        }
        // Take ownership of every error before rethrowing: a
        // straggler worker still holds a shared_ptr to the fork
        // state, and if it dropped the last reference it would
        // release the exception objects on its own thread — after
        // the caller's catch block has already read them.  Moving
        // them out here keeps the final release on the caller.
        std::exception_ptr first;
        for (std::exception_ptr &error : fork->errors) {
            if (!first)
                first = std::move(error);
            error = nullptr;
        }
        if (first)
            std::rethrow_exception(first);
    }

    /**
     * Chunk-ordered parallel reduction: produce(chunkBegin, chunkEnd)
     * computes one partial R per chunk (in parallel), then the
     * partials are combined *in chunk order* on the calling thread —
     * so even floating-point reductions are bit-identical for any
     * worker count.  R must be default-constructible.
     */
    template <typename R, typename Produce, typename Combine>
    R
    parallelReduce(std::size_t begin, std::size_t end, R init,
                   Produce &&produce, Combine &&combine,
                   std::size_t grain = 0)
    {
        const std::size_t n = end > begin ? end - begin : 0;
        if (n == 0)
            return init;
        if (grain == 0)
            grain = (n + kMaxAutoChunks - 1) / kMaxAutoChunks;
        const std::size_t chunks = (n + grain - 1) / grain;
        std::vector<R> partials(chunks);
        parallelFor(
            begin, end,
            [&](std::size_t b, std::size_t e) {
                partials[(b - begin) / grain] = produce(b, e);
            },
            grain);
        R acc = std::move(init);
        for (R &partial : partials)
            acc = combine(std::move(acc), std::move(partial));
        return acc;
    }

    /** The process-wide pool, sized by NVFS_JOBS at first use. */
    static ThreadPool &
    global()
    {
        static ThreadPool pool;
        return pool;
    }

    /** Pool whose worker is executing on this thread, else nullptr. */
    static ThreadPool *
    current()
    {
        return tlsPool_;
    }

    /**
     * The pool a parallel pass should use here: the enclosing pool
     * when called from inside a pool task (nested fan-out inherits
     * the sweep's width), else the global NVFS_JOBS pool.
     */
    static ThreadPool &
    ambient()
    {
        return current() != nullptr ? *current() : global();
    }

  private:
    /** Auto-grain fan-out cap; fixed so chunking is width-independent. */
    static constexpr std::size_t kMaxAutoChunks = 64;

    struct Task
    {
        std::function<void()> fn;
        /** Submitter's TaskLabel, re-installed while fn runs so a
         *  throwing task names itself (and nested submits inherit). */
        std::string context;
    };

    struct Worker
    {
        explicit Worker(unsigned i) : index(i) {}

        TaskDeque<Task> deque;
        std::thread thread;
        unsigned index;
    };

    /** Shared chunk-claiming state of one parallelFor. */
    struct ForkState
    {
        explicit ForkState(std::size_t n) : chunks(n), errors(n) {}

        const std::size_t chunks;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::vector<std::exception_ptr> errors;
        std::mutex m;
        std::condition_variable cv;
    };

    void
    workerLoop(Worker &self)
    {
        tlsPool_ = this;
        tlsWorker_ = &self;
        for (;;) {
            if (Task *task = findTask(self)) {
                runTask(task);
                continue;
            }
            std::uint64_t seen;
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                seen = epoch_;
                if (stopping_ &&
                    pending_.load(std::memory_order_acquire) == 0)
                    break;
            }
            // Re-scan after snapshotting the epoch: any submission
            // after this point bumps the epoch, so the wait below
            // cannot miss it.
            if (Task *task = findTask(self)) {
                runTask(task);
                continue;
            }
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this, seen] {
                return epoch_ != seen ||
                       (stopping_ &&
                        pending_.load(std::memory_order_acquire) == 0);
            });
            if (stopping_ &&
                pending_.load(std::memory_order_acquire) == 0)
                break;
        }
        tlsWorker_ = nullptr;
        tlsPool_ = nullptr;
    }

    Task *
    findTask(Worker &self)
    {
        if (Task *task = self.deque.pop())
            return task;
        {
            const std::lock_guard<std::mutex> lock(injectorMutex_);
            if (!injector_.empty()) {
                Task *task = injector_.front();
                injector_.pop_front();
                return task;
            }
        }
        const std::size_t n = workers_.size();
        for (std::size_t round = 0; round < 2; ++round) {
            for (std::size_t i = 1; i < n; ++i) {
                Worker &victim = *workers_[(self.index + i) % n];
                if (victim.deque.maybeEmpty())
                    continue;
                if (Task *task = victim.deque.steal()) {
                    static const obs::Counter stolen(
                        "pool.tasks_stolen");
                    stolen.add();
                    return task;
                }
            }
        }
        return nullptr;
    }

    void
    runTask(Task *task)
    {
        static const obs::Counter executed("pool.tasks_executed");
        executed.add();
        std::exception_ptr error;
        if (task->context.empty()) {
            try {
                task->fn();
            } catch (...) {
                error = wrapTaskContext(std::current_exception());
            }
        } else {
            const TaskLabel label(std::move(task->context));
            try {
                task->fn();
            } catch (...) {
                error = wrapTaskContext(std::current_exception());
            }
        }
        if (error) {
            const std::lock_guard<std::mutex> lock(errorMutex_);
            // Hand the reference over (or drop it) under the lock:
            // a copy lingering in this frame would make this worker
            // the one to release the exception object after wait()
            // has rethrown it and the caller has read it.
            if (!error_)
                error_ = std::move(error);
            else
                error = nullptr;
        }
        delete task;
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                ++epoch_;
            }
            wake_.notify_all();
            idle_.notify_all();
        }
    }

    void
    rethrowFirstError()
    {
        std::exception_ptr error;
        {
            const std::lock_guard<std::mutex> lock(errorMutex_);
            std::swap(error, error_);
        }
        if (error)
            std::rethrow_exception(error);
    }

    inline static thread_local ThreadPool *tlsPool_ = nullptr;
    inline static thread_local Worker *tlsWorker_ = nullptr;

    std::vector<std::unique_ptr<Worker>> workers_;
    std::deque<Task *> injector_;
    std::mutex injectorMutex_;
    std::atomic<std::size_t> pending_{0};
    std::mutex mutex_; ///< guards epoch_/stopping_, backs both cvs
    std::condition_variable wake_;
    std::condition_variable idle_;
    std::uint64_t epoch_ = 0;
    bool stopping_ = false;
    std::mutex errorMutex_;
    std::exception_ptr error_;
};

} // namespace nvfs::util

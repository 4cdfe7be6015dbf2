// A std::thread worker pool running index-slotted batches deterministically.
//
// The pool's one primitive is parallel_for: task(i) for i in [0, count),
// each index deterministic given i and writing only into its own
// pre-sized slot, which makes every batch reproducible bit-for-bit
// regardless of thread count or scheduling. One batch runs at a time; a
// caller with several phases (the experiment runner's kernels, designs
// and per-condition solves) runs them as consecutive batches on one pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string_view>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"

namespace cellsync {

class Worker_pool {
  public:
    /// Largest accepted `threads`: far above any host this runs on, and
    /// small enough that a hostile count cannot reserve or spawn without
    /// bound.
    static constexpr std::size_t max_threads = 1024;

    /// `threads` is the total parallelism (the calling thread participates
    /// in every batch, so `threads - 1` workers are spawned).
    /// 0 means std::thread::hardware_concurrency(), capped at max_threads;
    /// an explicit count above max_threads throws std::invalid_argument
    /// naming it. When a worker thread cannot be started, the ones
    /// already running are stopped and joined and a std::system_error
    /// naming the requested count is thrown.
    explicit Worker_pool(std::size_t threads = 0);
    ~Worker_pool();

    Worker_pool(const Worker_pool&) = delete;
    Worker_pool& operator=(const Worker_pool&) = delete;

    /// Total parallelism (workers + calling thread).
    std::size_t thread_count() const { return workers_.size() + 1; }

    /// Run task(i) for every i in [0, count) and block until the batch
    /// drains. `name` labels the batch: each task records a `scheduler`
    /// trace span under it, with its index as an arg. If a task throws,
    /// the remaining indices still run (slot-writers never leave holes)
    /// and the first exception recorded is rethrown afterwards. Not
    /// reentrant: one batch at a time, and tasks must not call back into
    /// the same pool.
    void parallel_for(std::string_view name, std::size_t count,
                      const std::function<void(std::size_t)>& task);

  private:
    void worker_loop();
    /// Claim-and-run loop shared by workers and the calling thread. Claims
    /// are tagged with the batch generation: a worker descheduled between
    /// waking and claiming must not touch a later batch (or the
    /// by-then-destroyed task of its own).
    void drain(std::uint64_t generation);

    /// Wake every worker with stopping_ set and join them all.
    void stop_and_join();

    Annotated_mutex mutex_;
    Annotated_condition_variable start_cv_;  ///< wakes idle workers for a new batch
    Annotated_condition_variable done_cv_;   ///< wakes the caller when the batch ends
    std::uint64_t generation_ CELLSYNC_GUARDED_BY(mutex_) = 0;
    bool stopping_ CELLSYNC_GUARDED_BY(mutex_) = false;
    /// The active batch. `task_` and `name_` point into the caller's
    /// arguments and are only read while an index is unclaimed or running.
    const std::function<void(std::size_t)>* task_ CELLSYNC_GUARDED_BY(mutex_) = nullptr;
    std::string_view name_ CELLSYNC_GUARDED_BY(mutex_);
    std::size_t count_ CELLSYNC_GUARDED_BY(mutex_) = 0;
    std::size_t next_ CELLSYNC_GUARDED_BY(mutex_) = 0;       ///< next unclaimed index
    std::size_t completed_ CELLSYNC_GUARDED_BY(mutex_) = 0;  ///< finished indices
    std::exception_ptr first_error_ CELLSYNC_GUARDED_BY(mutex_);

    /// Declared after every member the worker threads use, so no unwinding
    /// path can destroy the mutex or a condition variable under a live
    /// worker.
    std::vector<std::thread> workers_;
};

}  // namespace cellsync

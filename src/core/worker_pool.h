// A std::thread worker pool executing task graphs deterministically.
//
// The pool's unit of work is an indexed batch: task(i) for i in
// [0, count), each index deterministic given i and writing only into its
// own pre-sized slot, which makes every run reproducible bit-for-bit
// regardless of thread count or scheduling. Historically the pool offered
// exactly one such batch at a time (parallel_for); it now executes whole
// Task_graphs — batches with declared dependencies — claiming (node,
// index) pairs from whichever nodes are ready, so independent phases
// (say, simulating condition k+1's kernel while condition k's solves
// drain) overlap instead of serializing. parallel_for remains as the
// single-node special case of run().
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "core/task_graph.h"
#include "core/thread_annotations.h"

namespace cellsync {

class Worker_pool {
  public:
    /// Largest accepted `threads`: far above any host this runs on, and
    /// small enough that a hostile count cannot reserve or spawn without
    /// bound.
    static constexpr std::size_t max_threads = 1024;

    /// `threads` is the total parallelism (the calling thread participates
    /// in every run, so `threads - 1` workers are spawned).
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

    /// Execute the graph; blocks until every node has either completed or
    /// been cancelled. Ready nodes' indices are claimed lowest-node-id
    /// first, so earlier-added nodes get threads first when several are
    /// ready. If any task throws, its node still drains its remaining
    /// indices (so slot-writers never leave holes), but the node is
    /// marked failed and its transitive dependents are cancelled — their
    /// tasks never run. The first exception recorded anywhere in the run
    /// is rethrown after the graph drains. Not reentrant: one run (or
    /// parallel_for) at a time, and graph tasks must not call back into
    /// the same pool.
    void run(const Task_graph& graph);

    /// Run task(i) for every i in [0, count) — run() on a single-node
    /// graph. Same contract as always: blocks until the batch drains,
    /// first exception rethrown, remaining tasks still run after a throw.
    void parallel_for(std::size_t count, const std::function<void(std::size_t)>& task);

  private:
    /// Per-node execution state for the active run.
    struct Node_state {
        std::size_t waiting_deps = 0;  ///< unresolved dependencies
        bool ready = false;            ///< dependencies satisfied, may claim
        bool resolved = false;         ///< done, failed, or cancelled
        bool failed = false;           ///< a task of this node threw
        bool cancelled = false;        ///< an upstream node failed/cancelled
        std::size_t next = 0;          ///< next unclaimed index
        std::size_t completed = 0;     ///< finished indices
        std::int64_t ready_ns = 0;     ///< telemetry only: claim-eligible instant
    };

    void worker_loop();
    /// Claim-and-run loop shared by workers and the calling thread. Claims
    /// are tagged with the run generation: a worker descheduled between
    /// waking and claiming must not touch a later run's state (or the
    /// by-then-destroyed graph of its own run).
    void drain(const Task_graph& graph, std::uint64_t generation);
    /// Mark `id` ready; immediately resolves pure barriers (count 0).
    void make_ready(const Task_graph& graph, std::size_t id) CELLSYNC_REQUIRES(mutex_);
    /// Mark `id` resolved and propagate to dependents: failed/cancelled
    /// nodes cancel theirs transitively, completed nodes unblock theirs.
    void resolve_node(const Task_graph& graph, std::size_t id) CELLSYNC_REQUIRES(mutex_);

    /// Wake every worker with stopping_ set and join them all.
    void stop_and_join();

    Annotated_mutex mutex_;
    Annotated_condition_variable start_cv_;  ///< wakes idle workers for a new run
    Annotated_condition_variable work_cv_;   ///< wakes drainers on new ready nodes / run end
    Annotated_condition_variable done_cv_;   ///< wakes the caller when the run ends
    std::uint64_t generation_ CELLSYNC_GUARDED_BY(mutex_) = 0;
    bool stopping_ CELLSYNC_GUARDED_BY(mutex_) = false;
    const Task_graph* graph_ CELLSYNC_GUARDED_BY(mutex_) = nullptr;
    std::vector<Node_state> states_ CELLSYNC_GUARDED_BY(mutex_);
    std::size_t resolved_count_ CELLSYNC_GUARDED_BY(mutex_) = 0;
    std::exception_ptr first_error_ CELLSYNC_GUARDED_BY(mutex_);

    /// Declared after every member the worker threads use, so no unwinding
    /// path can destroy the mutex or a condition variable under a live
    /// worker.
    std::vector<std::thread> workers_;
};

}  // namespace cellsync

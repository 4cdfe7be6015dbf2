#include "core/worker_pool.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <system_error>

#include "core/telemetry.h"
#include "core/trace.h"

namespace cellsync {

Worker_pool::Worker_pool(std::size_t threads) {
    if (threads > max_threads) {
        throw std::invalid_argument("Worker_pool: " + std::to_string(threads) +
                                    " threads requested, at most " +
                                    std::to_string(max_threads) + " allowed");
    }
    if (threads == 0) {
        threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, max_threads);
    }
    workers_.reserve(threads - 1);
    try {
        for (std::size_t t = 0; t + 1 < threads; ++t) {
            workers_.emplace_back([this] { worker_loop(); });
        }
    } catch (const std::system_error& e) {
        const std::size_t started = workers_.size();
        stop_and_join();
        throw std::system_error(e.code(), "Worker_pool: cannot start " +
                                              std::to_string(threads) + " threads (only " +
                                              std::to_string(started + 1) + " started)");
    } catch (...) {
        stop_and_join();
        throw;
    }
}

Worker_pool::~Worker_pool() { stop_and_join(); }

void Worker_pool::stop_and_join() {
    {
        const Annotated_lock lock(mutex_);
        stopping_ = true;
    }
    start_cv_.notify_all();
    work_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
}

void Worker_pool::worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
        const Task_graph* graph = nullptr;
        {
            Annotated_lock lock(mutex_);
            // Explicit wait loop (not a predicate lambda): the guarded
            // members are then read in this scope, where the thread-safety
            // analysis can see the capability is held.
            while (!stopping_ && generation_ == seen) start_cv_.wait(lock);
            if (stopping_) return;
            seen = generation_;
            graph = graph_;
        }
        // graph_ is cleared once its run fully drained; a worker waking
        // that late just goes back to sleep until the next run.
        if (graph == nullptr) continue;
        drain(*graph, seen);
    }
}

void Worker_pool::make_ready(const Task_graph& graph, std::size_t id) {
    states_[id].ready = true;
    states_[id].ready_ns = telemetry::Clock::now_ns();
    // A pure barrier has no indices to claim; it completes the moment its
    // dependencies do (resolve_node cascades to its dependents).
    if (graph.nodes_[id].count == 0) resolve_node(graph, id);
}

void Worker_pool::resolve_node(const Task_graph& graph, std::size_t id) {
    Node_state& state = states_[id];
    state.resolved = true;
    ++resolved_count_;
    const bool poisons = state.failed || state.cancelled;
    // Node lifecycle counters + a claim-eligible -> resolved span per
    // node that actually became ready (cancelled-before-ready nodes
    // have no timeline to report). The recorder's buffer lock is a
    // leaf, so recording under mutex_ is ordering-safe.
    static telemetry::Counter& completed = telemetry::counter("scheduler.nodes_completed");
    static telemetry::Counter& failed = telemetry::counter("scheduler.nodes_failed");
    static telemetry::Counter& cancelled = telemetry::counter("scheduler.nodes_cancelled");
    if (state.failed) {
        failed.add();
    } else if (state.cancelled) {
        cancelled.add();
    } else {
        completed.add();
    }
    telemetry::Trace_recorder& recorder = telemetry::Trace_recorder::instance();
    if (recorder.enabled() && state.ready) {
        const char* status = state.failed     ? "failed"
                             : state.cancelled ? "cancelled"
                                               : "completed";
        recorder.record({"node:" + graph.nodes_[id].name, "scheduler.node",
                         telemetry::args_join(
                             telemetry::arg("status", status),
                             telemetry::arg("tasks", static_cast<std::int64_t>(
                                                         graph.nodes_[id].count))),
                         state.ready_ns, telemetry::Clock::now_ns() - state.ready_ns,
                         0});
    }
    for (const std::size_t dependent : graph.nodes_[id].dependents) {
        Node_state& ds = states_[dependent];
        if (poisons) ds.cancelled = true;
        if (--ds.waiting_deps == 0) {
            if (ds.cancelled) {
                // Cancelled nodes never run: resolve immediately so the
                // poison propagates transitively and the run can finish.
                resolve_node(graph, dependent);
            } else {
                make_ready(graph, dependent);
            }
        }
    }
    if (resolved_count_ == states_.size()) done_cv_.notify_all();
    // New ready nodes (or run completion) may unblock waiting drainers.
    work_cv_.notify_all();
}

void Worker_pool::drain(const Task_graph& graph, std::uint64_t generation) {
    Annotated_lock lock(mutex_);
    for (;;) {
        // The generation check guards against a worker that observed this
        // run but was descheduled until after it drained and a new one
        // started: its graph reference is dangling and states_ belong to
        // the new run. (When the generation still matches and nodes remain
        // unresolved, the run is live and the graph is valid.)
        if (generation_ != generation || stopping_) return;
        if (resolved_count_ == states_.size()) return;

        // Claim lowest-node-id first among ready nodes with unclaimed
        // indices. Results never depend on the claim order — every index
        // writes its own slot — only wall-clock does.
        std::size_t id = states_.size();
        for (std::size_t n = 0; n < states_.size(); ++n) {
            if (states_[n].ready && !states_[n].resolved &&
                states_[n].next < graph.nodes_[n].count) {
                id = n;
                break;
            }
        }
        if (id == states_.size()) {
            // Nothing claimable right now: wait for a node to become
            // ready or the run to finish (the loop re-checks both).
            static telemetry::Histogram& queue_wait =
                telemetry::histogram("scheduler.queue_wait_us");
            const std::int64_t wait_start = telemetry::Clock::now_ns();
            work_cv_.wait(lock);
            queue_wait.record(
                static_cast<double>(telemetry::Clock::now_ns() - wait_start) * 1e-3);
            continue;
        }

        const std::size_t index = states_[id].next++;
        lock.unlock();
        std::exception_ptr error;
        {
            // Args are only materialized while actually recording — an
            // untraced run must not pay a per-task allocation.
            const bool tracing = telemetry::Trace_recorder::instance().enabled();
            const telemetry::Trace_span span(
                graph.nodes_[id].name, "scheduler",
                tracing ? telemetry::arg("index", static_cast<std::int64_t>(index))
                        : std::string());
            try {
                graph.nodes_[id].task(index);
            } catch (...) {
                error = std::current_exception();
            }
        }
        static telemetry::Counter& tasks_run = telemetry::counter("scheduler.tasks_run");
        tasks_run.add();
        lock.lock();
        if (error) {
            if (!first_error_) first_error_ = error;
            states_[id].failed = true;
        }
        if (++states_[id].completed == graph.nodes_[id].count) {
            resolve_node(graph, id);
        }
    }
}

void Worker_pool::run(const Task_graph& graph) {
    if (graph.node_count() == 0) return;
    std::uint64_t generation = 0;
    {
        const Annotated_lock lock(mutex_);
        graph_ = &graph;
        states_.assign(graph.node_count(), Node_state{});
        resolved_count_ = 0;
        first_error_ = nullptr;
        generation = ++generation_;
        for (std::size_t id = 0; id < graph.nodes_.size(); ++id) {
            states_[id].waiting_deps = graph.nodes_[id].deps.size();
        }
        // Roots are ready immediately. make_ready may cascade through
        // barrier chains, so seed waiting_deps for every node first.
        for (std::size_t id = 0; id < graph.nodes_.size(); ++id) {
            if (graph.nodes_[id].deps.empty() && !states_[id].ready &&
                !states_[id].resolved) {
                make_ready(graph, id);
            }
        }
    }
    start_cv_.notify_all();
    drain(graph, generation);

    std::exception_ptr error;
    {
        Annotated_lock lock(mutex_);
        while (resolved_count_ != states_.size()) done_cv_.wait(lock);
        error = first_error_;
        first_error_ = nullptr;
        graph_ = nullptr;
    }
    if (error) std::rethrow_exception(error);
}

void Worker_pool::parallel_for(std::size_t count,
                               const std::function<void(std::size_t)>& task) {
    if (count == 0) return;
    Task_graph graph;
    graph.add_node("parallel_for", count, [&task](std::size_t i) { task(i); });
    run(graph);
}

}  // namespace cellsync

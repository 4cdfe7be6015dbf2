#include "core/worker_pool.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

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
    for (std::thread& worker : workers_) worker.join();
}

void Worker_pool::worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
        {
            Annotated_lock lock(mutex_);
            // Explicit wait loop (not a predicate lambda): the guarded
            // members are then read in this scope, where the thread-safety
            // analysis can see the capability is held.
            while (!stopping_ && generation_ == seen) start_cv_.wait(lock);
            if (stopping_) return;
            seen = generation_;
        }
        // A worker waking after its batch drained finds nothing left to
        // claim and goes back to sleep until the next one.
        drain(seen);
    }
}

void Worker_pool::drain(std::uint64_t generation) {
    Annotated_lock lock(mutex_);
    for (;;) {
        // The generation check guards against a worker that observed this
        // batch but was descheduled until after it drained and a new one
        // started: the task it saw is gone and the indices belong to the
        // new batch. (While the generation matches and an index is
        // unclaimed, the batch is live and its task valid.)
        if (generation_ != generation || next_ == count_) return;

        const std::size_t index = next_++;
        const std::function<void(std::size_t)>& task = *task_;
        const std::string_view name = name_;
        lock.unlock();
        std::exception_ptr error;
        {
            // Args are only materialized while actually recording — an
            // untraced run must not pay a per-task allocation.
            const bool tracing = telemetry::Trace_recorder::instance().enabled();
            const telemetry::Trace_span span(
                name, "scheduler",
                tracing ? telemetry::arg("index", static_cast<std::int64_t>(index))
                        : std::string());
            try {
                task(index);
            } catch (...) {
                error = std::current_exception();
            }
        }
        static telemetry::Counter& tasks_run = telemetry::counter("scheduler.tasks_run");
        tasks_run.add();
        lock.lock();
        if (error && !first_error_) first_error_ = error;
        if (++completed_ == count_) done_cv_.notify_all();
    }
}

void Worker_pool::parallel_for(std::string_view name, std::size_t count,
                               const std::function<void(std::size_t)>& task) {
    if (count == 0) return;
    std::uint64_t generation = 0;
    {
        const Annotated_lock lock(mutex_);
        task_ = &task;
        name_ = name;
        count_ = count;
        next_ = 0;
        completed_ = 0;
        first_error_ = nullptr;
        generation = ++generation_;
    }
    start_cv_.notify_all();
    drain(generation);

    std::exception_ptr error;
    {
        Annotated_lock lock(mutex_);
        while (completed_ != count_) done_cv_.wait(lock);
        error = std::exchange(first_error_, nullptr);
        task_ = nullptr;
    }
    if (error) std::rethrow_exception(error);
}

}  // namespace cellsync

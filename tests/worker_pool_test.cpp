#include "core/worker_pool.h"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

namespace cellsync {
namespace {

// Sanitizer runtimes reserve terabytes of shadow address space, which an
// RLIMIT_AS cap cannot coexist with.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool address_space_cap_usable = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool address_space_cap_usable = false;
#else
constexpr bool address_space_cap_usable = true;
#endif
#else
constexpr bool address_space_cap_usable = true;
#endif

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
        Worker_pool pool(threads);
        EXPECT_EQ(pool.thread_count(), threads);
        std::vector<std::atomic<int>> hits(257);
        pool.parallel_for("batch", hits.size(), [&](std::size_t i) { ++hits[i]; });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
}

TEST(WorkerPool, CallingThreadTakesPartInEveryBatch) {
    // Two tasks on a two-thread pool, each waiting until both have
    // started: the batch can only finish if the calling thread runs one of
    // them. The bounded wait turns a regression into a failure, not a hang.
    Worker_pool pool(2);
    const std::thread::id caller = std::this_thread::get_id();
    for (int round = 0; round < 20; ++round) {
        std::atomic<int> started{0};
        std::atomic<bool> timed_out{false};
        std::vector<std::thread::id> ran_on(2);
        pool.parallel_for("batch", ran_on.size(), [&](std::size_t i) {
            ran_on[i] = std::this_thread::get_id();
            ++started;
            for (int wait_ms = 0; started.load() < 2; ++wait_ms) {
                if (wait_ms == 5000) {
                    timed_out = true;
                    return;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
        ASSERT_FALSE(timed_out.load()) << "round " << round;
        EXPECT_TRUE(ran_on[0] == caller || ran_on[1] == caller) << "round " << round;
    }
}

TEST(WorkerPool, SlotWritesAreDeterministic) {
    // Tasks writing into their own slot produce the same result for any
    // thread count — the invariant the experiment runner and the pooled
    // bootstrap build on.
    auto run = [](std::size_t threads) {
        Worker_pool pool(threads);
        std::vector<double> out(100);
        pool.parallel_for("batch", out.size(), [&](std::size_t i) {
            out[i] = static_cast<double>(i * i) + 0.5;
        });
        return out;
    };
    const std::vector<double> serial = run(1);
    EXPECT_EQ(serial, run(4));
}

TEST(WorkerPool, ReusableAcrossBatches) {
    Worker_pool pool(4);
    for (int round = 0; round < 25; ++round) {
        std::atomic<std::size_t> total{0};
        pool.parallel_for("batch", 50, [&](std::size_t i) { total += i; });
        EXPECT_EQ(total.load(), 50u * 49u / 2u);
    }
}

TEST(WorkerPool, RapidBackToBackBatchesNeverLeakAcrossGenerations) {
    // Stress the stale-generation guard: tiny batches posted in quick
    // succession mean workers regularly wake up after their batch has
    // already drained; every task must still run against its own batch's
    // counter, exactly once.
    Worker_pool pool(4);
    for (int round = 0; round < 2000; ++round) {
        const std::size_t count = 1 + static_cast<std::size_t>(round % 4);
        std::atomic<std::size_t> ran{0};
        pool.parallel_for("batch", count, [&](std::size_t) { ++ran; });
        ASSERT_EQ(ran.load(), count) << "round " << round;
    }
}

TEST(WorkerPool, FirstExceptionPropagatesAfterDrain) {
    Worker_pool pool(3);
    std::vector<std::atomic<int>> hits(40);
    EXPECT_THROW(pool.parallel_for("batch", hits.size(),
                                   [&](std::size_t i) {
                                       ++hits[i];
                                       if (i == 7) throw std::runtime_error("task 7");
                                   }),
                 std::runtime_error);
    // Remaining tasks still ran.
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    // The pool survives a throwing batch.
    std::atomic<int> ok{0};
    pool.parallel_for("batch", 10, [&](std::size_t) { ++ok; });
    EXPECT_EQ(ok.load(), 10);
}

TEST(WorkerPool, EveryTaskThrowingStillDrainsAndRethrowsExactlyOne) {
    // The pathological end of the propagation contract: all 64 tasks
    // throw concurrently. Exactly one exception must surface (the first
    // recorded), every index must still have run (no hang, no abandoned
    // slots), and the pool must stay usable — this is what guarantees a
    // throwing per-gene task can always be turned into a labeled error by
    // the layer above instead of taking the process down.
    Worker_pool pool(4);
    std::vector<std::atomic<int>> hits(64);
    for (int round = 0; round < 5; ++round) {
        for (auto& h : hits) h = 0;
        EXPECT_THROW(pool.parallel_for("batch", hits.size(),
                                       [&](std::size_t i) {
                                           ++hits[i];
                                           throw std::runtime_error(
                                               "task " + std::to_string(i));
                                       }),
                     std::runtime_error);
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
    std::atomic<int> ok{0};
    pool.parallel_for("batch", 16, [&](std::size_t) { ++ok; });
    EXPECT_EQ(ok.load(), 16);
}

TEST(WorkerPool, NonStdExceptionPropagatesWithoutTerminate) {
    // Tasks may throw anything; the pool must carry it across threads via
    // exception_ptr rather than std::terminate-ing the worker.
    Worker_pool pool(2);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallel_for("batch", 8,
                                   [&](std::size_t i) {
                                       ++ran;
                                       if (i == 3) throw 42;  // NOLINT
                                   }),
                 int);
    EXPECT_EQ(ran.load(), 8);
}

TEST(WorkerPool, EmptyBatchIsNoOp) {
    Worker_pool pool(2);
    bool ran = false;
    pool.parallel_for("batch", 0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(WorkerPool, DefaultUsesHardwareConcurrency) {
    Worker_pool pool;
    EXPECT_GE(pool.thread_count(), 1u);
}

TEST(WorkerPool, RejectsMoreThanMaxThreadsNamingTheCount) {
    // A hostile count must fail up front, before any reserve or spawn.
    try {
        const Worker_pool pool(Worker_pool::max_threads + 1);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(std::to_string(Worker_pool::max_threads + 1)),
                  std::string::npos)
            << e.what();
    }
}

/// Current virtual address-space size of this process, in bytes.
rlim_t current_address_space_bytes() {
    std::ifstream statm("/proc/self/statm");
    rlim_t pages = 0;
    statm >> pages;
    return pages * static_cast<rlim_t>(sysconf(_SC_PAGESIZE));
}

TEST(WorkerPool, FailedThreadStartThrowsInsteadOfHanging) {
    if (!address_space_cap_usable) GTEST_SKIP() << "sanitizer shadow memory breaks RLIMIT_AS";
    // The child caps its address space at what it uses now plus room for a
    // handful of thread stacks, so some of the 63 workers start and then
    // std::thread fails with EAGAIN. The pool must join the started workers
    // and throw; the alarm turns a hang into a signal death.
    const rlim_t cap = current_address_space_bytes() + (rlim_t{128} << 20);
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        alarm(30);
        const rlimit limit{cap, cap};
        if (setrlimit(RLIMIT_AS, &limit) != 0) _exit(4);
        try {
            const Worker_pool pool(64);
        } catch (const std::system_error& e) {
            _exit(std::string(e.what()).find("64 threads") != std::string::npos ? 0 : 2);
        } catch (...) {
            _exit(3);
        }
        _exit(5);
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status)) << "child died on signal " << WTERMSIG(status)
                                   << "; SIGALRM means the pool hung";
    if (WEXITSTATUS(status) == 5) GTEST_SKIP() << "all 64 threads fit under the cap";
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "2: message lacks the thread count, 3: not a std::system_error, "
           "4: setrlimit failed";
}

}  // namespace
}  // namespace cellsync

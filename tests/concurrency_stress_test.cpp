// Concurrency stress tests — the workload the TSan CI leg exists for.
//
// Each test hammers one of the lock-protected seams (Worker_pool's
// batch-generation handoff, Kernel_cache's shared in-flight resolutions,
// Stream_session's run serialization) with more contention than any
// normal workload produces, then asserts the determinism contract still
// holds: bit-identical results against a serial reference. Under
// -fsanitize=thread these tests turn latent ordering bugs into hard
// reports; under a plain build they still pin the sharing/bit-identity
// semantics. Sizes are deliberately small so the whole file stays fast
// under TSan's ~10x slowdown on a single core.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "biology/gene_profiles.h"
#include "core/forward_model.h"
#include "core/worker_pool.h"
#include "population/kernel_cache.h"
#include "spline/spline_basis.h"
#include "stream/stream_session.h"

namespace cellsync {
namespace {

Kernel_build_options tiny_options() {
    Kernel_build_options o;
    o.n_bins = 40;
    return o;
}

/// Spin barrier: release every participant at once so the calls under
/// test actually overlap instead of serializing on thread start-up.
void arrive_and_wait(std::atomic<int>& arrivals, int expected) {
    arrivals.fetch_add(1);
    while (arrivals.load() < expected) std::this_thread::yield();
}

// ---------------------------------------------------------------------
// Worker_pool: batch-generation churn.
//
// Every parallel_for bumps the pool's generation and re-publishes the
// batch; a worker descheduled between waking and claiming must never
// touch a later batch (or the by-then-destroyed task of its own).
// Back-to-back short batches maximize the window where workers from
// batch N are still draining while the caller is publishing batch N+1.
// ---------------------------------------------------------------------

TEST(ConcurrencyStress, WorkerPoolGenerationChurn) {
    Worker_pool pool(4);
    constexpr std::size_t kSlots = 16;
    for (int iter = 0; iter < 200; ++iter) {
        std::vector<double> a(kSlots, 0.0);
        std::vector<double> b(kSlots, 0.0);
        pool.parallel_for("fill", kSlots,
                          [&a, iter](std::size_t i) { a[i] = static_cast<double>(i) + iter; });
        pool.parallel_for("double", kSlots, [&a, &b](std::size_t i) { b[i] = 2.0 * a[i]; });
        for (std::size_t i = 0; i < kSlots; ++i) {
            ASSERT_EQ(a[i], static_cast<double>(i) + iter) << "iter " << iter;
            ASSERT_EQ(b[i], 2.0 * a[i]) << "iter " << iter;
        }
    }
}

TEST(ConcurrencyStress, WorkerPoolSurvivesThrowingRunsBetweenCleanOnes) {
    // A throwing batch still drains every index and must leave the pool
    // reusable: the next generation starts from a clean batch state with
    // the same worker threads.
    Worker_pool pool(4);
    for (int iter = 0; iter < 50; ++iter) {
        std::vector<int> ran(8, 0);
        EXPECT_THROW(pool.parallel_for("boom", ran.size(),
                                       [&ran](std::size_t i) {
                                           ran[i] = 1;
                                           if (i == 3) {
                                               throw std::runtime_error("stress failure");
                                           }
                                       }),
                     std::runtime_error);
        for (std::size_t i = 0; i < ran.size(); ++i) {
            EXPECT_EQ(ran[i], 1) << "failed batch left index " << i << " undrained";
        }

        std::vector<double> out(8, 0.0);
        pool.parallel_for("clean", out.size(),
                          [&out](std::size_t i) { out[i] = static_cast<double>(i); });
        for (std::size_t i = 0; i < out.size(); ++i) {
            ASSERT_EQ(out[i], static_cast<double>(i)) << "iter " << iter;
        }
    }
}

TEST(ConcurrencyStress, WorkerPoolConstructionTeardownChurn) {
    // Start-up and shutdown race the same generation/stopping flags the
    // runs do: a worker must see `stopping_` even if the pool is torn
    // down before it ever claims work.
    for (int iter = 0; iter < 40; ++iter) {
        Worker_pool pool(3);
        if (iter % 2 == 0) {
            std::vector<double> out(4, 0.0);
            pool.parallel_for("fill", out.size(),
                              [&out](std::size_t i) { out[i] = static_cast<double>(i + 1); });
            ASSERT_EQ(out[3], 4.0);
        }
        // odd iterations: destroy without ever running
    }
}

// ---------------------------------------------------------------------
// Kernel_cache: N threads joining one in-flight build.
// ---------------------------------------------------------------------

TEST(ConcurrencyStress, JoinersShareOneKernelBuild) {
    Kernel_cache cache;
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0, 60.0};

    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const Kernel_grid>> grids(kThreads);
    std::atomic<int> arrivals{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            arrive_and_wait(arrivals, kThreads);
            grids[t] = cache.get_or_build(config, vm, times, tiny_options());
        });
    }
    for (std::thread& thread : threads) thread.join();

    // Exactly one build ran; every thread holds the same grid.
    ASSERT_NE(grids[0], nullptr);
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(grids[t].get(), grids[0].get()) << "thread " << t;
    }
    const Kernel_cache_stats stats = cache.stats();
    EXPECT_EQ(stats.builds, 1u);
    EXPECT_EQ(stats.memory_hits, static_cast<std::size_t>(kThreads - 1));
    EXPECT_EQ(stats.disk_hits, 0u);

    // Determinism contract: the shared resolution is bit-identical to an
    // uncontended serial build of the same tuple.
    Kernel_cache serial;
    const auto reference = serial.get_or_build(config, vm, times, tiny_options());
    ASSERT_EQ(reference->time_count(), grids[0]->time_count());
    ASSERT_EQ(reference->bin_count(), grids[0]->bin_count());
    for (std::size_t m = 0; m < reference->time_count(); ++m) {
        for (std::size_t c = 0; c < reference->bin_count(); ++c) {
            ASSERT_EQ(reference->q()(m, c), grids[0]->q()(m, c))
                << "entry (" << m << ", " << c << ")";
        }
    }
}

TEST(ConcurrencyStress, StatsSnapshotsRaceWithResolutions) {
    // stats() takes the cache lock for a consistent snapshot; hammer it
    // from a reader thread while builds and hits are in flight. The
    // assertion is weak on purpose (counters only move forward) — the
    // point is the data-race check.
    Kernel_cache cache;
    const Cell_cycle_config config;
    const Smooth_volume_model vm;

    std::atomic<bool> done{false};
    std::size_t max_seen = 0;
    std::thread reader([&] {
        while (!done.load()) {
            const Kernel_cache_stats s = cache.stats();
            const std::size_t total = s.builds + s.memory_hits + s.disk_hits;
            EXPECT_GE(total, max_seen);
            max_seen = total;
            std::this_thread::yield();
        }
    });

    constexpr int kLookups = 6;
    std::vector<std::thread> threads;
    threads.reserve(kLookups);
    for (int t = 0; t < kLookups; ++t) {
        threads.emplace_back([&, t] {
            // Two distinct keys: every thread builds-or-joins one of them.
            const Vector times{0.0, 30.0 + 15.0 * (t % 2)};
            cache.get_or_build(config, vm, times, tiny_options());
        });
    }
    for (std::thread& thread : threads) thread.join();
    done.store(true);
    reader.join();

    const Kernel_cache_stats stats = cache.stats();
    EXPECT_EQ(stats.builds, 2u);
    EXPECT_EQ(stats.builds + stats.memory_hits, static_cast<std::size_t>(kLookups));
}

// ---------------------------------------------------------------------
// Stream_session: concurrent appends vs. the serial reference.
// ---------------------------------------------------------------------

struct Stress_fixture {
    std::shared_ptr<const Kernel_grid> kernel;
    std::shared_ptr<const Design_artifacts> artifacts;
    std::vector<Measurement_series> panel;  ///< noiseless, one per gene
};

const Stress_fixture& stress_fixture() {
    static const Stress_fixture fixed = [] {
        Stress_fixture out;
        const Vector times = linspace(0.0, 150.0, 9);
        Cell_cycle_config config;
        out.kernel = std::make_shared<const Kernel_grid>(
            build_kernel(config, Smooth_volume_model{}, times, tiny_options()));
        out.artifacts = make_design_artifacts(
            std::make_shared<Natural_spline_basis>(10), *out.kernel, config);
        out.panel = {
            forward_measurements(*out.kernel, ftsz_like_profile().f, "ftsZ"),
            forward_measurements(*out.kernel, sinusoid_profile(3.0, 2.0).f, "wave"),
            forward_measurements(*out.kernel, pulse_profile(0.0, 6.0, 0.7, 0.15).f,
                                 "pulse"),
            forward_measurements(*out.kernel, sinusoid_profile(4.0, 1.0, 1.0, 0.5).f,
                                 "slow"),
        };
        return out;
    }();
    return fixed;
}

Stream_session_options stress_options(std::size_t threads) {
    Stream_session_options options;
    options.threads = threads;
    options.stream.lambda = 3e-4;
    return options;
}

TEST(ConcurrencyStress, ConcurrentPerGeneAppendsMatchSerialReference) {
    const Stress_fixture& fx = stress_fixture();

    // Serial reference: one thread, all genes per timepoint.
    Stream_session serial(fx.artifacts, stress_options(1));
    for (std::size_t m = 0; m < fx.panel.front().size(); ++m) {
        std::vector<Stream_record> records;
        for (const Measurement_series& series : fx.panel) {
            records.push_back({series.label, series.values[m], series.sigmas[m]});
        }
        serial.append_timepoint(fx.panel.front().times[m], records);
    }

    // Contended run: one appender thread per gene, all slamming the same
    // session. Appends to different streams commute (each stream's state
    // depends only on its own record sequence), so per-stream results
    // must be bit-identical to the serial reference no matter how the
    // session's run lock interleaves the threads.
    Stream_session shared(fx.artifacts, stress_options(2));
    std::atomic<int> arrivals{0};
    std::vector<std::thread> appenders;
    appenders.reserve(fx.panel.size());
    for (std::size_t g = 0; g < fx.panel.size(); ++g) {
        appenders.emplace_back([&, g] {
            const Measurement_series& series = fx.panel[g];
            arrive_and_wait(arrivals, static_cast<int>(fx.panel.size()));
            for (std::size_t m = 0; m < series.size(); ++m) {
                const std::vector<Stream_update> updates = shared.append_timepoint(
                    series.times[m], {{series.label, series.values[m], series.sigmas[m]}});
                ASSERT_EQ(updates.size(), 1u);
                ASSERT_TRUE(updates[0].error.empty()) << updates[0].error;
            }
        });
    }
    for (std::thread& thread : appenders) thread.join();

    ASSERT_EQ(shared.stream_count(), fx.panel.size());
    for (const Measurement_series& series : fx.panel) {
        const Streaming_deconvolver* a = serial.find_stream(series.label);
        const Streaming_deconvolver* b = shared.find_stream(series.label);
        ASSERT_NE(a, nullptr) << series.label;
        ASSERT_NE(b, nullptr) << series.label;
        const Vector& ca = a->current().coefficients();
        const Vector& cb = b->current().coefficients();
        ASSERT_EQ(ca.size(), cb.size());
        for (std::size_t i = 0; i < ca.size(); ++i) {
            EXPECT_EQ(ca[i], cb[i]) << series.label << " coefficient " << i;
        }
    }
}

}  // namespace
}  // namespace cellsync

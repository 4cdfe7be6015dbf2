#include "stream/stream_session.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "biology/gene_profiles.h"
#include "core/forward_model.h"
#include "spline/spline_basis.h"

namespace cellsync {
namespace {

struct Session_fixture {
    std::shared_ptr<const Kernel_grid> kernel;
    std::shared_ptr<const Design_artifacts> artifacts;
    std::vector<Measurement_series> panel;
};

const Session_fixture& fixture() {
    static const Session_fixture fixed = [] {
        Session_fixture out;
        const Vector times = linspace(0.0, 150.0, 11);
        Cell_cycle_config config;
        Kernel_build_options options;
        options.n_cells = 4000;
        options.n_bins = 60;
        options.seed = 13;
        out.kernel = std::make_shared<const Kernel_grid>(
            build_kernel(config, Smooth_volume_model{}, times, options));
        out.artifacts = make_design_artifacts(
            std::make_shared<Natural_spline_basis>(12), *out.kernel, config);
        Rng rng(31);
        const Noise_model noise{Noise_type::relative_gaussian, 0.08};
        out.panel = {
            forward_measurements_noisy(*out.kernel, ftsz_like_profile().f, noise, rng,
                                       "ftsZ"),
            forward_measurements_noisy(*out.kernel, pulse_profile(0.0, 6.0, 0.7, 0.15).f,
                                       noise, rng, "pulse"),
            forward_measurements_noisy(*out.kernel, sinusoid_profile(3.0, 2.0).f, noise,
                                       rng, "wave"),
        };
        return out;
    }();
    return fixed;
}

Stream_session_options session_options(std::size_t threads) {
    Stream_session_options options;
    options.threads = threads;
    options.stream.lambda = 3e-4;
    return options;
}

/// Feed the whole fixture panel through a session, timepoint by timepoint.
std::vector<std::vector<Stream_update>> feed_all(Stream_session& session) {
    std::vector<std::vector<Stream_update>> all;
    const std::vector<Measurement_series>& panel = fixture().panel;
    for (std::size_t m = 0; m < panel.front().size(); ++m) {
        std::vector<Stream_record> records;
        for (const Measurement_series& series : panel) {
            records.push_back({series.label, series.values[m], series.sigmas[m]});
        }
        all.push_back(session.append_timepoint(panel.front().times[m], records));
    }
    return all;
}

TEST(StreamSession, ResultsAreBitIdenticalAcrossThreadCounts) {
    Stream_session serial(fixture().artifacts, session_options(1));
    Stream_session parallel(fixture().artifacts, session_options(4));
    feed_all(serial);
    feed_all(parallel);
    EXPECT_GE(parallel.thread_count(), 1u);
    for (const Measurement_series& series : fixture().panel) {
        const Streaming_deconvolver* a = serial.find_stream(series.label);
        const Streaming_deconvolver* b = parallel.find_stream(series.label);
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        const Vector& ca = a->current().coefficients();
        const Vector& cb = b->current().coefficients();
        ASSERT_EQ(ca.size(), cb.size());
        for (std::size_t i = 0; i < ca.size(); ++i) {
            EXPECT_EQ(ca[i], cb[i]) << series.label << " coefficient " << i;
        }
    }
}

TEST(StreamSession, UpdatesFollowRecordOrderAndAutoOpenStreams) {
    Stream_session session(fixture().artifacts, session_options(2));
    const std::vector<std::vector<Stream_update>> all = feed_all(session);
    ASSERT_EQ(session.stream_count(), 3u);
    const std::vector<std::string> labels = session.labels();
    ASSERT_EQ(labels.size(), 3u);
    EXPECT_EQ(labels[0], "ftsZ");
    EXPECT_EQ(labels[1], "pulse");
    EXPECT_EQ(labels[2], "wave");
    for (std::size_t m = 0; m < all.size(); ++m) {
        ASSERT_EQ(all[m].size(), 3u);
        for (std::size_t g = 0; g < 3; ++g) {
            EXPECT_EQ(all[m][g].label, fixture().panel[g].label);
            EXPECT_TRUE(all[m][g].error.empty()) << all[m][g].error;
            EXPECT_EQ(all[m][g].observed, m + 1);
            ASSERT_TRUE(all[m][g].estimate.has_value());
        }
    }
}

// The archcheck determinism pass bans hashed containers in src/ so that
// no iteration order can reach reporting order; this test holds the
// positive half of that contract: every order a session exposes is the
// registration order, even when labels are opened in an order that a
// sorted or hashed container would visit differently.
TEST(StreamSession, ReportingOrderIsRegistrationOrderNotContainerOrder) {
    Stream_session session(fixture().artifacts, session_options(2));
    // Deliberately anti-alphabetical registration (a sorted map would
    // visit zeta last-first; a hashed one, who knows).
    const std::vector<std::string> registered = {"zeta", "mid", "alpha"};
    for (const std::string& label : registered) session.open_stream(label);
    EXPECT_EQ(session.labels(), registered);

    // Appending records for a mix of old and brand-new labels keeps the
    // registry in registration order, appending only the new ones.
    const Measurement_series& first = fixture().panel.front();
    std::vector<Stream_record> records;
    for (const char* label : {"beta", "alpha", "zeta"}) {
        records.push_back({label, first.values[0], first.sigmas[0]});
    }
    const std::vector<Stream_update> updates =
        session.append_timepoint(first.times[0], records);
    ASSERT_EQ(updates.size(), 3u);
    EXPECT_EQ(updates[0].label, "beta");   // slot order = record order
    EXPECT_EQ(updates[1].label, "alpha");
    EXPECT_EQ(updates[2].label, "zeta");
    const std::vector<std::string> expected = {"zeta", "mid", "alpha", "beta"};
    EXPECT_EQ(session.labels(), expected);
    EXPECT_EQ(session.stream_count(), 4u);

    // The aggregate walks (converged_count / total_stats) traverse the
    // same registration order; their results must match a by-label sum
    // regardless of traversal, proving iteration order is irrelevant to
    // what the session reports.
    Stream_solve_stats by_label;
    std::size_t converged = 0;
    for (const std::string& label : expected) {
        const Streaming_deconvolver* stream = session.find_stream(label);
        ASSERT_NE(stream, nullptr) << label;
        by_label.updates += stream->stats().updates;
        by_label.warm_accepts += stream->stats().warm_accepts;
        by_label.cold_solves += stream->stats().cold_solves;
        if (stream->converged()) ++converged;
    }
    const Stream_solve_stats total = session.total_stats();
    EXPECT_EQ(total.updates, by_label.updates);
    EXPECT_EQ(total.warm_accepts, by_label.warm_accepts);
    EXPECT_EQ(total.cold_solves, by_label.cold_solves);
    EXPECT_EQ(session.converged_count(), converged);
}

TEST(StreamSession, ThrowingUpdateSurfacesAsLabeledErrorNotHangOrAbort) {
    Stream_session session(fixture().artifacts, session_options(4));
    const Measurement_series& first = fixture().panel.front();

    std::vector<Stream_record> records;
    records.push_back({"good", first.values[0], first.sigmas[0]});
    records.push_back({"bad", std::nan(""), 1.0});  // non-finite value -> task throws
    const std::vector<Stream_update> updates =
        session.append_timepoint(first.times[0], records);
    ASSERT_EQ(updates.size(), 2u);

    EXPECT_TRUE(updates[0].error.empty()) << updates[0].error;
    ASSERT_TRUE(updates[0].estimate.has_value());

    // The failure is labeled with the gene and exception type (the batch
    // error format, labeled_task_error), the estimate slot stays empty,
    // and the failed stream did not advance.
    EXPECT_FALSE(updates[1].estimate.has_value());
    EXPECT_NE(updates[1].error.find("bad"), std::string::npos) << updates[1].error;
    EXPECT_NE(updates[1].error.find("invalid_argument"), std::string::npos)
        << updates[1].error;
    EXPECT_EQ(updates[1].observed, 0u);

    // The failed gene can retry the same timepoint with a sane value.
    const std::vector<Stream_update> retry =
        session.append_timepoint(first.times[0], {{"bad", first.values[0], 1.0}});
    EXPECT_TRUE(retry[0].error.empty()) << retry[0].error;
    EXPECT_EQ(retry[0].observed, 1u);
}

TEST(StreamSession, StructuralMisuseThrows) {
    Stream_session session(fixture().artifacts, session_options(1));
    EXPECT_THROW(session.append_timepoint(0.0, {}), std::invalid_argument);
    EXPECT_THROW(session.append_timepoint(0.0, {{"", 1.0, 1.0}}), std::invalid_argument);
    EXPECT_THROW(
        session.append_timepoint(0.0, {{"dup", 1.0, 1.0}, {"dup", 2.0, 1.0}}),
        std::invalid_argument);
    EXPECT_THROW(session.open_stream(""), std::invalid_argument);
    EXPECT_THROW(Stream_session(nullptr, session_options(1)), std::invalid_argument);
}

TEST(StreamSession, ConvergenceRollupCountsStreams) {
    Stream_session_options options = session_options(2);
    options.stream.convergence.coefficient_tol = 5e-2;
    options.stream.convergence.score_tol = 5e-2;
    options.stream.convergence.min_observed = 3;
    Stream_session session(fixture().artifacts, options);
    EXPECT_FALSE(session.all_converged());  // no streams yet

    // Noiseless series stabilize quickly.
    const std::vector<Measurement_series> clean = {
        forward_measurements(*fixture().kernel, sinusoid_profile(3.0, 2.0).f, "a"),
        forward_measurements(*fixture().kernel, sinusoid_profile(4.0, 1.0, 1.0, 0.5).f,
                             "b"),
    };
    for (std::size_t m = 0; m < clean.front().size(); ++m) {
        std::vector<Stream_record> records;
        for (const Measurement_series& series : clean) {
            records.push_back({series.label, series.values[m], series.sigmas[m]});
        }
        session.append_timepoint(clean.front().times[m], records);
        if (session.all_converged()) break;  // early stop, like a live monitor
    }
    EXPECT_TRUE(session.all_converged());
    EXPECT_EQ(session.converged_count(), 2u);
    const Stream_solve_stats stats = session.total_stats();
    EXPECT_GT(stats.updates, 0u);
    EXPECT_EQ(stats.warm_accepts, 0u);
    EXPECT_EQ(stats.cold_solves, stats.updates);
}

TEST(StreamSession, KernelCacheConstructorResolvesThroughCache) {
    const Vector times = linspace(0.0, 150.0, 11);
    Cell_cycle_config config;
    Stream_session_options options = session_options(1);
    options.basis_size = 12;
    options.kernel.n_cells = 4000;
    options.kernel.n_bins = 60;
    options.kernel.seed = 13;  // same tuple as the fixture kernel
    Kernel_cache cache;
    Stream_session session(config, Smooth_volume_model{}, times, cache, options);
    EXPECT_EQ(cache.stats().builds, 1u);
    ASSERT_NE(session.kernel(), nullptr);

    // A second session over the same cache reuses the simulation.
    Stream_session again(config, Smooth_volume_model{}, times, cache, options);
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_EQ(cache.stats().memory_hits, 1u);
    EXPECT_EQ(session.kernel().get(), again.kernel().get());

    // And the cache-built session reproduces the fixture's results
    // bit-for-bit (the kernel tuple is identical).
    feed_all(session);
    Stream_session adopted(fixture().artifacts, session_options(1));
    feed_all(adopted);
    for (const Measurement_series& series : fixture().panel) {
        const Vector& ca = session.find_stream(series.label)->current().coefficients();
        const Vector& cb = adopted.find_stream(series.label)->current().coefficients();
        ASSERT_EQ(ca.size(), cb.size());
        for (std::size_t i = 0; i < ca.size(); ++i) {
            EXPECT_EQ(ca[i], cb[i]) << series.label << " coefficient " << i;
        }
    }
}

}  // namespace
}  // namespace cellsync

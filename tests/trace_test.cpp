// Trace_recorder contract tests: span capture across threads with
// correct nesting, Chrome-trace JSON well-formedness, and the
// observes-never-perturbs guarantee (tracing on vs. off changes no
// numeric result bit).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "biology/gene_profiles.h"
#include "core/experiment_runner.h"
#include "core/forward_model.h"
#include "core/trace.h"
#include "core/worker_pool.h"

namespace cellsync::telemetry {
namespace {

/// Same minimal well-formedness check as telemetry_test.cpp: proves the
/// writer emits parseable JSON without pulling in a JSON library.
bool json_well_formed(const std::string& text) {
    std::size_t pos = 0;
    const auto skip_ws = [&] {
        while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    };
    const std::function<bool()> value = [&]() -> bool {
        const auto string_value = [&]() -> bool {
            if (pos >= text.size() || text[pos] != '"') return false;
            ++pos;
            while (pos < text.size()) {
                if (text[pos] == '\\') { pos += 2; continue; }
                if (text[pos] == '"') { ++pos; return true; }
                ++pos;
            }
            return false;
        };
        skip_ws();
        if (pos >= text.size()) return false;
        const char c = text[pos];
        if (c == '{') {
            ++pos;
            skip_ws();
            if (pos < text.size() && text[pos] == '}') { ++pos; return true; }
            for (;;) {
                skip_ws();
                if (!string_value()) return false;
                skip_ws();
                if (pos >= text.size() || text[pos] != ':') return false;
                ++pos;
                if (!value()) return false;
                skip_ws();
                if (pos < text.size() && text[pos] == ',') { ++pos; continue; }
                if (pos < text.size() && text[pos] == '}') { ++pos; return true; }
                return false;
            }
        }
        if (c == '[') {
            ++pos;
            skip_ws();
            if (pos < text.size() && text[pos] == ']') { ++pos; return true; }
            for (;;) {
                if (!value()) return false;
                skip_ws();
                if (pos < text.size() && text[pos] == ',') { ++pos; continue; }
                if (pos < text.size() && text[pos] == ']') { ++pos; return true; }
                return false;
            }
        }
        if (c == '"') return string_value();
        if (text.compare(pos, 4, "true") == 0) { pos += 4; return true; }
        if (text.compare(pos, 5, "false") == 0) { pos += 5; return true; }
        if (text.compare(pos, 4, "null") == 0) { pos += 4; return true; }
        const std::size_t start = pos;
        if (text[pos] == '-') ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
                text[pos] == '+' || text[pos] == '-')) {
            ++pos;
        }
        return pos > start;
    };
    if (!value()) return false;
    skip_ws();
    return pos == text.size();
}

TEST(Trace, SpanRecordsNameCategoryArgsAndDuration) {
    Trace_recorder& recorder = Trace_recorder::instance();
    recorder.enable();
    {
        const Trace_span span(
            "unit.span", "test",
            args_join(arg("gene", "ftsZ \"quoted\""), arg("index", std::int64_t{7})));
    }
    recorder.disable();

    const std::vector<Trace_event> events = recorder.collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "unit.span");
    EXPECT_EQ(events[0].category, "test");
    EXPECT_NE(events[0].args_json.find("\"gene\": \"ftsZ \\\"quoted\\\"\""),
              std::string::npos)
        << events[0].args_json;
    EXPECT_NE(events[0].args_json.find("\"index\": 7"), std::string::npos);
    EXPECT_GE(events[0].duration_ns, 0);
    EXPECT_GE(events[0].start_ns, recorder.epoch_ns());
}

TEST(Trace, DisabledRecorderCapturesNothing) {
    Trace_recorder& recorder = Trace_recorder::instance();
    recorder.enable();  // clears prior buffers
    recorder.disable();
    {
        const Trace_span span("ignored", "test");
    }
    EXPECT_TRUE(recorder.collect().empty());
}

TEST(Trace, SpanNestingIsPreservedAcrossThreads) {
    Trace_recorder& recorder = Trace_recorder::instance();
    recorder.enable();

    constexpr int kThreads = 4;
    std::atomic<int> arrivals{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&arrivals, t] {
            arrivals.fetch_add(1);
            while (arrivals.load() < kThreads) std::this_thread::yield();
            const Trace_span outer("outer:" + std::to_string(t), "test");
            {
                const Trace_span inner("inner:" + std::to_string(t), "test");
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    recorder.disable();

    // Each thread's pair landed in its own buffer with one dense tid,
    // and the inner span's interval is contained in the outer's.
    const std::vector<Trace_event> events = recorder.collect();
    std::map<std::string, const Trace_event*> by_name;
    for (const Trace_event& event : events) by_name[event.name] = &event;
    ASSERT_EQ(events.size(), 2u * kThreads);

    std::map<std::uint32_t, int> pairs_per_tid;
    for (int t = 0; t < kThreads; ++t) {
        const Trace_event* outer = by_name["outer:" + std::to_string(t)];
        const Trace_event* inner = by_name["inner:" + std::to_string(t)];
        ASSERT_NE(outer, nullptr) << t;
        ASSERT_NE(inner, nullptr) << t;
        EXPECT_EQ(outer->tid, inner->tid) << "thread " << t;
        EXPECT_GE(inner->start_ns, outer->start_ns) << "thread " << t;
        EXPECT_LE(inner->start_ns + inner->duration_ns,
                  outer->start_ns + outer->duration_ns)
            << "thread " << t;
        ++pairs_per_tid[outer->tid];
    }
    // Distinct threads got distinct buffers.
    EXPECT_EQ(pairs_per_tid.size(), static_cast<std::size_t>(kThreads));

    // collect() orders parents before their children within a tid.
    std::map<std::uint32_t, std::vector<const Trace_event*>> by_tid;
    for (const Trace_event& event : events) by_tid[event.tid].push_back(&event);
    for (const auto& [tid, list] : by_tid) {
        ASSERT_EQ(list.size(), 2u);
        EXPECT_EQ(list[0]->name.rfind("outer:", 0), 0u) << "tid " << tid;
    }
}

TEST(Trace, WorkerPoolTaskSpansCarryTheBatchName) {
    Trace_recorder& recorder = Trace_recorder::instance();
    recorder.enable();

    Worker_pool pool(3);
    std::vector<double> out(8, 0.0);
    pool.parallel_for("fill", out.size(),
                      [&out](std::size_t i) { out[i] = static_cast<double>(i); });
    pool.parallel_for("double", out.size(), [&out](std::size_t i) { out[i] *= 2.0; });
    recorder.disable();

    // One `scheduler` span per task, named after its batch, with the
    // task's index as an arg.
    std::map<std::string, std::size_t> spans_per_batch;
    for (const Trace_event& event : recorder.collect()) {
        if (event.category != "scheduler") continue;
        ++spans_per_batch[event.name];
        EXPECT_NE(event.args_json.find("\"index\""), std::string::npos) << event.args_json;
    }
    EXPECT_EQ(spans_per_batch.size(), 2u);
    EXPECT_EQ(spans_per_batch["fill"], out.size());
    EXPECT_EQ(spans_per_batch["double"], out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], 2.0 * static_cast<double>(i));
    }
}

TEST(Trace, ChromeTraceJsonIsWellFormed) {
    Trace_recorder& recorder = Trace_recorder::instance();
    recorder.enable();
    {
        const Trace_span span("json.span", "test", arg("k", "v"));
    }
    recorder.disable();

    std::ostringstream out;
    recorder.write_chrome_trace(out);
    const std::string text = out.str();
    EXPECT_TRUE(json_well_formed(text)) << text;
    EXPECT_NE(text.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(text.find("\"json.span\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Observes-never-perturbs: a traced experiment's numeric outputs are
// bit-identical to an untraced run at any thread count.
// ---------------------------------------------------------------------

Experiment_spec traced_spec(std::size_t threads) {
    static const std::vector<Measurement_series> panel = [] {
        Kernel_build_options kernel_options;
        kernel_options.n_bins = 40;
        const Kernel_grid kernel = build_kernel(Cell_cycle_config{}, Smooth_volume_model{},
                                                linspace(0.0, 150.0, 9), kernel_options);
        return std::vector<Measurement_series>{
            forward_measurements(kernel, ftsz_like_profile().f, "ftsZ"),
            forward_measurements(kernel, sinusoid_profile(3.0, 2.0).f, "wave"),
            forward_measurements(kernel, pulse_profile(0.0, 6.0, 0.7, 0.15).f, "pulse"),
        };
    }();

    Experiment_spec spec;
    spec.kernel.n_bins = 40;
    spec.basis_size = 10;
    spec.threads = threads;
    spec.batch.select_lambda = false;
    spec.batch.deconvolution.lambda = 3e-4;

    Experiment_condition reference;
    reference.name = "reference";
    reference.panel = panel;
    Experiment_condition fast;
    fast.name = "fast";
    fast.cell_cycle.mean_cycle_minutes = 120.0;
    fast.panel = panel;
    spec.conditions = {reference, fast};
    return spec;
}

TEST(Trace, TracedExperimentIsBitIdenticalToUntraced) {
    Trace_recorder& recorder = Trace_recorder::instance();
    recorder.disable();
    const Smooth_volume_model volume;
    const Experiment_result untraced = run_experiment(traced_spec(2), volume);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        recorder.enable();
        const Experiment_result traced = run_experiment(traced_spec(threads), volume);
        recorder.disable();

        ASSERT_EQ(traced.conditions.size(), untraced.conditions.size());
        for (std::size_t c = 0; c < traced.conditions.size(); ++c) {
            const Condition_result& a = untraced.conditions[c];
            const Condition_result& b = traced.conditions[c];
            ASSERT_EQ(a.genes.size(), b.genes.size()) << a.name;
            for (std::size_t g = 0; g < a.genes.size(); ++g) {
                ASSERT_TRUE(a.genes[g].estimate.has_value()) << a.genes[g].label;
                ASSERT_TRUE(b.genes[g].estimate.has_value()) << b.genes[g].label;
                const Vector& ca = a.genes[g].estimate->coefficients();
                const Vector& cb = b.genes[g].estimate->coefficients();
                ASSERT_EQ(ca.size(), cb.size());
                for (std::size_t i = 0; i < ca.size(); ++i) {
                    EXPECT_EQ(ca[i], cb[i])
                        << a.name << " gene " << a.genes[g].label << " coefficient "
                        << i << " with " << threads << " threads";
                }
            }
        }
        // The traced run actually captured the runner's batches, its
        // scoring and QP spans — bit-identity above wasn't vacuous.
        std::map<std::string, std::string> category_of;
        for (const Trace_event& event : recorder.collect()) {
            category_of[event.name] = event.category;
        }
        for (const char* batch : {"kernels", "designs", "solve:reference", "solve:fast"}) {
            EXPECT_EQ(category_of[batch], "scheduler") << batch;
        }
        for (const char* score : {"score:reference", "score:fast"}) {
            EXPECT_EQ(category_of[score], "experiment") << score;
        }
        EXPECT_EQ(category_of["qp.active_set.solve"], "qp");
    }
}

}  // namespace
}  // namespace cellsync::telemetry

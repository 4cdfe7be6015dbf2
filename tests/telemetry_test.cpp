// Metrics_registry contract tests: exact multi-threaded counter and
// histogram merges, stable handles (also when many threads register the
// same names at once), deterministic snapshots, and the
// cellsync-metrics-v1 JSON shape.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/telemetry.h"

namespace cellsync::telemetry {
namespace {

/// Minimal recursive-descent JSON well-formedness check (no values kept):
/// enough to prove the writers emit parseable documents without pulling
/// in a JSON library.
class Json_checker {
  public:
    explicit Json_checker(const std::string& text) : text_(text) {}

    bool valid() {
        pos_ = 0;
        skip_ws();
        if (!value()) return false;
        skip_ws();
        return pos_ == text_.size();
    }

  private:
    bool value() {
        if (pos_ >= text_.size()) return false;
        switch (text_[pos_]) {
            case '{': return object();
            case '[': return array();
            case '"': return string();
            case 't': return literal("true");
            case 'f': return literal("false");
            case 'n': return literal("null");
            default: return number();
        }
    }

    bool object() {
        ++pos_;  // '{'
        skip_ws();
        if (peek() == '}') { ++pos_; return true; }
        for (;;) {
            skip_ws();
            if (!string()) return false;
            skip_ws();
            if (peek() != ':') return false;
            ++pos_;
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool array() {
        ++pos_;  // '['
        skip_ws();
        if (peek() == ']') { ++pos_; return true; }
        for (;;) {
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool string() {
        if (peek() != '"') return false;
        ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '\\') { pos_ += 2; continue; }
            if (c == '"') { ++pos_; return true; }
            ++pos_;
        }
        return false;
    }

    bool number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                text_[pos_] == '+' || text_[pos_] == '-')) {
            ++pos_;
        }
        return pos_ > start;
    }

    bool literal(const char* word) {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0) return false;
        pos_ += n;
        return true;
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
    void skip_ws() {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

TEST(Telemetry, CounterAddsAreExactAcrossThreads) {
    Counter& shared = counter("test.threads.counter");
    shared.reset();

    constexpr int kThreads = 8;
    constexpr std::uint64_t kAdds = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&shared] {
            for (std::uint64_t i = 0; i < kAdds; ++i) shared.add();
        });
    }
    for (std::thread& thread : threads) thread.join();

    // Every add lands: relaxed ordering loosens only cross-counter
    // visibility, never the total.
    EXPECT_EQ(shared.value(), kThreads * kAdds);
}

TEST(Telemetry, HistogramMergesExactlyAcrossThreads) {
    Histogram& shared = histogram("test.threads.histogram");
    shared.reset();

    // Every thread records the same deterministic sequence, so the
    // merged buckets must equal kThreads x the serial bucketing.
    constexpr int kThreads = 6;
    constexpr std::size_t kSamples = 5000;
    const auto sample = [](std::size_t i) {
        return static_cast<double>((i * 37) % 3000);  // spans several buckets
    };
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&shared, &sample] {
            for (std::size_t i = 0; i < kSamples; ++i) shared.record(sample(i));
        });
    }
    for (std::thread& thread : threads) thread.join();

    Histogram serial;
    for (std::size_t i = 0; i < kSamples; ++i) serial.record(sample(i));
    const Histogram_snapshot expected = serial.snapshot();
    const Histogram_snapshot merged = shared.snapshot();

    ASSERT_EQ(merged.counts.size(), expected.counts.size());
    for (std::size_t b = 0; b < merged.counts.size(); ++b) {
        EXPECT_EQ(merged.counts[b], kThreads * expected.counts[b]) << "bucket " << b;
    }
    EXPECT_EQ(merged.total, kThreads * expected.total);
    // The sum is CAS-accumulated; with integer-valued samples the total
    // is exact regardless of the interleaving.
    EXPECT_EQ(merged.sum, kThreads * expected.sum);
}

TEST(Telemetry, HistogramBucketBoundariesAreInclusive) {
    Histogram h;
    h.record(1.0);    // lands in the le=1 bucket (inclusive upper bound)
    h.record(1.5);    // le=2
    h.record(1e7);    // last finite bucket
    h.record(2e7);    // overflow bucket
    const Histogram_snapshot snap = h.snapshot();
    ASSERT_EQ(snap.upper_bounds.size() + 1, snap.counts.size());
    EXPECT_EQ(snap.counts[0], 1u);  // le 1
    EXPECT_EQ(snap.counts[1], 1u);  // le 2
    EXPECT_EQ(snap.counts[snap.upper_bounds.size() - 1], 1u);  // le 1e7
    EXPECT_EQ(snap.counts.back(), 1u);                         // +Inf
    EXPECT_EQ(snap.total, 4u);
}

TEST(Telemetry, RegistryHandlesAreStableAndPerName) {
    Counter& a1 = counter("test.handle.a");
    Counter& a2 = counter("test.handle.a");
    Counter& b = counter("test.handle.b");
    EXPECT_EQ(&a1, &a2);
    EXPECT_NE(&a1, &b);

    // Same name, different instrument kinds: distinct objects.
    Gauge& g = gauge("test.handle.a");
    EXPECT_NE(static_cast<void*>(&g), static_cast<void*>(&a1));
}

TEST(Telemetry, ConcurrentFirstUseRegistersOneInstrumentPerName) {
    // Names no other test registers, so the threads race on each name's
    // first lookup; every kind shares every name. Each thread walks the
    // names from its own offset so different names are contended at once.
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kNames = 12;
    std::vector<std::string> names;
    for (std::size_t i = 0; i < kNames; ++i) {
        names.push_back("test.first_use." + std::to_string(i));
    }
    struct Handles {
        const Counter* counter = nullptr;
        const Gauge* gauge = nullptr;
        const Histogram* histogram = nullptr;
    };
    std::vector<std::vector<Handles>> seen(kThreads, std::vector<Handles>(kNames));

    std::atomic<std::size_t> arrivals{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&names, &seen, &arrivals, t] {
            arrivals.fetch_add(1);
            while (arrivals.load() < kThreads) std::this_thread::yield();
            for (std::size_t k = 0; k < kNames; ++k) {
                const std::size_t i = (k + t) % kNames;
                Counter& c = counter(names[i]);
                Gauge& g = gauge(names[i]);
                Histogram& h = histogram(names[i]);
                c.add();
                g.set(static_cast<double>(t));
                h.record(2.0);
                seen[t][i] = {&c, &g, &h};
            }
        });
    }
    for (std::thread& thread : threads) thread.join();

    for (std::size_t i = 0; i < kNames; ++i) {
        for (std::size_t t = 1; t < kThreads; ++t) {
            EXPECT_EQ(seen[t][i].counter, seen[0][i].counter) << names[i];
            EXPECT_EQ(seen[t][i].gauge, seen[0][i].gauge) << names[i];
            EXPECT_EQ(seen[t][i].histogram, seen[0][i].histogram) << names[i];
        }
        EXPECT_EQ(seen[0][i].counter->value(), kThreads) << names[i];
        const Histogram_snapshot h = seen[0][i].histogram->snapshot();
        EXPECT_EQ(h.total, kThreads) << names[i];
        EXPECT_EQ(h.sum, 2.0 * kThreads) << names[i];
        const double last = seen[0][i].gauge->value();
        EXPECT_TRUE(last >= 0.0 && last < static_cast<double>(kThreads)) << names[i];
    }

    // The snapshot lists each name once per kind, in name order.
    const Metrics_snapshot snap = Metrics_registry::instance().snapshot();
    const auto check = [&names](const auto& section, const char* kind) {
        std::size_t found = 0;
        for (std::size_t i = 0; i < section.size(); ++i) {
            if (i > 0) {
                EXPECT_LT(section[i - 1].first, section[i].first) << kind;
            }
            if (section[i].first.rfind("test.first_use.", 0) == 0) ++found;
        }
        EXPECT_EQ(found, names.size()) << kind;
    };
    check(snap.counters, "counters");
    check(snap.gauges, "gauges");
    check(snap.histograms, "histograms");
}

TEST(Telemetry, GaugeIsLastWriteWins) {
    Gauge& g = gauge("test.gauge");
    g.set(3.5);
    g.set(-1.25);
    EXPECT_EQ(g.value(), -1.25);
}

TEST(Telemetry, SnapshotIsSortedByName) {
    counter("test.sort.zz").add();
    counter("test.sort.aa").add();
    counter("test.sort.mm").add();
    const Metrics_snapshot snap = Metrics_registry::instance().snapshot();
    for (std::size_t i = 1; i < snap.counters.size(); ++i) {
        EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
    }
    for (std::size_t i = 1; i < snap.histograms.size(); ++i) {
        EXPECT_LT(snap.histograms[i - 1].first, snap.histograms[i].first);
    }
}

TEST(Telemetry, ResetValuesZeroesWithoutInvalidatingHandles) {
    Counter& c = counter("test.reset.counter");
    Histogram& h = histogram("test.reset.histogram");
    c.add(5);
    h.record(10.0);
    Metrics_registry::instance().reset_values();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.snapshot().total, 0u);
    c.add();  // handle still live
    EXPECT_EQ(c.value(), 1u);
}

TEST(Telemetry, MetricsJsonIsWellFormed) {
    // A hand-built snapshot pins the writer's escaping and bucket layout
    // independently of what the registry happens to hold.
    Metrics_snapshot snap;
    snap.counters = {{"layer.counts \"quoted\"", 42}, {"layer.other", 0}};
    snap.gauges = {{"layer.gauge", -2.5}};
    Histogram_snapshot h;
    h.upper_bounds = {1.0, 2.0};
    h.counts = {3, 0, 7};
    h.total = 10;
    h.sum = 123.5;
    snap.histograms = {{"layer.latency_us", h}};

    std::ostringstream out;
    write_metrics_json(out, snap);
    const std::string text = out.str();

    EXPECT_TRUE(Json_checker(text).valid()) << text;
    EXPECT_NE(text.find("\"schema\": \"cellsync-metrics-v1\""), std::string::npos);
    EXPECT_NE(text.find("\"layer.counts \\\"quoted\\\"\": 42"), std::string::npos);
    EXPECT_NE(text.find("\"layer.latency_us\""), std::string::npos);
    EXPECT_NE(text.find("\"+Inf\""), std::string::npos);  // overflow bucket
}

TEST(Telemetry, RegistrySnapshotJsonIsWellFormed) {
    counter("test.json.counter").add(3);
    gauge("test.json.gauge").set(1.5);
    histogram("test.json.histogram").record(250.0);
    std::ostringstream out;
    write_metrics_json(out, Metrics_registry::instance().snapshot());
    EXPECT_TRUE(Json_checker(out.str()).valid()) << out.str();
}

TEST(Telemetry, StopwatchIsAlwaysReal) {
    // The clock seam is real: elapsed time is monotonic and non-negative.
    Stopwatch watch;
    const std::int64_t a = watch.elapsed_ns();
    const std::int64_t b = watch.elapsed_ns();
    EXPECT_GE(a, 0);
    EXPECT_GE(b, a);
    watch.reset();
    EXPECT_GE(watch.elapsed_ns(), 0);
}

}  // namespace
}  // namespace cellsync::telemetry

// Process-wide runtime metrics and the single clock seam.
//
// Two pieces, one policy:
//
//  - `telemetry::Clock` / `telemetry::Stopwatch` — the only place the
//    process reads a wall/monotonic clock. Everything that times
//    anything (trace spans, cache build latency, streaming
//    appends, the bench harnesses) goes through this seam, and the repo
//    lint bans `std::chrono::*_clock::now()` elsewhere. One seam means
//    one audit point for the determinism contract: clock reads feed
//    *observation* (counters, histograms, spans), never numerics, so a
//    traced run is bit-identical to an untraced one at any thread count.
//
//  - `Metrics_registry` — monotonic counters, gauges, and fixed-bucket
//    histograms, registered by name under one `Annotated_mutex`
//    (thread-safety-analysis clean); the returned handles are stable
//    for the process lifetime and update with single relaxed atomics,
//    so hot paths cache the handle in a function-local static and pay
//    one atomic add per event.
//
// Telemetry is part of every build. It observes, never perturbs: no
// instrumentation site may feed a clock reading or a counter value back
// into a numeric result.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/thread_annotations.h"

namespace cellsync::telemetry {

// ---------------------------------------------------------------------
// Clock seam
// ---------------------------------------------------------------------

/// The process's one monotonic clock. Nanoseconds from an arbitrary
/// epoch; differences are meaningful, absolute values are not.
class Clock {
  public:
    static std::int64_t now_ns();
};

/// Elapsed-time helper over Clock — the shared stopwatch for runtime
/// instrumentation and the bench harnesses.
class Stopwatch {
  public:
    Stopwatch() : start_ns_(Clock::now_ns()) {}

    void reset() { start_ns_ = Clock::now_ns(); }
    std::int64_t elapsed_ns() const { return Clock::now_ns() - start_ns_; }
    double elapsed_us() const { return static_cast<double>(elapsed_ns()) * 1e-3; }
    double elapsed_ms() const { return static_cast<double>(elapsed_ns()) * 1e-6; }
    double elapsed_s() const { return static_cast<double>(elapsed_ns()) * 1e-9; }

  private:
    std::int64_t start_ns_;
};

// ---------------------------------------------------------------------
// Snapshot types
// ---------------------------------------------------------------------

struct Histogram_snapshot {
    /// Inclusive upper bounds per bucket; the final bucket is +infinity
    /// (represented by the count one past the last bound).
    std::vector<double> upper_bounds;
    std::vector<std::uint64_t> counts;  ///< upper_bounds.size() + 1 entries
    std::uint64_t total = 0;
    double sum = 0.0;
};

struct Metrics_snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram_snapshot>> histograms;
};

/// Serializes a snapshot as the compact machine-readable metrics JSON
/// (`cellsync-metrics-v1`): counter/gauge/histogram sections keyed by
/// metric name, names sorted, buckets as {le, count} pairs.
void write_metrics_json(std::ostream& out, const Metrics_snapshot& snapshot);

/// Minimal JSON string escaping shared by the metrics and trace writers.
std::string json_escape(std::string_view text);

// ---------------------------------------------------------------------
// Live instruments
// ---------------------------------------------------------------------

/// Monotonic event count. Relaxed atomics: totals are exact (every add
/// lands), only cross-counter ordering is unspecified.
class Counter {
  public:
    void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram on a 1-2-5 ladder from 1 to 1e7 plus an
/// overflow bucket — wide enough for microsecond latencies (1 µs..10 s)
/// and for iteration counts, with no per-histogram configuration to
/// keep merges trivially correct (same bounds everywhere).
class Histogram {
  public:
    static constexpr std::array<double, 22> upper_bounds = {
        1e0, 2e0, 5e0, 1e1, 2e1, 5e1, 1e2, 2e2, 5e2, 1e3, 2e3,
        5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7};

    void record(double value);
    Histogram_snapshot snapshot() const;
    void reset();

  private:
    std::array<std::atomic<std::uint64_t>, upper_bounds.size() + 1> counts_{};
    std::atomic<std::uint64_t> total_{0};
    std::atomic<double> sum_{0.0};  ///< CAS-accumulated; exact total of adds
};

/// The process-wide named-instrument registry. Returned references are
/// valid for the process lifetime (instruments are never destroyed or
/// moved).
class Metrics_registry {
  public:
    static Metrics_registry& instance();

    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);
    Histogram& histogram(std::string_view name);

    /// Consistent-enough snapshot: the registry is locked while copied,
    /// values are atomic reads. Names are sorted for deterministic output.
    Metrics_snapshot snapshot() const;

    /// Zeroes every instrument in place. Handles stay valid — this is
    /// the per-command baseline reset, not a teardown.
    void reset_values();

    Metrics_registry() = default;
    Metrics_registry(const Metrics_registry&) = delete;
    Metrics_registry& operator=(const Metrics_registry&) = delete;

  private:
    mutable Annotated_mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
        CELLSYNC_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
        CELLSYNC_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
        CELLSYNC_GUARDED_BY(mutex_);
};

// Convenience lookups. Hot paths should cache the returned handle in a
// function-local static so the name lookup happens once:
//
//     static telemetry::Counter& hits = telemetry::counter("cache.hits");
//     hits.add();
inline Counter& counter(std::string_view name) {
    return Metrics_registry::instance().counter(name);
}
inline Gauge& gauge(std::string_view name) {
    return Metrics_registry::instance().gauge(name);
}
inline Histogram& histogram(std::string_view name) {
    return Metrics_registry::instance().histogram(name);
}

}  // namespace cellsync::telemetry

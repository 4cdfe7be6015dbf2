#include "core/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace cellsync::telemetry {

// The single clock read in the process. Everything else — runtime
// instrumentation, bench harnesses, trace spans — derives its time from
// here (the repo lint's `clock` rule enforces it).
std::int64_t Clock::now_ns() {
    // cellsync-lint: allow(clock) — this is the seam itself.
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

void append_double(std::string& out, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    out += buffer;
}

void append_u64(std::string& out, std::uint64_t value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%" PRIu64, value);
    out += buffer;
}

}  // namespace

std::string json_escape(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buffer[8];
                    std::snprintf(buffer, sizeof buffer, "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    out += buffer;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

void write_metrics_json(std::ostream& out, const Metrics_snapshot& snapshot) {
    std::string body;
    body += "{\n  \"schema\": \"cellsync-metrics-v1\",\n";
    body += "  \"counters\": {";
    for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
        body += i == 0 ? "\n" : ",\n";
        body += "    \"" + json_escape(snapshot.counters[i].first) + "\": ";
        append_u64(body, snapshot.counters[i].second);
    }
    body += snapshot.counters.empty() ? "},\n" : "\n  },\n";
    body += "  \"gauges\": {";
    for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
        body += i == 0 ? "\n" : ",\n";
        body += "    \"" + json_escape(snapshot.gauges[i].first) + "\": ";
        append_double(body, snapshot.gauges[i].second);
    }
    body += snapshot.gauges.empty() ? "},\n" : "\n  },\n";
    body += "  \"histograms\": {";
    for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
        const Histogram_snapshot& h = snapshot.histograms[i].second;
        body += i == 0 ? "\n" : ",\n";
        body += "    \"" + json_escape(snapshot.histograms[i].first) + "\": {\"total\": ";
        append_u64(body, h.total);
        body += ", \"sum\": ";
        append_double(body, h.sum);
        body += ", \"buckets\": [";
        for (std::size_t b = 0; b < h.counts.size(); ++b) {
            if (b != 0) body += ", ";
            body += "{\"le\": ";
            if (b < h.upper_bounds.size()) {
                append_double(body, h.upper_bounds[b]);
            } else {
                body += "\"+Inf\"";  // overflow bucket, Prometheus-style
            }
            body += ", \"count\": ";
            append_u64(body, h.counts[b]);
            body += "}";
        }
        body += "]}";
    }
    body += snapshot.histograms.empty() ? "}\n" : "\n  }\n";
    body += "}\n";
    out << body;
}

void Histogram::record(double value) {
    const auto bound =
        std::lower_bound(upper_bounds.begin(), upper_bounds.end(), value);
    const std::size_t bucket =
        static_cast<std::size_t>(bound - upper_bounds.begin());
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(1, std::memory_order_relaxed);
    // CAS loop rather than fetch_add: atomic<double>::fetch_add is C++20
    // but not guaranteed lock-free everywhere; this is.
    double sum = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(sum, sum + value, std::memory_order_relaxed)) {
    }
}

Histogram_snapshot Histogram::snapshot() const {
    Histogram_snapshot out;
    out.upper_bounds.assign(upper_bounds.begin(), upper_bounds.end());
    out.counts.reserve(counts_.size());
    for (const auto& count : counts_) {
        out.counts.push_back(count.load(std::memory_order_relaxed));
    }
    out.total = total_.load(std::memory_order_relaxed);
    out.sum = sum_.load(std::memory_order_relaxed);
    return out;
}

void Histogram::reset() {
    for (auto& count : counts_) count.store(0, std::memory_order_relaxed);
    total_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
}

Metrics_registry& Metrics_registry::instance() {
    // Intentionally leaked: worker threads may record during static
    // destruction of unrelated objects; the registry must outlive them.
    static Metrics_registry* const registry = new Metrics_registry();
    return *registry;
}

Counter& Metrics_registry::counter(std::string_view name) {
    const Annotated_lock lock(mutex_);
    const auto found = counters_.find(name);
    if (found != counters_.end()) return *found->second;
    return *counters_.emplace(std::string(name), std::make_unique<Counter>()).first->second;
}

Gauge& Metrics_registry::gauge(std::string_view name) {
    const Annotated_lock lock(mutex_);
    const auto found = gauges_.find(name);
    if (found != gauges_.end()) return *found->second;
    return *gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first->second;
}

Histogram& Metrics_registry::histogram(std::string_view name) {
    const Annotated_lock lock(mutex_);
    const auto found = histograms_.find(name);
    if (found != histograms_.end()) return *found->second;
    return *histograms_.emplace(std::string(name), std::make_unique<Histogram>())
                .first->second;
}

Metrics_snapshot Metrics_registry::snapshot() const {
    // The maps iterate in name order, so the snapshot comes out sorted.
    Metrics_snapshot out;
    const Annotated_lock lock(mutex_);
    for (const auto& [name, counter] : counters_) {
        out.counters.emplace_back(name, counter->value());
    }
    for (const auto& [name, gauge] : gauges_) {
        out.gauges.emplace_back(name, gauge->value());
    }
    for (const auto& [name, histogram] : histograms_) {
        out.histograms.emplace_back(name, histogram->snapshot());
    }
    return out;
}

void Metrics_registry::reset_values() {
    const Annotated_lock lock(mutex_);
    for (const auto& [name, counter] : counters_) counter->reset();
    for (const auto& [name, gauge] : gauges_) gauge->reset();
    for (const auto& [name, histogram] : histograms_) histogram->reset();
}

}  // namespace cellsync::telemetry

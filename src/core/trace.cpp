#include "core/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace cellsync::telemetry {

namespace {

void append_span_json(std::string& out, const Trace_event& event,
                      std::int64_t epoch_ns) {
    char buffer[96];
    out += "{\"name\": \"" + json_escape(event.name) + "\", \"cat\": \"" +
           json_escape(event.category) + "\", \"ph\": \"X\", \"ts\": ";
    std::snprintf(buffer, sizeof buffer, "%.3f",
                  static_cast<double>(event.start_ns - epoch_ns) * 1e-3);
    out += buffer;
    out += ", \"dur\": ";
    std::snprintf(buffer, sizeof buffer, "%.3f",
                  static_cast<double>(event.duration_ns) * 1e-3);
    out += buffer;
    std::snprintf(buffer, sizeof buffer, ", \"pid\": 1, \"tid\": %" PRIu32,
                  event.tid);
    out += buffer;
    if (!event.args_json.empty()) {
        out += ", \"args\": {" + event.args_json + "}";
    }
    out += "}";
}

}  // namespace

std::string arg(std::string_view key, std::string_view value) {
    std::string out;
    out += '"';
    out += json_escape(key);
    out += "\": \"";
    out += json_escape(value);
    out += '"';
    return out;
}

std::string arg(std::string_view key, std::int64_t value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%" PRId64, value);
    std::string out;
    out += '"';
    out += json_escape(key);
    out += "\": ";
    out += buffer;
    return out;
}

std::string args_join(std::string a, std::string_view b) {
    if (a.empty()) return std::string(b);
    if (b.empty()) return a;
    a += ", ";
    a += b;
    return a;
}

Trace_recorder& Trace_recorder::instance() {
    // Intentionally leaked, same rationale as Metrics_registry: spans on
    // worker threads must outlive static destruction order.
    static Trace_recorder* const recorder = new Trace_recorder();
    return *recorder;
}

void Trace_recorder::enable() {
    {
        const Annotated_lock lock(registry_mutex_);
        for (const auto& buffer : buffers_) {
            const Annotated_lock buffer_lock(buffer->mutex);
            buffer->events.clear();
        }
    }
    epoch_ns_.store(Clock::now_ns(), std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_relaxed);
}

void Trace_recorder::disable() { enabled_.store(false, std::memory_order_relaxed); }

Trace_recorder::Thread_buffer& Trace_recorder::local_buffer() {
    // Cached per (thread, recorder); a thread switching between
    // recorders (tests construct their own) just registers a fresh
    // buffer with the new owner — buffers are never deallocated, so the
    // cached pointer can never dangle.
    thread_local Trace_recorder* owner = nullptr;
    thread_local Thread_buffer* cached = nullptr;
    if (owner != this || cached == nullptr) {
        auto created = std::make_unique<Thread_buffer>();
        Thread_buffer* raw = created.get();
        const Annotated_lock lock(registry_mutex_);
        raw->tid = static_cast<std::uint32_t>(buffers_.size());
        buffers_.push_back(std::move(created));
        owner = this;
        cached = raw;
    }
    return *cached;
}

void Trace_recorder::record(Trace_event event) {
    Thread_buffer& buffer = local_buffer();
    event.tid = buffer.tid;
    const Annotated_lock lock(buffer.mutex);
    buffer.events.push_back(std::move(event));
}

std::vector<Trace_event> Trace_recorder::collect() const {
    std::vector<Trace_event> out;
    {
        const Annotated_lock lock(registry_mutex_);
        for (const auto& buffer : buffers_) {
            const Annotated_lock buffer_lock(buffer->mutex);
            out.insert(out.end(), buffer->events.begin(), buffer->events.end());
        }
    }
    // Deterministic order: by thread, then start time; a parent span
    // closes after (so records later than) its children but starts no
    // later, so longer-duration-first breaks start ties parent-first.
    std::sort(out.begin(), out.end(), [](const Trace_event& a, const Trace_event& b) {
        if (a.tid != b.tid) return a.tid < b.tid;
        if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
        if (a.duration_ns != b.duration_ns) return a.duration_ns > b.duration_ns;
        return a.name < b.name;
    });
    return out;
}

void Trace_recorder::write_chrome_trace(std::ostream& out) const {
    const std::vector<Trace_event> events = collect();
    const std::int64_t epoch = epoch_ns();
    std::string body = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    std::uint32_t last_tid = 0;
    bool have_tid = false;
    for (const Trace_event& event : events) {
        if (!have_tid || event.tid != last_tid) {
            // Thread-name metadata once per tid (events are tid-sorted).
            char buffer[96];
            std::snprintf(buffer, sizeof buffer,
                          "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                          "\"tid\": %" PRIu32
                          ", \"args\": {\"name\": \"cellsync-%" PRIu32 "\"}}",
                          event.tid, event.tid);
            body += first ? "\n" : ",\n";
            body += buffer;
            first = false;
            last_tid = event.tid;
            have_tid = true;
        }
        body += ",\n";
        append_span_json(body, event, epoch);
    }
    body += first ? "]}\n" : "\n]}\n";
    out << body;
}

}  // namespace cellsync::telemetry

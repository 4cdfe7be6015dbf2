// Scoped trace spans and the Chrome trace-event writer.
//
// `Trace_recorder` is a process-wide collector of `Trace_event`s. Each
// recording thread owns a private buffer (registered once, found via a
// thread_local, never deallocated) so span capture is one uncontended
// lock plus a vector push; collection walks every buffer under the
// registry lock. Recording is off by default — `Trace_span` costs one
// relaxed atomic load when disabled — and is switched on by the CLI's
// `--trace` flag (or a test) around the traced region.
//
// The writer serializes to the Chrome trace-event JSON format: an
// object with a `traceEvents` array of complete ("ph":"X") events plus
// thread-name metadata, loadable directly in chrome://tracing or
// https://ui.perfetto.dev. Timestamps are microseconds relative to the
// moment recording was enabled.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/telemetry.h"
#include "core/thread_annotations.h"

namespace cellsync::telemetry {

struct Trace_event {
    std::string name;
    std::string category;
    /// Preformatted inner-object content, e.g. `"index":3,"gene":"ftsZ"`
    /// (no surrounding braces); empty for no args. Build with arg().
    std::string args_json;
    std::int64_t start_ns = 0;  ///< Clock::now_ns() at span open
    std::int64_t duration_ns = 0;
    std::uint32_t tid = 0;  ///< registration-order thread id, dense from 0
};

/// `"key":"escaped-value"` / `"key":123` fragments for Trace_span args.
std::string arg(std::string_view key, std::string_view value);
std::string arg(std::string_view key, std::int64_t value);

/// Joins two arg() fragments (either may be empty).
std::string args_join(std::string a, std::string_view b);

class Trace_recorder {
  public:
    /// The process-wide recorder every Trace_span reports to.
    static Trace_recorder& instance();

    /// Drops previously collected events and starts recording; the
    /// enable instant becomes the trace's zero timestamp.
    void enable();
    void disable();
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    std::int64_t epoch_ns() const { return epoch_ns_.load(std::memory_order_relaxed); }

    /// Appends one finished span to the calling thread's buffer
    /// (registering the thread on first use). Callable from any thread.
    void record(Trace_event event);

    /// Copies out every buffered event, ordered by (tid, start, name).
    std::vector<Trace_event> collect() const;

    /// Serializes collected events as Chrome trace-event JSON.
    void write_chrome_trace(std::ostream& out) const;

    Trace_recorder() = default;
    Trace_recorder(const Trace_recorder&) = delete;
    Trace_recorder& operator=(const Trace_recorder&) = delete;

  private:
    struct Thread_buffer {
        Annotated_mutex mutex;
        std::vector<Trace_event> events CELLSYNC_GUARDED_BY(mutex);
        std::uint32_t tid = 0;
    };

    Thread_buffer& local_buffer();

    mutable Annotated_mutex registry_mutex_;
    /// Buffers are created once per recording thread and never removed,
    /// so the thread_local pointers into them stay valid for the
    /// process lifetime (the recorder itself is intentionally leaked).
    std::vector<std::unique_ptr<Thread_buffer>> buffers_
        CELLSYNC_GUARDED_BY(registry_mutex_);
    std::atomic<bool> enabled_{false};
    std::atomic<std::int64_t> epoch_ns_{0};
};

/// RAII span: captures the recorder's enabled state and the start time
/// at construction, records name/category/args/duration at destruction.
/// When recording is disabled the constructor is one atomic load and
/// the strings are never copied.
class Trace_span {
  public:
    Trace_span(std::string_view name, std::string_view category)
        : Trace_span(name, category, std::string()) {}
    Trace_span(std::string_view name, std::string_view category, std::string args_json)
        : active_(Trace_recorder::instance().enabled()) {
        if (active_) {
            name_ = name;
            category_ = category;
            args_ = std::move(args_json);
            start_ns_ = Clock::now_ns();
        }
    }
    ~Trace_span() {
        if (active_) {
            Trace_recorder::instance().record({std::move(name_), std::move(category_),
                                               std::move(args_), start_ns_,
                                               Clock::now_ns() - start_ns_, 0});
        }
    }

    Trace_span(const Trace_span&) = delete;
    Trace_span& operator=(const Trace_span&) = delete;

  private:
    std::string name_;
    std::string category_;
    std::string args_;
    std::int64_t start_ns_ = 0;
    bool active_;
};

}  // namespace cellsync::telemetry

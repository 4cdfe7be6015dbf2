#include "stream/stream_session.h"

#include <set>
#include <stdexcept>

#include "core/batch.h"
#include "core/telemetry.h"
#include "core/trace.h"
#include "spline/spline_basis.h"

namespace cellsync {

Stream_session::Stream_session(const Cell_cycle_config& config,
                               const Volume_model& volume_model, const Vector& times,
                               Kernel_cache& cache, const Stream_session_options& options)
    : options_(options), pool_(options.threads) {
    kernel_ = cache.get_or_build(config, volume_model, times, options_.kernel);
    artifacts_ =
        make_design_artifacts(std::make_shared<Natural_spline_basis>(options_.basis_size),
                              *kernel_, config, options_.constraints);
    seed_ = std::make_unique<const Streaming_deconvolver>(artifacts_, "", options_.stream);
    const Annotated_lock lock(run_mutex_);
    thread_count_ = pool_.thread_count();
}

Stream_session::Stream_session(std::shared_ptr<const Design_artifacts> artifacts,
                               const Stream_session_options& options)
    : artifacts_(std::move(artifacts)), options_(options), pool_(options.threads) {
    if (!artifacts_) throw std::invalid_argument("Stream_session: null artifacts");
    seed_ = std::make_unique<const Streaming_deconvolver>(artifacts_, "", options_.stream);
    const Annotated_lock lock(run_mutex_);
    thread_count_ = pool_.thread_count();
}

Streaming_deconvolver& Stream_session::open_locked(const std::string& label) {
    if (label.empty()) throw std::invalid_argument("Stream_session: empty stream label");
    if (const auto it = ids_.find(label); it != ids_.end()) return *streams_[it->second];
    streams_.push_back(std::make_unique<Streaming_deconvolver>(*seed_, label));
    stamps_.push_back(0);
    ids_.emplace(label, streams_.size() - 1);
    return *streams_.back();
}

Streaming_deconvolver& Stream_session::open_stream(const std::string& label) {
    const Annotated_lock lock(run_mutex_);
    return open_locked(label);
}

Streaming_deconvolver* Stream_session::find_stream(const std::string& label) {
    const Annotated_lock lock(run_mutex_);
    const auto it = ids_.find(label);
    return it == ids_.end() ? nullptr : streams_[it->second].get();
}

const Streaming_deconvolver* Stream_session::find_stream(const std::string& label) const {
    const Annotated_lock lock(run_mutex_);
    const auto it = ids_.find(label);
    return it == ids_.end() ? nullptr : streams_[it->second].get();
}

namespace {

[[noreturn]] void reject_duplicate(const std::string& gene) {
    throw std::invalid_argument("Stream_session: gene '" + gene +
                                "' appears twice in one timepoint batch (one record per "
                                "gene per timepoint)");
}

}  // namespace

std::vector<Stream_update> Stream_session::append_timepoint(
    double time, const std::vector<Stream_record>& records) {
    if (records.empty()) {
        throw std::invalid_argument("Stream_session: empty timepoint batch");
    }
    const Annotated_lock lock(run_mutex_);
    const bool tracing = telemetry::Trace_recorder::instance().enabled();
    const telemetry::Trace_span timepoint_span(
        "stream.timepoint", "stream",
        tracing ? telemetry::arg("genes", static_cast<std::int64_t>(records.size()))
                : std::string());

    // Resolve every record to its stream, and reject an empty label or a
    // gene named twice before any stream opens or appends. A known stream
    // is a duplicate when this batch already stamped it; the labels new to
    // the session are checked among themselves. Every call takes a new
    // serial, accepted or not, so a stamp left by a rejected batch never
    // matches a later one.
    const std::uint64_t batch = ++batch_serial_;
    std::vector<Streaming_deconvolver*> targets(records.size(), nullptr);
    std::set<std::string_view> fresh;
    for (std::size_t r = 0; r < records.size(); ++r) {
        const std::string& gene = records[r].gene;
        if (gene.empty()) {
            throw std::invalid_argument("Stream_session: record with empty gene name");
        }
        if (const auto it = ids_.find(gene); it != ids_.end()) {
            if (stamps_[it->second] == batch) reject_duplicate(gene);
            stamps_[it->second] = batch;
            targets[r] = streams_[it->second].get();
        } else if (!fresh.insert(gene).second) {
            reject_duplicate(gene);
        }
    }

    // The registry grows serially, new labels in record order; the
    // per-gene solves then touch disjoint stream objects and a shared
    // immutable design, so the parallel fan-out is data-race free and
    // bit-deterministic for any thread count.
    for (std::size_t r = 0; r < records.size(); ++r) {
        if (targets[r] == nullptr) targets[r] = &open_locked(records[r].gene);
    }

    std::vector<Stream_update> updates(records.size());
    pool_.parallel_for("stream", records.size(), [&](std::size_t r) {
        const Stream_record& record = records[r];
        Streaming_deconvolver& stream = *targets[r];
        Stream_update& update = updates[r];
        update.label = record.gene;
        try {
            stream.append(time, record.value, record.sigma);
            update.converged = stream.converged();
            update.coefficient_delta = stream.last_coefficient_delta();
            update.order_parameter = stream.order_parameter();
        } catch (const std::exception& e) {
            update.error = labeled_task_error(record.gene, e);
        }
        update.observed = stream.observed();
    });
    std::size_t converged = 0;
    for (const auto& stream : streams_) {
        if (stream->converged()) ++converged;
    }
    static telemetry::Gauge& open_streams = telemetry::gauge("stream.open_streams");
    static telemetry::Gauge& converged_streams = telemetry::gauge("stream.converged_streams");
    open_streams.set(static_cast<double>(streams_.size()));
    converged_streams.set(static_cast<double>(converged));
    return updates;
}

void Stream_session::parallel_for(std::string_view name, std::size_t count,
                                  const std::function<void(std::size_t)>& task) {
    const Annotated_lock lock(run_mutex_);
    pool_.parallel_for(name, count, task);
}

std::vector<std::string> Stream_session::labels() const {
    const Annotated_lock lock(run_mutex_);
    std::vector<std::string> labels;
    labels.reserve(streams_.size());
    for (const auto& stream : streams_) labels.push_back(stream->label());
    return labels;
}

std::size_t Stream_session::stream_count() const {
    const Annotated_lock lock(run_mutex_);
    return streams_.size();
}

// The aggregate accessors walk streams_ (registration order), not the
// label map: every reporting traversal is pinned to one caller-visible
// order, so no container's iteration order — hashed or sorted — can ever
// leak into what a session reports. stream_session_test's
// registration-order test holds this down.
std::size_t Stream_session::converged_count() const {
    const Annotated_lock lock(run_mutex_);
    std::size_t count = 0;
    for (const auto& stream : streams_) {
        if (stream->converged()) ++count;
    }
    return count;
}

bool Stream_session::all_converged() const {
    const Annotated_lock lock(run_mutex_);
    for (const auto& stream : streams_) {
        if (!stream->converged()) return false;
    }
    return !streams_.empty();
}

Stream_solve_stats Stream_session::total_stats() const {
    const Annotated_lock lock(run_mutex_);
    Stream_solve_stats total;
    for (const auto& stream : streams_) {
        const Stream_solve_stats& s = stream->stats();
        total.updates += s.updates;
        total.warm_accepts += s.warm_accepts;
        total.cold_solves += s.cold_solves;
    }
    return total;
}

}  // namespace cellsync

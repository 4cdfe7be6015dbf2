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
    auto it = streams_.find(label);
    if (it == streams_.end()) {
        it = streams_.emplace(label, std::make_unique<Streaming_deconvolver>(*seed_, label))
                 .first;
        order_.push_back(label);
    }
    return *it->second;
}

Streaming_deconvolver& Stream_session::open_stream(const std::string& label) {
    const Annotated_lock lock(run_mutex_);
    return open_locked(label);
}

Streaming_deconvolver* Stream_session::find_stream(const std::string& label) {
    const Annotated_lock lock(run_mutex_);
    const auto it = streams_.find(label);
    return it == streams_.end() ? nullptr : it->second.get();
}

const Streaming_deconvolver* Stream_session::find_stream(const std::string& label) const {
    const Annotated_lock lock(run_mutex_);
    const auto it = streams_.find(label);
    return it == streams_.end() ? nullptr : it->second.get();
}

std::vector<Stream_update> Stream_session::append_timepoint(
    double time, const std::vector<Stream_record>& records) {
    if (records.empty()) {
        throw std::invalid_argument("Stream_session: empty timepoint batch");
    }
    {
        // Ordered on purpose: cellsync_lint's det-unordered rule bans hashed
        // containers in src/ wholesale (iteration order must never be able
        // to reach output order), and a per-batch duplicate probe is far
        // off the hot path.
        std::set<std::string> seen;
        for (const Stream_record& record : records) {
            if (record.gene.empty()) {
                throw std::invalid_argument("Stream_session: record with empty gene name");
            }
            if (!seen.insert(record.gene).second) {
                throw std::invalid_argument(
                    "Stream_session: gene '" + record.gene +
                    "' appears twice in one timepoint batch (one record per gene per "
                    "timepoint)");
            }
        }
    }

    const Annotated_lock lock(run_mutex_);
    const bool tracing = telemetry::Trace_recorder::instance().enabled();
    const telemetry::Trace_span timepoint_span(
        "stream.timepoint", "stream",
        tracing ? telemetry::arg("genes", static_cast<std::int64_t>(records.size()))
                : std::string());
    // Registry mutation is serial (the map must not rehash under the
    // pool); the per-gene solves then touch disjoint stream objects and a
    // shared immutable design, so the parallel fan-out is data-race free
    // and bit-deterministic for any thread count.
    std::vector<Streaming_deconvolver*> targets(records.size());
    for (std::size_t r = 0; r < records.size(); ++r) {
        targets[r] = &open_locked(records[r].gene);
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
    for (const std::string& label : order_) {
        if (streams_.at(label)->converged()) ++converged;
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
    return order_;
}

std::size_t Stream_session::stream_count() const {
    const Annotated_lock lock(run_mutex_);
    return order_.size();
}

// The aggregate accessors walk order_ (registration order), not the map:
// every reporting traversal is pinned to one caller-visible order, so no
// container's iteration order — hashed or sorted — can ever leak into
// what a session reports. stream_session_test's registration-order test
// holds this down.
std::size_t Stream_session::converged_count() const {
    const Annotated_lock lock(run_mutex_);
    std::size_t count = 0;
    for (const std::string& label : order_) {
        if (streams_.at(label)->converged()) ++count;
    }
    return count;
}

bool Stream_session::all_converged() const {
    const Annotated_lock lock(run_mutex_);
    std::size_t count = 0;
    for (const std::string& label : order_) {
        if (streams_.at(label)->converged()) ++count;
    }
    return !order_.empty() && count == order_.size();
}

Stream_solve_stats Stream_session::total_stats() const {
    const Annotated_lock lock(run_mutex_);
    Stream_solve_stats total;
    for (const std::string& label : order_) {
        const Stream_solve_stats& s = streams_.at(label)->stats();
        total.updates += s.updates;
        total.warm_accepts += s.warm_accepts;
        total.cold_solves += s.cold_solves;
    }
    return total;
}

}  // namespace cellsync

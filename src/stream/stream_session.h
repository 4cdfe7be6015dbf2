// Session management for many concurrent gene streams.
//
// A monitoring run streams a whole panel: every timepoint delivers one
// record per gene. Stream_session owns the shared machinery — the kernel
// resolved through a Kernel_cache (the build skipped when the protocol
// was seen before), one immutable Design_artifacts reused by every
// stream (the same sharing discipline as the experiment runner), and a
// Worker_pool that fans each timepoint's per-gene updates out in
// parallel — and a registry of named Streaming_deconvolver instances.
//
// Determinism: per-gene updates are independent (each stream owns its
// state; the artifacts are immutable), results are written into
// caller-ordered slots, and no randomness is involved, so a session
// produces bit-identical streams for any thread count. Failures follow
// the per-gene batch contract (core/batch.h): a gene whose update throws
// surfaces as a labeled error in its Stream_update — never a hang, never
// a dropped timepoint for the other genes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/worker_pool.h"
#include "population/kernel_cache.h"
#include "stream/streaming_deconvolver.h"

namespace cellsync {

/// Session construction controls.
struct Stream_session_options {
    std::size_t basis_size = 18;      ///< Nc natural-spline knots
    std::size_t threads = 0;          ///< worker parallelism (0 = hardware)
    Constraint_options constraints;   ///< geometry baked into the shared design
    Kernel_build_options kernel;      ///< kernel controls (n_bins; cache key input)
    Stream_options stream;            ///< defaults for every opened stream
};

/// One gene's record within a timepoint batch.
struct Stream_record {
    std::string gene;
    double value = 0.0;
    double sigma = 1.0;
};

/// Outcome of one gene's update at one timepoint (slot order follows the
/// records passed to append_timepoint).
struct Stream_update {
    std::string label;
    std::size_t observed = 0;      ///< timepoints the stream holds after the update
    bool converged = false;
    double coefficient_delta = 0.0;
    double order_parameter = 0.0;
    std::string error;  ///< labeled failure ("gene '<label>' [<type>]: <message>"), else empty
};

class Stream_session {
  public:
    /// Resolve the kernel for `times` through `cache` and build the shared
    /// design. Throws whatever kernel construction / design construction
    /// throws (std::invalid_argument on bad config or times), and
    /// std::invalid_argument on invalid options.stream.
    Stream_session(const Cell_cycle_config& config, const Volume_model& volume_model,
                   const Vector& times, Kernel_cache& cache,
                   const Stream_session_options& options = {});

    /// Adopt artifacts precomputed elsewhere (tests, custom bases). Throws
    /// std::invalid_argument on null artifacts or invalid options.stream.
    Stream_session(std::shared_ptr<const Design_artifacts> artifacts,
                   const Stream_session_options& options = {});

    /// The shared design every stream solves against.
    const Design_artifacts& artifacts() const { return *artifacts_; }
    std::shared_ptr<const Kernel_grid> kernel() const { return kernel_; }
    std::size_t thread_count() const { return thread_count_; }

    /// Register a stream (no-op if the label is already open). Returns the
    /// stream; it lives as long as the session (streams are never erased,
    /// so the reference stays valid across later appends).
    Streaming_deconvolver& open_stream(const std::string& label);

    /// Registered stream, or nullptr. The registry lookup is serialized
    /// against append_timepoint; calling into the returned stream while a
    /// batch is updating that same stream is the caller's race to avoid.
    Streaming_deconvolver* find_stream(const std::string& label);
    const Streaming_deconvolver* find_stream(const std::string& label) const;

    /// Apply one timepoint's records: streams named by `records` are
    /// updated in parallel over the pool (auto-opened on first sight).
    /// Per-gene failures land in the matching Stream_update::error; the
    /// batch itself only throws std::invalid_argument for structural
    /// misuse (empty batch, duplicate gene within the batch). Concurrent
    /// calls are serialized.
    std::vector<Stream_update> append_timepoint(double time,
                                                const std::vector<Stream_record>& records);

    /// Run task(i) for every i in [0, count) as one named batch on the
    /// session's pool (Worker_pool::parallel_for), serialized against
    /// append_timepoint. The task must not call back into the session.
    void parallel_for(std::string_view name, std::size_t count,
                      const std::function<void(std::size_t)>& task);

    /// Registered labels, in registration order.
    std::vector<std::string> labels() const;
    std::size_t stream_count() const;

    /// Streams currently reporting a stabilized estimate.
    std::size_t converged_count() const;
    /// True when at least one stream is open and every stream converged.
    bool all_converged() const;

    /// Aggregate solve statistics over all streams.
    Stream_solve_stats total_stats() const;

  private:
    /// Registry insert; callers hold run_mutex_ (compiler-enforced).
    Streaming_deconvolver& open_locked(const std::string& label)
        CELLSYNC_REQUIRES(run_mutex_);

    std::shared_ptr<const Design_artifacts> artifacts_;
    std::shared_ptr<const Kernel_grid> kernel_;  // null for adopted artifacts
    Stream_session_options options_;
    // A fresh stream on artifacts_ with options_.stream, built once: every
    // opened stream is a relabeled copy of it. Never appended to, so a
    // stream opened mid-session starts from the same state as the first.
    std::unique_ptr<const Streaming_deconvolver> seed_;
    // Guards the stream registry and serializes timepoint batches: the
    // pool is never shared between two concurrent append_timepoint calls,
    // and the read accessors (labels/converged_count/...) never observe
    // the registry mid-insert.
    mutable Annotated_mutex run_mutex_;
    // The streams in registration order; a stream's index here is its
    // dense id, and every reporting walk follows it.
    std::vector<std::unique_ptr<Streaming_deconvolver>> streams_
        CELLSYNC_GUARDED_BY(run_mutex_);
    // Label -> dense id. Ordered on purpose: cellsync_lint's det-unordered
    // rule bans hashed containers in src/.
    std::map<std::string, std::size_t, std::less<>> ids_ CELLSYNC_GUARDED_BY(run_mutex_);
    // Per dense id, the duplicate probe of append_timepoint: the serial of
    // the last batch whose check met the stream.
    std::vector<std::uint64_t> stamps_ CELLSYNC_GUARDED_BY(run_mutex_);
    std::uint64_t batch_serial_ CELLSYNC_GUARDED_BY(run_mutex_) = 0;
    mutable Worker_pool pool_ CELLSYNC_GUARDED_BY(run_mutex_);
    std::size_t thread_count_ = 0;  ///< pool_.thread_count(), lock-free copy
};

}  // namespace cellsync

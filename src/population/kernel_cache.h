// Memoization of Monte-Carlo kernel construction.
//
// build_kernel is the dominant cost of any realistic workload: a full
// agent-based population simulation per (organism config, volume model,
// time grid, build options) tuple. Those tuples recur constantly — every
// gene of a panel, every condition re-run, every session on the same
// protocol — so the cache keys kernels by the complete set of inputs the
// simulation depends on and serves repeats from memory, or from disk
// through the kernel_io round trip (which is bit-exact), skipping the
// simulation entirely.
//
// Layering: in-memory map first (shared_ptr hand-out, so concurrent users
// share one grid), then the on-disk store when a directory is configured.
// Disk entries are a kernel file plus a sidecar `.key` file holding the
// canonical key string; the sidecar is written last (commit marker) and
// compared on load, so torn writes and hash collisions degrade to a
// rebuild, never to a wrong kernel. New entries are stored in the
// cellsync-kernel-bin-v1 binary format (`.bin`, smaller and much faster
// to parse). A `kernel_<hash>.csv` entry left by a cache written before
// that format is a miss: the kernel is rebuilt and stored as `.bin`, and
// the stale CSV is neither served, counted nor evicted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_annotations.h"
#include "population/kernel_builder.h"

namespace cellsync {

/// Aggregate counters describing how get_or_build calls were served.
/// memory_hits includes requests that joined a resolution already in
/// flight for the same key (they are served from the in-memory map the
/// moment it lands there).
struct Kernel_cache_stats {
    std::size_t memory_hits = 0;  ///< served from the in-memory map
    std::size_t disk_hits = 0;    ///< deserialized from the cache directory
    std::size_t builds = 0;       ///< full population simulations run
    std::size_t evictions = 0;    ///< disk entries removed by the LRU policy
};

/// Component-wise difference of two counter snapshots (later - earlier):
/// how a caller turns the cache's lifetime totals into per-run deltas.
inline Kernel_cache_stats operator-(const Kernel_cache_stats& later,
                                    const Kernel_cache_stats& earlier) {
    Kernel_cache_stats delta;
    delta.memory_hits = later.memory_hits - earlier.memory_hits;
    delta.disk_hits = later.disk_hits - earlier.disk_hits;
    delta.builds = later.builds - earlier.builds;
    delta.evictions = later.evictions - earlier.evictions;
    return delta;
}

/// Disk-usage policy for a directory-backed cache.
struct Kernel_cache_limits {
    /// Size cap for the cache directory's entries (binary kernel file
    /// plus sidecar), enforced after every store by evicting
    /// least-recently-used entries. 0 = unbounded (the pre-LRU behavior).
    std::uint64_t max_disk_bytes = 0;
    /// Shared-directory fleet mode: serve disk entries but never write —
    /// no new entries, no manifest updates, no LRU eviction. The
    /// manifest's single-writer assumption then holds trivially, so any
    /// number of shard processes can point at one pre-warmed cache
    /// directory (NFS, object-store mount) while at most one owner
    /// maintains it. Misses still simulate; the result stays in memory
    /// only.
    bool read_only = false;
};

/// Shared state of one in-flight get_or_build resolution (opaque;
/// defined in kernel_cache.cpp).
struct Kernel_cache_request_state;

/// One manifest row: a disk entry with its provenance and recency.
struct Kernel_cache_entry_info {
    std::string hash;          ///< fixed-width hex file stem
    std::uint64_t bytes = 0;   ///< kernel file(s) + sidecar size on disk
    std::uint64_t last_use = 0;///< monotone use sequence (higher = more recent)
    std::string key;           ///< full config provenance (cache_key string)
};

/// Snapshot of the on-disk manifest.
struct Kernel_cache_manifest {
    std::vector<Kernel_cache_entry_info> entries;  ///< most recent first
    std::uint64_t total_bytes = 0;
    std::uint64_t max_bytes = 0;  ///< configured cap (0 = unbounded)
};

/// Thread-safe kernel memoizer, optionally backed by a disk directory.
///
/// A directory-backed cache additionally maintains `manifest.tsv` in the
/// cache directory — one line per entry: hash, byte size, last-use
/// sequence number, and the full cache key (config provenance). The
/// manifest is advisory bookkeeping for the LRU policy and `kernel
/// cache` reporting; a missing or corrupt manifest is rebuilt by
/// scanning the directory's sidecar files, never trusted over them.
/// Recency uses a persisted monotone counter rather than wall-clock
/// time, so eviction order is deterministic and clock-skew-proof. The
/// policy assumes one writer process per directory; fleets sharing a
/// pre-warmed directory should open it with Kernel_cache_limits::
/// read_only, which disables every write path.
class Kernel_cache {
  public:
    /// Memory-only cache (entries live as long as the cache).
    Kernel_cache() = default;

    /// Disk-backed cache rooted at `directory` (created, with parents, on
    /// first store), with an optional LRU size cap. Throws
    /// std::runtime_error if the directory cannot be created — unless
    /// `limits.read_only` is set, in which case a missing or uncreatable
    /// directory simply means every lookup misses.
    explicit Kernel_cache(std::string directory, Kernel_cache_limits limits = {});

    /// Deferred, deduplicated handle to one kernel resolution, returned
    /// by get_or_build_async. The request does no work until get(): the
    /// first caller to get() performs the disk load / simulation on its
    /// own thread; every concurrent request for the same key shares that
    /// one resolution — get() blocks until it lands and returns the same
    /// grid (or rethrows the resolution's exception). This is what lets
    /// a task scheduler start condition k+1's kernel while condition k
    /// solves, without two nodes ever running the same simulation twice.
    class Async_request {
      public:
        Async_request() = default;

        /// Resolve (first caller) or wait for the shared resolution.
        /// The cache and the volume model passed to get_or_build_async
        /// must outlive this call. Each request carries its own copy of
        /// the build inputs (equal keys imply equal inputs), so a
        /// request that is dropped without get() is inert — it can
        /// never be dereferenced by a later request joining the same
        /// key, which simply performs the resolution itself.
        std::shared_ptr<const Kernel_grid> get();

        bool valid() const { return state_ != nullptr; }

      private:
        friend class Kernel_cache;
        std::shared_ptr<Kernel_cache_request_state> state_;
        /// This request's own build inputs, used only if its get() ends
        /// up executing the resolution (volume is borrowed until then).
        Cell_cycle_config config_;
        const Volume_model* volume_ = nullptr;
        Vector times_;
        Kernel_build_options options_;
    };

    /// The kernel for the given inputs: in-memory entry if present, else a
    /// disk entry whose stored key matches exactly, else a fresh
    /// build_kernel run (persisted to disk when a writable directory is
    /// configured). The returned grid is immutable and shared; callers may
    /// keep it beyond the cache's lifetime. Simulation and disk I/O happen
    /// outside the cache lock, so a long build never blocks unrelated
    /// lookups; threads racing on the same uncached key share one
    /// in-flight resolution (get_or_build is get_or_build_async().get()).
    std::shared_ptr<const Kernel_grid> get_or_build(const Cell_cycle_config& config,
                                                    const Volume_model& volume_model,
                                                    const Vector& times,
                                                    const Kernel_build_options& options = {});

    /// Asynchronous form of get_or_build: returns immediately with a
    /// deferred request (see Async_request). Requests for a key already
    /// in flight or in memory are served from the shared state and
    /// counted as memory hits, deterministically at call time.
    /// `volume_model` is borrowed and must stay alive until get().
    Async_request get_or_build_async(const Cell_cycle_config& config,
                                     const Volume_model& volume_model, const Vector& times,
                                     const Kernel_build_options& options = {});

    /// Counters since construction.
    Kernel_cache_stats stats() const;

    /// Drop the in-memory entries (disk entries are untouched). Subsequent
    /// lookups fall through to disk / rebuild.
    void clear_memory();

    /// Cache directory ("" for memory-only).
    const std::string& directory() const { return directory_; }

    /// Configured disk limits.
    const Kernel_cache_limits& limits() const { return limits_; }

    /// Current manifest (entries most-recent-first). Rebuilt from the
    /// directory's sidecar files when the manifest file is missing or
    /// corrupt; empty for a memory-only cache.
    Kernel_cache_manifest manifest() const;

    /// Path of the manifest file within a cache directory.
    static std::string manifest_path(const std::string& directory);

    /// Canonical key string: every input the simulation output depends on,
    /// doubles printed round-trip exactly. Equal keys <=> bit-identical
    /// kernels (the simulator is seeded and deterministic).
    static std::string cache_key(const Cell_cycle_config& config,
                                 const Volume_model& volume_model, const Vector& times,
                                 const Kernel_build_options& options);

    /// FNV-1a 64-bit hash of a key, as the fixed-width hex file stem.
    static std::string key_hash(const std::string& key);

  private:
    friend struct Kernel_cache_request_state;

    std::string binary_entry_path(const std::string& hash) const;
    std::string sidecar_path(const std::string& hash) const;
    /// Combined on-disk footprint of one entry (kernel file plus sidecar).
    std::uint64_t entry_bytes(const std::string& hash) const;
    /// Record a use (disk hit) or a fresh store of `hash` in the manifest,
    /// then enforce the size cap by evicting LRU entries (never the entry
    /// just touched). Never throws: manifest I/O failures degrade to a
    /// stale manifest, not a failed lookup. No-op in read-only mode.
    void touch_manifest(const std::string& hash, const std::string& key, bool stored);
    /// Execute a deferred request's disk load / simulation with the
    /// executing request's own inputs, publish the grid into the memory
    /// map, update the counters, and wake every waiter sharing the
    /// request state.
    void resolve_request(const std::shared_ptr<Kernel_cache_request_state>& state,
                         const Cell_cycle_config& config, const Volume_model& volume_model,
                         const Vector& times, const Kernel_build_options& options);

    std::string directory_;
    Kernel_cache_limits limits_;
    mutable Annotated_mutex mutex_;
    // Manifest I/O is serialized separately so a slow manifest rewrite
    // never blocks in-memory lookups. It guards the manifest *file* (no
    // in-memory member): every load-edit-save of manifest.tsv happens
    // inside one critical section.
    mutable Annotated_mutex manifest_mutex_;
    std::map<std::string, std::shared_ptr<const Kernel_grid>> memory_
        CELLSYNC_GUARDED_BY(mutex_);
    /// key -> state of the resolution currently in flight for it.
    std::map<std::string, std::shared_ptr<Kernel_cache_request_state>> inflight_
        CELLSYNC_GUARDED_BY(mutex_);
    Kernel_cache_stats stats_ CELLSYNC_GUARDED_BY(mutex_);
};

}  // namespace cellsync

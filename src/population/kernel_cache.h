// Memoization of kernel construction.
//
// build_kernel is the dominant cost of a run on a cold cache: a renewal
// solve and a quadrature over the population per (organism config,
// volume model, time grid, bin count) tuple. Those tuples recur
// constantly — every gene of a panel, every condition re-run, every
// session on the same protocol — so the cache keys kernels by the
// complete set of inputs the kernel depends on and serves repeats from
// memory, or from disk through the kernel_io round trip (which is
// bit-exact), skipping the build entirely.
//
// Layering: in-memory map first (shared_ptr hand-out, so concurrent users
// share one grid), then the on-disk store when a directory is configured.
// Disk entries are a kernel file plus a sidecar `.key` file holding the
// canonical key string. Both are written once, under per-writer temporary
// names, and renamed into place, sidecar last (the commit marker); the
// sidecar is compared on load, so torn writes and hash collisions degrade
// to a rebuild, never to a wrong kernel. Several processes may therefore
// share one directory: concurrent writers of one key publish identical
// bytes atomically. Entries are stored in the one kernel file format,
// cellsync-kernel-bin-v1 (`.bin`, see kernel_io.h). A
// `kernel_<hash>.csv` entry left by a cache written before that format is
// a miss: the kernel is rebuilt and stored as `.bin`, and the stale CSV
// is neither served nor counted. Entries keyed `cellsync-kernel-v1;`
// hold Monte-Carlo kernels from before build_kernel computed them; their
// sidecars never match a v2 key, so they are never served. Neither are
// the v2 sidecars written while the initial population was a choice:
// their key has one more field, so the same kernel is rebuilt once under
// the shorter key, and the old entry is left in place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_annotations.h"
#include "population/kernel_builder.h"

namespace cellsync {

/// Aggregate counters describing how get_or_build calls were served.
/// memory_hits includes calls that joined a resolution already in flight
/// for the same key (they share that resolution's grid).
struct Kernel_cache_stats {
    std::size_t memory_hits = 0;  ///< served from the in-memory map
    std::size_t disk_hits = 0;    ///< deserialized from the cache directory
    std::size_t builds = 0;       ///< build_kernel calls made
};

/// Component-wise difference of two counter snapshots (later - earlier):
/// how a caller turns the cache's lifetime totals into per-run deltas.
inline Kernel_cache_stats operator-(const Kernel_cache_stats& later,
                                    const Kernel_cache_stats& earlier) {
    Kernel_cache_stats delta;
    delta.memory_hits = later.memory_hits - earlier.memory_hits;
    delta.disk_hits = later.disk_hits - earlier.disk_hits;
    delta.builds = later.builds - earlier.builds;
    return delta;
}

/// One committed disk entry and its provenance.
struct Kernel_cache_entry_info {
    std::string hash;         ///< fixed-width hex file stem
    std::uint64_t bytes = 0;  ///< kernel file + sidecar size on disk
    std::string key;          ///< full config provenance (cache_key string)
};

/// Thread-safe kernel memoizer, optionally backed by a disk directory.
/// To prune a directory, delete an entry's `.key` first, then its `.bin`.
class Kernel_cache {
  public:
    /// Memory-only cache (entries live as long as the cache).
    Kernel_cache() = default;

    /// Disk-backed cache rooted at `directory` (created, with parents, if
    /// missing). Throws std::runtime_error if the directory cannot be
    /// created.
    explicit Kernel_cache(std::string directory);

    /// The kernel for the given inputs: in-memory entry if present, else a
    /// disk entry whose stored key matches exactly, else a fresh
    /// build_kernel call (persisted to disk when a directory is
    /// configured; a failed store leaves the kernel memory-only). The
    /// returned grid is immutable and shared; callers may keep it beyond
    /// the cache's lifetime. The build and disk I/O happen outside the
    /// cache lock, so a long build never blocks unrelated lookups; a
    /// caller that finds its key already being resolved waits for that
    /// resolution and shares its grid (or its exception).
    std::shared_ptr<const Kernel_grid> get_or_build(const Cell_cycle_config& config,
                                                    const Volume_model& volume_model,
                                                    const Vector& times,
                                                    const Kernel_build_options& options = {});

    /// Counters since construction.
    Kernel_cache_stats stats() const;

    /// Drop the in-memory entries (disk entries are untouched). Subsequent
    /// lookups fall through to disk / rebuild.
    void clear_memory();

    /// Cache directory ("" for memory-only).
    const std::string& directory() const { return directory_; }

    /// The directory's committed entries (those with a `.key` sidecar), in
    /// hash order; empty for a memory-only cache.
    std::vector<Kernel_cache_entry_info> entries() const;

    /// Canonical key string: every input build_kernel reads, doubles
    /// printed round-trip exactly, under the `cellsync-kernel-v2;` prefix.
    /// Equal keys <=> bit-identical kernels (build_kernel is
    /// deterministic). options.n_cells and options.seed are not part of
    /// it: only simulate_kernel reads them.
    static std::string cache_key(const Cell_cycle_config& config,
                                 const Volume_model& volume_model, const Vector& times,
                                 const Kernel_build_options& options);

    /// FNV-1a 64-bit hash of a key, as the fixed-width hex file stem.
    static std::string key_hash(const std::string& key);

  private:
    using Grid_future = std::shared_future<std::shared_ptr<const Kernel_grid>>;

    std::string binary_entry_path(const std::string& hash) const;
    std::string sidecar_path(const std::string& hash) const;
    /// Publish a freshly built kernel: write both files under this
    /// writer's temporary names, rename the kernel file then the sidecar
    /// into place. Never throws; a failure removes only the temporaries.
    void store(const std::string& hash, const std::string& key, const Kernel_grid& kernel) const;

    std::string directory_;
    mutable Annotated_mutex mutex_;
    std::map<std::string, std::shared_ptr<const Kernel_grid>> memory_
        CELLSYNC_GUARDED_BY(mutex_);
    /// key -> result of the resolution currently in flight for it.
    std::map<std::string, Grid_future> inflight_ CELLSYNC_GUARDED_BY(mutex_);
    Kernel_cache_stats stats_ CELLSYNC_GUARDED_BY(mutex_);
};

}  // namespace cellsync

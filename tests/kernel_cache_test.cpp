#include "population/kernel_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "population/kernel_io.h"

namespace cellsync {
namespace {

Kernel_build_options tiny_options() {
    Kernel_build_options o;
    o.n_cells = 2000;
    o.n_bins = 40;
    o.seed = 7;
    return o;
}

std::string fresh_dir(const std::string& name) {
    const std::string dir = testing::TempDir() + "cellsync_kernel_cache_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

void expect_bit_identical(const Kernel_grid& a, const Kernel_grid& b) {
    ASSERT_EQ(a.time_count(), b.time_count());
    ASSERT_EQ(a.bin_count(), b.bin_count());
    for (std::size_t m = 0; m < a.time_count(); ++m) {
        EXPECT_EQ(a.times()[m], b.times()[m]) << "time " << m;
        for (std::size_t c = 0; c < a.bin_count(); ++c) {
            EXPECT_EQ(a.q()(m, c), b.q()(m, c)) << "entry (" << m << ", " << c << ")";
        }
    }
    for (std::size_t c = 0; c < a.bin_count(); ++c) {
        EXPECT_EQ(a.phi_centers()[c], b.phi_centers()[c]) << "center " << c;
    }
}

TEST(KernelCache, MemoryHitReturnsSameGridWithoutRebuilding) {
    Kernel_cache cache;
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0, 60.0};

    const auto first = cache.get_or_build(config, vm, times, tiny_options());
    const auto second = cache.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(first.get(), second.get());  // shared, not re-simulated
    const Kernel_cache_stats stats = cache.stats();
    EXPECT_EQ(stats.builds, 1u);
    EXPECT_EQ(stats.memory_hits, 1u);
    EXPECT_EQ(stats.disk_hits, 0u);
}

TEST(KernelCache, KeyCoversEveryBuildInput) {
    const Cell_cycle_config config;
    const Smooth_volume_model smooth;
    const Linear_volume_model linear;
    const Vector times{0.0, 30.0};
    const Kernel_build_options options = tiny_options();
    const std::string base = Kernel_cache::cache_key(config, smooth, times, options);

    Cell_cycle_config other_config = config;
    other_config.mu_sst = 0.18;
    EXPECT_NE(Kernel_cache::cache_key(other_config, smooth, times, options), base);

    EXPECT_NE(Kernel_cache::cache_key(config, linear, times, options), base);

    EXPECT_NE(Kernel_cache::cache_key(config, smooth, {0.0, 45.0}, options), base);

    Kernel_build_options other_options = options;
    other_options.seed = 8;
    EXPECT_NE(Kernel_cache::cache_key(config, smooth, times, other_options), base);
    other_options = options;
    other_options.n_bins = 41;
    EXPECT_NE(Kernel_cache::cache_key(config, smooth, times, other_options), base);
    other_options = options;
    other_options.n_cells = 2001;
    EXPECT_NE(Kernel_cache::cache_key(config, smooth, times, other_options), base);

    // And identical inputs agree, including through copies.
    EXPECT_EQ(Kernel_cache::cache_key(Cell_cycle_config{}, Smooth_volume_model{}, times,
                                      tiny_options()),
              base);
}

TEST(KernelCache, DifferentInputsTriggerRebuilds) {
    Kernel_cache cache;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};
    Cell_cycle_config config;
    cache.get_or_build(config, vm, times, tiny_options());
    config.mu_sst = 0.20;
    cache.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(cache.stats().builds, 2u);
    EXPECT_EQ(cache.stats().memory_hits, 0u);
}

TEST(KernelCache, DiskRoundTripIsBitIdenticalToFreshBuild) {
    const std::string dir = fresh_dir("roundtrip");
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 25.0, 50.0, 75.0};

    Kernel_cache writer(dir);
    const auto built = writer.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(writer.stats().builds, 1u);

    // A fresh cache instance has no memory entries: the hit must come from
    // disk and reproduce the simulated grid bit-for-bit.
    Kernel_cache reader(dir);
    const auto loaded = reader.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(reader.stats().builds, 0u);
    EXPECT_EQ(reader.stats().disk_hits, 1u);
    expect_bit_identical(*built, *loaded);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, ClearMemoryFallsThroughToDisk) {
    const std::string dir = fresh_dir("clear");
    Kernel_cache cache(dir);
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};
    cache.get_or_build(config, vm, times, tiny_options());
    cache.clear_memory();
    cache.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_EQ(cache.stats().disk_hits, 1u);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, CorruptDiskEntryDegradesToRebuild) {
    const std::string dir = fresh_dir("corrupt");
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};
    {
        Kernel_cache cache(dir);
        cache.get_or_build(config, vm, times, tiny_options());
    }
    // Truncate the kernel file (sidecar stays valid) — the loader must
    // reject it and rebuild instead of throwing or serving garbage.
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".bin" || entry.path().extension() == ".csv") {
            std::ofstream truncate(entry.path(), std::ios::trunc);
            truncate << "phi,t0\nnot,a,kernel\n";
        }
    }
    Kernel_cache cache(dir);
    const auto kernel = cache.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_EQ(cache.stats().disk_hits, 0u);
    EXPECT_EQ(kernel->time_count(), 2u);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, StaleSidecarKeyIsIgnored) {
    const std::string dir = fresh_dir("stale");
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};
    {
        Kernel_cache cache(dir);
        cache.get_or_build(config, vm, times, tiny_options());
    }
    // Rewrite the sidecar with a different key: simulates a hash collision
    // or a torn write. The entry must not be served.
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".key") {
            std::ofstream rewrite(entry.path(), std::ios::trunc);
            rewrite << "some-other-key";
        }
    }
    Kernel_cache cache(dir);
    cache.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_EQ(cache.stats().disk_hits, 0u);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, EmptyDirectoryRejected) {
    EXPECT_THROW(Kernel_cache(std::string{}), std::invalid_argument);
}

TEST(KernelCache, ManifestTracksEntriesBytesAndRecency) {
    const std::string dir = fresh_dir("manifest");
    const Smooth_volume_model vm;
    Cell_cycle_config config;
    Kernel_cache cache(dir);
    cache.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    const std::string first_hash = cache.manifest().entries[0].hash;
    config.mu_sst = 0.25;  // exactly representable: safe to grep in the key
    cache.get_or_build(config, vm, {0.0, 30.0}, tiny_options());

    Kernel_cache_manifest manifest = cache.manifest();
    ASSERT_EQ(manifest.entries.size(), 2u);
    EXPECT_EQ(manifest.max_bytes, 0u);
    EXPECT_GT(manifest.total_bytes, 0u);
    // Most recent first; keys carry the config provenance.
    EXPECT_GT(manifest.entries[0].last_use, manifest.entries[1].last_use);
    EXPECT_NE(manifest.entries[0].key.find("mu_sst=0.25"), std::string::npos)
        << manifest.entries[0].key;
    for (const Kernel_cache_entry_info& entry : manifest.entries) {
        EXPECT_GT(entry.bytes, 0u);
        EXPECT_NE(entry.key.find("cellsync-kernel-v1"), std::string::npos);
    }

    // A disk hit from a fresh instance bumps the entry's recency.
    config.mu_sst = 0.15;
    Kernel_cache reader(dir);
    reader.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    manifest = reader.manifest();
    ASSERT_EQ(manifest.entries.size(), 2u);
    EXPECT_EQ(manifest.entries[0].hash, first_hash);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, LruEvictionEnforcesSizeCap) {
    const std::string dir = fresh_dir("lru");
    const Smooth_volume_model vm;
    Cell_cycle_config config;

    // Size one entry, then cap the cache so only one fits.
    std::uint64_t entry_bytes = 0;
    {
        Kernel_cache sizing(dir);
        sizing.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
        entry_bytes = sizing.manifest().total_bytes;
        ASSERT_GT(entry_bytes, 0u);
    }
    Kernel_cache_limits limits;
    limits.max_disk_bytes = entry_bytes + entry_bytes / 2;
    Kernel_cache cache(dir, limits);

    // Touch the first entry (disk hit), then add a second: the cap forces
    // the older entry out.
    cache.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    Cell_cycle_config second = config;
    second.mu_sst = 0.25;
    cache.get_or_build(second, vm, {0.0, 30.0}, tiny_options());

    EXPECT_EQ(cache.stats().evictions, 1u);
    const Kernel_cache_manifest manifest = cache.manifest();
    ASSERT_EQ(manifest.entries.size(), 1u);
    EXPECT_NE(manifest.entries[0].key.find("mu_sst=0.25"), std::string::npos)
        << "the LRU entry, not the fresh one, must be evicted";
    EXPECT_LE(manifest.total_bytes, limits.max_disk_bytes);

    // The evicted tuple is gone from disk: a fresh instance re-simulates.
    Kernel_cache after(dir, limits);
    after.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    EXPECT_EQ(after.stats().builds, 1u);
    EXPECT_EQ(after.stats().disk_hits, 0u);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, OversizedEntryStillCachesBestEffort) {
    const std::string dir = fresh_dir("oversized");
    Kernel_cache_limits limits;
    limits.max_disk_bytes = 1;  // smaller than any kernel
    Kernel_cache cache(dir, limits);
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    cache.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    // The just-stored entry is exempt from its own eviction pass: caching
    // beats thrashing when a single kernel exceeds the cap.
    EXPECT_EQ(cache.manifest().entries.size(), 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    Kernel_cache reader(dir, limits);
    reader.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    EXPECT_EQ(reader.stats().disk_hits, 1u);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, ReadOnlyModeServesDiskWithoutWriting) {
    const std::string dir = fresh_dir("readonly");
    const Smooth_volume_model vm;
    Cell_cycle_config config;
    {
        Kernel_cache owner(dir);
        owner.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    }
    const auto manifest_before = std::filesystem::last_write_time(
        Kernel_cache::manifest_path(dir));
    std::size_t files_before = 0;
    for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator(dir)) {
        ++files_before;
    }

    Kernel_cache_limits limits;
    limits.read_only = true;
    limits.max_disk_bytes = 1;  // would evict everything if enforced
    Kernel_cache fleet(dir, limits);

    // A cached tuple is served from disk...
    fleet.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    EXPECT_EQ(fleet.stats().disk_hits, 1u);
    EXPECT_EQ(fleet.stats().builds, 0u);

    // ...a miss simulates but is not persisted...
    Cell_cycle_config other = config;
    other.mu_sst = 0.25;
    fleet.get_or_build(other, vm, {0.0, 30.0}, tiny_options());
    EXPECT_EQ(fleet.stats().builds, 1u);
    EXPECT_EQ(fleet.stats().evictions, 0u);

    // ...and the directory is untouched: same files, manifest unmodified.
    std::size_t files_after = 0;
    for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator(dir)) {
        ++files_after;
    }
    EXPECT_EQ(files_after, files_before);
    EXPECT_EQ(std::filesystem::last_write_time(Kernel_cache::manifest_path(dir)),
              manifest_before);

    // The unpersisted miss still memoizes in memory.
    fleet.get_or_build(other, vm, {0.0, 30.0}, tiny_options());
    EXPECT_EQ(fleet.stats().memory_hits, 1u);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, ReadOnlyModeToleratesMissingDirectory) {
    const std::string dir = fresh_dir("readonly_missing") + "/nested/absent";
    Kernel_cache_limits limits;
    limits.read_only = true;
    // A writable cache would create the directory; read-only must accept
    // whatever is (not) there and fall back to simulation.
    Kernel_cache cache(dir, limits);
    const Smooth_volume_model vm;
    const auto kernel = cache.get_or_build(Cell_cycle_config{}, vm, {0.0, 30.0},
                                           tiny_options());
    EXPECT_EQ(kernel->time_count(), 2u);
    EXPECT_EQ(cache.stats().builds, 1u);
}

TEST(KernelCache, AsyncRequestsForOneKeyShareOneResolution) {
    Kernel_cache cache;
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};

    // Issue two requests before resolving either: the second joins the
    // first's in-flight state (counted as a memory hit at call time).
    Kernel_cache::Async_request first =
        cache.get_or_build_async(config, vm, times, tiny_options());
    Kernel_cache::Async_request second =
        cache.get_or_build_async(config, vm, times, tiny_options());
    ASSERT_TRUE(first.valid());
    ASSERT_TRUE(second.valid());
    EXPECT_EQ(cache.stats().builds, 0u);  // deferred: nothing ran yet

    const auto from_second = second.get();  // whoever calls get() first executes
    const auto from_first = first.get();
    EXPECT_EQ(from_first.get(), from_second.get());
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_EQ(cache.stats().memory_hits, 1u);

    // A request issued after completion is an ordinary memory hit.
    const auto third = cache.get_or_build_async(config, vm, times, tiny_options()).get();
    EXPECT_EQ(third.get(), from_first.get());
    EXPECT_EQ(cache.stats().memory_hits, 2u);
    EXPECT_EQ(cache.stats().builds, 1u);
}

TEST(KernelCache, DroppedAsyncRequestDoesNotPoisonLaterLookups) {
    Kernel_cache cache;
    const Vector times{0.0, 30.0};
    {
        // Issue a request and abandon it without get(); its volume model
        // goes out of scope. The abandoned in-flight entry must stay
        // inert: requests carry their own inputs, so nothing dangles.
        const Smooth_volume_model ephemeral;
        Kernel_cache::Async_request dropped = cache.get_or_build_async(
            Cell_cycle_config{}, ephemeral, times, tiny_options());
        EXPECT_TRUE(dropped.valid());
    }
    const Smooth_volume_model vm;
    const auto kernel = cache.get_or_build(Cell_cycle_config{}, vm, times, tiny_options());
    EXPECT_EQ(kernel->time_count(), 2u);
    EXPECT_EQ(cache.stats().builds, 1u);
    // The later caller joined the abandoned entry (counted as a memory
    // hit at call time) and then performed the resolution itself with
    // its own, live inputs.
    EXPECT_EQ(cache.stats().memory_hits, 1u);
}

TEST(KernelCache, AsyncGetBlocksJoinersUntilTheExecutorFinishes) {
    Kernel_cache cache;
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0, 60.0};
    Kernel_build_options options = tiny_options();
    options.n_cells = 20000;  // big enough that the join genuinely waits

    Kernel_cache::Async_request a = cache.get_or_build_async(config, vm, times, options);
    Kernel_cache::Async_request b = cache.get_or_build_async(config, vm, times, options);
    std::shared_ptr<const Kernel_grid> from_thread;
    std::thread joiner([&] { from_thread = b.get(); });
    const auto direct = a.get();
    joiner.join();
    ASSERT_NE(from_thread, nullptr);
    EXPECT_EQ(direct.get(), from_thread.get());
    EXPECT_EQ(cache.stats().builds, 1u);
}

// A cache directory from before the binary format: kernel CSVs +
// sidecars, as written by the versions that stored entries as CSV.
std::string make_legacy_entry(const std::string& dir, const Cell_cycle_config& config,
                              const Volume_model& vm, const Vector& times,
                              const Kernel_build_options& options) {
    std::filesystem::create_directories(dir);
    const std::string key = Kernel_cache::cache_key(config, vm, times, options);
    const std::string hash = Kernel_cache::key_hash(key);
    const Kernel_grid kernel = build_kernel(config, vm, times, options);
    write_kernel_file(dir + "/kernel_" + hash + ".csv", kernel, Kernel_format::csv);
    std::ofstream sidecar(dir + "/kernel_" + hash + ".key", std::ios::binary);
    sidecar << key;
    return hash;
}

TEST(KernelCache, LegacyCsvEntryIsRebuiltAsBinary) {
    const std::string dir = fresh_dir("legacy_rebuild");
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};
    const std::string hash = make_legacy_entry(dir, config, vm, times, tiny_options());

    // A CSV entry is not served, even with its sidecar: the lookup is a
    // miss, the kernel is rebuilt and stored in the binary format.
    Kernel_cache cache(dir);
    const auto served = cache.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_EQ(cache.stats().disk_hits, 0u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/kernel_" + hash + ".bin"));
    expect_bit_identical(*served, build_kernel(config, vm, times, tiny_options()));
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, EntryWriteFailureSkipsTheSidecar) {
    const std::string dir = fresh_dir("write_failure");
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};
    const std::string key = Kernel_cache::cache_key(config, vm, times, tiny_options());
    const std::string hash = Kernel_cache::key_hash(key);
    // A directory squatting on the entry path makes the kernel write fail
    // (stands in for a full disk). The cache must degrade to memory-only
    // for this entry — in particular it must NOT write the sidecar commit
    // marker, which would publish a corrupt/absent kernel as valid.
    std::filesystem::create_directories(dir + "/kernel_" + hash + ".bin");

    Kernel_cache cache(dir);
    const auto kernel = cache.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(kernel->time_count(), 2u);
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_FALSE(std::filesystem::exists(dir + "/kernel_" + hash + ".key"));

    // A fresh instance sees no committed entry and rebuilds.
    Kernel_cache reader(dir);
    reader.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(reader.stats().builds, 1u);
    EXPECT_EQ(reader.stats().disk_hits, 0u);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, MissingManifestIsRebuiltFromSidecars) {
    const std::string dir = fresh_dir("rebuild");
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    {
        Kernel_cache cache(dir);
        cache.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    }
    std::filesystem::remove(Kernel_cache::manifest_path(dir));
    Kernel_cache cache(dir);
    const Kernel_cache_manifest manifest = cache.manifest();
    ASSERT_EQ(manifest.entries.size(), 1u);
    EXPECT_GT(manifest.entries[0].bytes, 0u);
    EXPECT_NE(manifest.entries[0].key.find("cellsync-kernel-v1"), std::string::npos);
    // The rebuilt manifest still serves the disk entry.
    cache.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    EXPECT_EQ(cache.stats().disk_hits, 1u);
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cellsync

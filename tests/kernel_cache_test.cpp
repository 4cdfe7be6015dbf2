#include "population/kernel_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace cellsync {
namespace {

Kernel_build_options tiny_options() {
    Kernel_build_options o;
    o.n_bins = 40;
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
    EXPECT_EQ(first.get(), second.get());  // shared, not rebuilt
    const Kernel_cache_stats stats = cache.stats();
    EXPECT_EQ(stats.builds, 1u);
    EXPECT_EQ(stats.memory_hits, 1u);
    EXPECT_EQ(stats.disk_hits, 0u);
}

TEST(KernelCache, KeyCoversEveryBuildInputAndNothingElse) {
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
    other_options.n_bins = 41;
    EXPECT_NE(Kernel_cache::cache_key(config, smooth, times, other_options), base);

    // build_kernel does not read the Monte-Carlo controls, so they are no
    // part of the key.
    other_options = options;
    other_options.n_cells = 2001;
    other_options.seed = 8;
    EXPECT_EQ(Kernel_cache::cache_key(config, smooth, times, other_options), base);
    EXPECT_EQ(base.rfind("cellsync-kernel-v2;", 0), 0u) << base;
    EXPECT_EQ(base.find("n_cells"), std::string::npos) << base;
    EXPECT_EQ(base.find("seed"), std::string::npos) << base;
    // Every population starts as a swarmer isolate: the initial
    // population is no input.
    EXPECT_EQ(base.find("initial"), std::string::npos) << base;

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
    // disk and reproduce the built grid bit-for-bit.
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

TEST(KernelCache, EmptyOrUncreatableDirectoryRejected) {
    EXPECT_THROW(Kernel_cache(std::string{}), std::invalid_argument);
    const std::string file = fresh_dir("not_a_directory");
    std::ofstream(file) << "a file";
    EXPECT_THROW(Kernel_cache(file + "/cache"), std::runtime_error);
    std::filesystem::remove(file);
}

TEST(KernelCache, ConcurrentCallsForOneKeyShareOneResolution) {
    Kernel_cache cache;
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0, 60.0};
    Kernel_build_options options = tiny_options();
    options.n_bins = 4000;  // a build long enough that the second call often waits

    // Whichever call resolves first, the other joins it in flight or
    // finds its grid in memory: one build, one memory hit, one grid.
    std::shared_ptr<const Kernel_grid> from_thread;
    std::thread other([&] { from_thread = cache.get_or_build(config, vm, times, options); });
    const auto direct = cache.get_or_build(config, vm, times, options);
    other.join();
    ASSERT_NE(from_thread, nullptr);
    EXPECT_EQ(direct.get(), from_thread.get());
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_EQ(cache.stats().memory_hits, 1u);

    // A call after completion is an ordinary memory hit.
    const auto third = cache.get_or_build(config, vm, times, options);
    EXPECT_EQ(third.get(), direct.get());
    EXPECT_EQ(cache.stats().memory_hits, 2u);
    EXPECT_EQ(cache.stats().builds, 1u);
}

/// A volume model whose evaluation, while `fail` is set, blocks until
/// `release` and then throws: it holds one resolution in flight long
/// enough for a second caller to join, then fails it.
class Failing_volume_model final : public Volume_model {
  public:
    double relative_volume(double, double) const override {
        gate();
        return 1.0;
    }
    double derivative(double, double) const override {
        gate();
        return 0.0;
    }
    std::string name() const override { return "failing-test"; }

    mutable std::atomic<bool> entered{false};
    std::atomic<bool> release{false};
    std::atomic<bool> fail{true};

  private:
    void gate() const {
        if (!fail.load()) return;
        entered.store(true);
        while (!release.load()) std::this_thread::yield();
        throw std::runtime_error("volume model failure");
    }
};

TEST(KernelCache, FailedResolutionReachesEveryCallerAndCachesNothing) {
    const std::string dir = fresh_dir("failure");
    Kernel_cache cache(dir);
    Failing_volume_model vm;
    const Vector times{0.0, 30.0};

    std::atomic<int> failures{0};
    const auto call = [&] {
        try {
            cache.get_or_build(Cell_cycle_config{}, vm, times, tiny_options());
        } catch (const std::runtime_error&) {
            failures.fetch_add(1);
        }
    };
    std::thread resolver(call);
    while (!vm.entered.load()) std::this_thread::yield();
    std::thread joiner(call);
    // The joiner counts its memory hit before it waits on the resolution.
    while (cache.stats().memory_hits == 0) std::this_thread::yield();
    vm.release.store(true);
    resolver.join();
    joiner.join();
    EXPECT_EQ(failures.load(), 2);
    EXPECT_EQ(cache.stats().builds, 0u);
    EXPECT_TRUE(cache.entries().empty());

    // Nothing was cached, in memory or on disk: the next call resolves
    // the key afresh.
    vm.fail.store(false);
    const auto kernel = cache.get_or_build(Cell_cycle_config{}, vm, times, tiny_options());
    EXPECT_EQ(kernel->time_count(), 2u);
    EXPECT_EQ(cache.stats().builds, 1u);
    std::filesystem::remove_all(dir);
}

/// Names in `dir`, sorted.
std::vector<std::string> directory_names(const std::string& dir) {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
}

TEST(KernelCache, TwoInstancesShareOneDirectory) {
    const std::string dir = fresh_dir("shared");
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0, 60.0};
    Kernel_build_options options = tiny_options();
    options.n_bins = 4000;  // builds long enough that the two stores often overlap
    const std::string hash =
        Kernel_cache::key_hash(Kernel_cache::cache_key(config, vm, times, options));

    // Two caches (standing in for two processes) resolve one key at once:
    // each may build and store it, and the directory ends with one
    // committed entry and no temporaries.
    Kernel_cache first(dir);
    Kernel_cache second(dir);
    std::shared_ptr<const Kernel_grid> a;
    std::shared_ptr<const Kernel_grid> b;
    std::thread other([&] { a = first.get_or_build(config, vm, times, options); });
    b = second.get_or_build(config, vm, times, options);
    other.join();
    expect_bit_identical(*a, *b);
    EXPECT_EQ(directory_names(dir),
              (std::vector<std::string>{"kernel_" + hash + ".bin", "kernel_" + hash + ".key"}));

    Kernel_cache reader(dir);
    expect_bit_identical(*reader.get_or_build(config, vm, times, options), *a);
    EXPECT_EQ(reader.stats().disk_hits, 1u);
    EXPECT_EQ(reader.stats().builds, 0u);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, EntriesListsCommittedEntriesInHashOrder) {
    const std::string dir = fresh_dir("entries");
    const Smooth_volume_model vm;
    Cell_cycle_config config;
    Kernel_cache cache(dir);
    cache.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    config.mu_sst = 0.25;  // exactly representable: safe to grep in the key
    cache.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    // Neither a stray temporary nor a kernel file without its sidecar is
    // a committed entry.
    std::ofstream(dir + "/kernel_0000000000000000.key.1.0.tmp") << "partial";
    std::ofstream(dir + "/kernel_ffffffffffffffff.bin") << "orphan";

    const std::vector<Kernel_cache_entry_info> entries = cache.entries();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_LT(entries[0].hash, entries[1].hash);
    bool saw_second = false;
    for (const Kernel_cache_entry_info& entry : entries) {
        EXPECT_EQ(entry.hash, Kernel_cache::key_hash(entry.key));
        EXPECT_EQ(entry.bytes,
                  std::filesystem::file_size(dir + "/kernel_" + entry.hash + ".bin") +
                      std::filesystem::file_size(dir + "/kernel_" + entry.hash + ".key"));
        saw_second = saw_second || entry.key.find("mu_sst=0.25") != std::string::npos;
    }
    EXPECT_TRUE(saw_second);
    EXPECT_TRUE(Kernel_cache().entries().empty());
    std::filesystem::remove_all(dir);
}

// A cache directory from before the binary format: a kernel CSV (a
// `phi` column plus one `t<minutes>` column per time) + its sidecar, as
// written by the versions that stored entries as CSV.
std::string make_legacy_entry(const std::string& dir, const Cell_cycle_config& config,
                              const Volume_model& vm, const Vector& times,
                              const Kernel_build_options& options) {
    std::filesystem::create_directories(dir);
    const std::string key = Kernel_cache::cache_key(config, vm, times, options);
    const std::string hash = Kernel_cache::key_hash(key);
    {
        std::ofstream csv(dir + "/kernel_" + hash + ".csv", std::ios::binary);
        csv << "phi,t0,t30\n0.25,1,1\n0.75,1,1\n";
    }
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
    // The failed store removed its own temporaries and nothing else: what
    // sits under the final name may be another writer's.
    EXPECT_EQ(directory_names(dir), std::vector<std::string>{"kernel_" + hash + ".bin"});
    EXPECT_TRUE(std::filesystem::is_directory(dir + "/kernel_" + hash + ".bin"));

    // A fresh instance sees no committed entry and rebuilds.
    Kernel_cache reader(dir);
    reader.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(reader.stats().builds, 1u);
    EXPECT_EQ(reader.stats().disk_hits, 0u);
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cellsync

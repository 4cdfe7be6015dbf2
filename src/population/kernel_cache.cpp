#include "population/kernel_cache.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include <unistd.h>

#include "core/telemetry.h"
#include "core/trace.h"
#include "population/kernel_io.h"
#include "numerics/fnv.h"

namespace cellsync {

namespace {

void append_double(std::string& out, const char* name, double value) {
    char buffer[48];
    std::snprintf(buffer, sizeof(buffer), "%s=%.17g;", name, value);
    out += buffer;
}

std::string read_text_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return "";
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

std::uint64_t file_bytes(const std::string& path) {
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(size);
}

/// Suffix naming one store's temporary files: the process id tells apart
/// processes sharing a directory, the sequence number the stores of one
/// process (two caches in one process may store one key at once).
std::string temporary_suffix() {
    static std::atomic<std::uint64_t> sequence{0};
    return "." + std::to_string(::getpid()) + "." + std::to_string(sequence.fetch_add(1)) +
           ".tmp";
}

}  // namespace

Kernel_cache::Kernel_cache(std::string directory) : directory_(std::move(directory)) {
    if (directory_.empty()) {
        throw std::invalid_argument("Kernel_cache: empty directory (use the default "
                                    "constructor for a memory-only cache)");
    }
    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);
    if (ec) {
        throw std::runtime_error("Kernel_cache: cannot create directory '" + directory_ +
                                 "': " + ec.message());
    }
}

std::string Kernel_cache::cache_key(const Cell_cycle_config& config,
                                    const Volume_model& volume_model, const Vector& times,
                                    const Kernel_build_options& options) {
    std::string key = "cellsync-kernel-v2;";
    append_double(key, "mu_sst", config.mu_sst);
    append_double(key, "cv_sst", config.cv_sst);
    append_double(key, "mean_cycle_minutes", config.mean_cycle_minutes);
    append_double(key, "cv_cycle", config.cv_cycle);
    key += "volume=" + volume_model.name() + ";";
    key += "n_bins=" + std::to_string(options.n_bins) + ";";
    key += "times=";
    for (double t : times) {
        char buffer[40];
        std::snprintf(buffer, sizeof(buffer), "%.17g,", t);
        key += buffer;
    }
    return key;
}

std::string Kernel_cache::key_hash(const std::string& key) {
    const std::uint64_t hash = fnv1a64(key);
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(hash));
    return buffer;
}

std::string Kernel_cache::binary_entry_path(const std::string& hash) const {
    return directory_ + "/kernel_" + hash + ".bin";
}

std::string Kernel_cache::sidecar_path(const std::string& hash) const {
    return directory_ + "/kernel_" + hash + ".key";
}

std::vector<Kernel_cache_entry_info> Kernel_cache::entries() const {
    std::vector<Kernel_cache_entry_info> out;
    if (directory_.empty()) return out;
    constexpr std::string_view prefix = "kernel_";
    constexpr std::string_view suffix = ".key";
    std::error_code ec;
    for (const auto& item : std::filesystem::directory_iterator(directory_, ec)) {
        const std::string name = item.path().filename().string();
        if (name.size() <= prefix.size() + suffix.size() || !name.starts_with(prefix) ||
            !name.ends_with(suffix)) {
            continue;
        }
        Kernel_cache_entry_info entry;
        entry.hash = name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
        entry.key = read_text_file(item.path().string());
        entry.bytes =
            file_bytes(item.path().string()) + file_bytes(binary_entry_path(entry.hash));
        out.push_back(std::move(entry));
    }
    std::sort(out.begin(), out.end(),
              [](const Kernel_cache_entry_info& a, const Kernel_cache_entry_info& b) {
                  return a.hash < b.hash;
              });
    return out;
}

void Kernel_cache::store(const std::string& hash, const std::string& key,
                         const Kernel_grid& kernel) const {
    // A full disk or unwritable directory degrades to memory-only caching
    // instead of sinking the run. Nothing under a final name is written in
    // place, and the sidecar commit marker is renamed in only after the
    // kernel file, so no failure publishes a corrupt entry or removes
    // another writer's.
    const std::string suffix = temporary_suffix();
    const std::string kernel_tmp = binary_entry_path(hash) + suffix;
    const std::string sidecar_tmp = sidecar_path(hash) + suffix;
    try {
        write_kernel_file(kernel_tmp, kernel);
        {
            std::ofstream sidecar(sidecar_tmp, std::ios::binary | std::ios::trunc);
            sidecar << key;
            sidecar.flush();
            if (!sidecar) throw std::runtime_error("cannot write '" + sidecar_tmp + "'");
        }
        std::filesystem::rename(kernel_tmp, binary_entry_path(hash));
        std::filesystem::rename(sidecar_tmp, sidecar_path(hash));
    } catch (const std::exception& e) {
        std::error_code ec;
        std::filesystem::remove(sidecar_tmp, ec);
        std::filesystem::remove(kernel_tmp, ec);
        std::fprintf(stderr, "Kernel_cache: could not persist entry: %s\n", e.what());
    }
}

std::shared_ptr<const Kernel_grid> Kernel_cache::get_or_build(
    const Cell_cycle_config& config, const Volume_model& volume_model, const Vector& times,
    const Kernel_build_options& options) {
    const std::string key = cache_key(config, volume_model, times, options);

    static telemetry::Counter& memory_hits = telemetry::counter("kernel_cache.memory_hits");
    static telemetry::Counter& inflight_joins =
        telemetry::counter("kernel_cache.inflight_joins");
    static telemetry::Counter& misses = telemetry::counter("kernel_cache.misses");

    std::promise<std::shared_ptr<const Kernel_grid>> resolution;
    Grid_future joined;
    {
        const Annotated_lock lock(mutex_);
        if (const auto it = memory_.find(key); it != memory_.end()) {
            ++stats_.memory_hits;
            memory_hits.add();
            return it->second;
        }
        if (const auto it = inflight_.find(key); it != inflight_.end()) {
            // Joining a resolution already in flight counts as a memory
            // hit: the caller shares that resolution's grid.
            ++stats_.memory_hits;
            inflight_joins.add();
            joined = it->second;
        } else {
            misses.add();
            inflight_.emplace(key, resolution.get_future().share());
        }
    }
    if (joined.valid()) return joined.get();

    // Disk I/O and the build run outside the cache mutex so a long build
    // never blocks unrelated lookups; joiners wait on the shared future.
    std::shared_ptr<const Kernel_grid> kernel;
    bool from_disk = false;
    try {
        const std::string hash = key_hash(key);
        const bool tracing = telemetry::Trace_recorder::instance().enabled();
        const telemetry::Trace_span resolve_span(
            "kernel_cache.resolve", "cache",
            tracing ? telemetry::arg("hash", hash) : std::string());
        if (!directory_.empty() && read_text_file(sidecar_path(hash)) == key) {
            // The sidecar is renamed in after the kernel file, so a
            // matching key promises a complete entry; a corrupt,
            // invariant-violating or missing `.bin` (a cache from before
            // the binary format holds kernel_<hash>.csv instead) still
            // only costs a rebuild.
            const std::string entry = binary_entry_path(hash);
            try {
                kernel = std::make_shared<const Kernel_grid>(read_kernel_file(entry));
                from_disk = true;
            } catch (const std::exception& e) {
                // The reader's message names the entry's path.
                std::fprintf(stderr, "Kernel_cache: discarding unreadable entry: %s\n",
                             e.what());
            }
        }
        if (!kernel) {
            const telemetry::Stopwatch build_watch;
            kernel = std::make_shared<const Kernel_grid>(
                build_kernel(config, volume_model, times, options));
            static telemetry::Histogram& build_us =
                telemetry::histogram("kernel_cache.build_us");
            build_us.record(build_watch.elapsed_us());
            if (!directory_.empty()) store(hash, key, *kernel);
        }
    } catch (...) {
        // Nothing is cached: every joiner gets the exception, and the
        // next caller for this key resolves it afresh.
        {
            const Annotated_lock lock(mutex_);
            inflight_.erase(key);
        }
        resolution.set_exception(std::current_exception());
        throw;
    }

    static telemetry::Counter& disk_hits = telemetry::counter("kernel_cache.disk_hits");
    static telemetry::Counter& builds = telemetry::counter("kernel_cache.builds");
    if (from_disk) disk_hits.add();
    else builds.add();
    {
        const Annotated_lock lock(mutex_);
        if (from_disk) ++stats_.disk_hits;
        else ++stats_.builds;
        memory_.emplace(key, kernel);
        inflight_.erase(key);
    }
    resolution.set_value(kernel);
    return kernel;
}

Kernel_cache_stats Kernel_cache::stats() const {
    const Annotated_lock lock(mutex_);
    return stats_;
}

void Kernel_cache::clear_memory() {
    const Annotated_lock lock(mutex_);
    memory_.clear();
}

}  // namespace cellsync

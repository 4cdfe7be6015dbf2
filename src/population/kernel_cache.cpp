#include "population/kernel_cache.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/telemetry.h"
#include "core/trace.h"
#include "io/csv.h"
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

constexpr const char* manifest_header = "# cellsync-kernel-cache-manifest-v1";

/// Parse the manifest file: tab-separated "hash bytes last_use key" lines
/// under a version header. Returns false when the file is missing or
/// malformed (caller falls back to a directory scan).
bool parse_manifest(const std::string& path, std::vector<Kernel_cache_entry_info>& out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::string line;
    if (!std::getline(in, line) || line != manifest_header) return false;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        Kernel_cache_entry_info entry;
        std::size_t pos = 0;
        for (int field = 0; field < 3; ++field) {
            const std::size_t tab = line.find('\t', pos);
            if (tab == std::string::npos) return false;
            const std::string value = line.substr(pos, tab - pos);
            try {
                // Strict whole-field parse: std::stoull would accept
                // "12junk" (and wrap "-1"), silently corrupting the LRU
                // bookkeeping; a malformed manifest must instead fall
                // back to the directory scan.
                if (field == 0) entry.hash = value;
                else if (field == 1) entry.bytes = parse_strict_uint64(value);
                else entry.last_use = parse_strict_uint64(value);
            } catch (const std::exception&) {
                return false;
            }
            pos = tab + 1;
        }
        entry.key = line.substr(pos);
        if (entry.hash.empty()) return false;
        out.push_back(std::move(entry));
    }
    return true;
}

/// Rebuild manifest entries by scanning the directory's sidecar files —
/// the sidecars, not the manifest, are the source of truth for what is
/// cached. Recency is unknown for scanned entries (last_use = 0): they
/// evict first, in hash order, which is deterministic.
std::vector<Kernel_cache_entry_info> scan_directory(const std::string& directory) {
    std::vector<Kernel_cache_entry_info> entries;
    std::error_code ec;
    for (const auto& item : std::filesystem::directory_iterator(directory, ec)) {
        const std::string name = item.path().filename().string();
        constexpr const char* prefix = "kernel_";
        constexpr const char* suffix = ".key";
        if (name.rfind(prefix, 0) != 0 || name.size() <= std::strlen(prefix) + 4 ||
            name.substr(name.size() - 4) != suffix) {
            continue;
        }
        Kernel_cache_entry_info entry;
        entry.hash = name.substr(std::strlen(prefix),
                                 name.size() - std::strlen(prefix) - 4);
        entry.key = read_text_file(item.path().string());
        const std::filesystem::path kernel_file =
            item.path().parent_path() / ("kernel_" + entry.hash + ".bin");
        entry.bytes = file_bytes(item.path().string()) + file_bytes(kernel_file.string());
        entries.push_back(std::move(entry));
    }
    std::sort(entries.begin(), entries.end(),
              [](const Kernel_cache_entry_info& a, const Kernel_cache_entry_info& b) {
                  return a.hash < b.hash;
              });
    return entries;
}

std::vector<Kernel_cache_entry_info> load_manifest(const std::string& directory,
                                                   const std::string& manifest_file) {
    std::vector<Kernel_cache_entry_info> entries;
    if (parse_manifest(manifest_file, entries)) return entries;
    return scan_directory(directory);
}

void save_manifest(const std::string& manifest_file,
                   const std::vector<Kernel_cache_entry_info>& entries) {
    // Write-then-rename so readers never observe a torn manifest (a torn
    // temp file is simply rescanned away on the next load).
    const std::string tmp = manifest_file + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) throw std::runtime_error("cannot write '" + tmp + "'");
        out << manifest_header << '\n';
        for (const Kernel_cache_entry_info& entry : entries) {
            out << entry.hash << '\t' << entry.bytes << '\t' << entry.last_use << '\t'
                << entry.key << '\n';
        }
        if (!out) throw std::runtime_error("write failed for '" + tmp + "'");
    }
    std::filesystem::rename(tmp, manifest_file);
}

}  // namespace

/// The completion latch and result shared by every Async_request that
/// joined one key's resolution. Deliberately holds no build inputs:
/// each request carries its own copies, so a request abandoned without
/// get() leaves nothing dangling for a later joiner to dereference —
/// that joiner claims the execution and uses its own (live) inputs.
struct Kernel_cache_request_state {
    // Written once by get_or_build_async before the state is shared,
    // immutable afterwards: readable without the latch mutex.
    Kernel_cache* cache = nullptr;
    std::string key;

    Annotated_mutex mutex;
    Annotated_condition_variable cv;
    bool started CELLSYNC_GUARDED_BY(mutex) = false;  ///< a get() caller claimed the execution
    bool done CELLSYNC_GUARDED_BY(mutex) = false;
    std::shared_ptr<const Kernel_grid> result CELLSYNC_GUARDED_BY(mutex);
    std::exception_ptr error CELLSYNC_GUARDED_BY(mutex);
};

Kernel_cache::Kernel_cache(std::string directory, Kernel_cache_limits limits)
    : directory_(std::move(directory)), limits_(limits) {
    if (directory_.empty()) {
        throw std::invalid_argument("Kernel_cache: empty directory (use the default "
                                    "constructor for a memory-only cache)");
    }
    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);
    // Read-only mode tolerates an uncreatable directory (e.g. a read-only
    // mount whose path the owner has not populated yet): lookups miss.
    if (ec && !limits_.read_only) {
        throw std::runtime_error("Kernel_cache: cannot create directory '" + directory_ +
                                 "': " + ec.message());
    }
}

std::string Kernel_cache::cache_key(const Cell_cycle_config& config,
                                    const Volume_model& volume_model, const Vector& times,
                                    const Kernel_build_options& options) {
    std::string key = "cellsync-kernel-v1;";
    append_double(key, "mu_sst", config.mu_sst);
    append_double(key, "cv_sst", config.cv_sst);
    append_double(key, "mean_cycle_minutes", config.mean_cycle_minutes);
    append_double(key, "cv_cycle", config.cv_cycle);
    key += "initial_mode=" + std::to_string(static_cast<int>(config.initial_mode)) + ";";
    key += "volume=" + volume_model.name() + ";";
    key += "n_cells=" + std::to_string(options.n_cells) + ";";
    key += "n_bins=" + std::to_string(options.n_bins) + ";";
    key += "seed=" + std::to_string(options.seed) + ";";
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

std::uint64_t Kernel_cache::entry_bytes(const std::string& hash) const {
    return file_bytes(binary_entry_path(hash)) + file_bytes(sidecar_path(hash));
}

std::string Kernel_cache::manifest_path(const std::string& directory) {
    return directory + "/manifest.tsv";
}

Kernel_cache_manifest Kernel_cache::manifest() const {
    Kernel_cache_manifest out;
    out.max_bytes = limits_.max_disk_bytes;
    if (directory_.empty()) return out;
    const Annotated_lock lock(manifest_mutex_);
    out.entries = load_manifest(directory_, manifest_path(directory_));
    std::sort(out.entries.begin(), out.entries.end(),
              [](const Kernel_cache_entry_info& a, const Kernel_cache_entry_info& b) {
                  return a.last_use > b.last_use;
              });
    for (const Kernel_cache_entry_info& entry : out.entries) out.total_bytes += entry.bytes;
    return out;
}

void Kernel_cache::touch_manifest(const std::string& hash, const std::string& key,
                                  bool stored) {
    if (directory_.empty() || limits_.read_only) return;
    std::size_t evicted = 0;
    try {
        const Annotated_lock lock(manifest_mutex_);
        std::vector<Kernel_cache_entry_info> entries =
            load_manifest(directory_, manifest_path(directory_));

        std::uint64_t next_use = 1;
        for (const Kernel_cache_entry_info& entry : entries) {
            next_use = std::max(next_use, entry.last_use + 1);
        }
        auto self = std::find_if(entries.begin(), entries.end(),
                                 [&](const Kernel_cache_entry_info& e) {
                                     return e.hash == hash;
                                 });
        if (self == entries.end()) {
            entries.push_back({});
            self = entries.end() - 1;
            self->hash = hash;
        }
        self->key = key;
        self->last_use = next_use;
        if (stored || self->bytes == 0) {
            self->bytes = entry_bytes(hash);
        }

        if (limits_.max_disk_bytes > 0) {
            std::uint64_t total = 0;
            for (const Kernel_cache_entry_info& entry : entries) total += entry.bytes;
            // Evict least-recently-used first; the just-touched entry is
            // exempt so a single oversized kernel still caches (the cap is
            // then best-effort, which beats thrashing).
            while (total > limits_.max_disk_bytes && entries.size() > 1) {
                std::size_t victim = entries.size();
                for (std::size_t i = 0; i < entries.size(); ++i) {
                    if (entries[i].hash == hash) continue;
                    if (victim == entries.size() ||
                        entries[i].last_use < entries[victim].last_use) {
                        victim = i;
                    }
                }
                if (victim == entries.size()) break;
                std::error_code ec;
                // Sidecar first: without its key the kernel orphan can
                // never be served, so a torn eviction degrades to a
                // rebuild.
                std::filesystem::remove(sidecar_path(entries[victim].hash), ec);
                std::filesystem::remove(binary_entry_path(entries[victim].hash), ec);
                total -= std::min(total, entries[victim].bytes);
                entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(victim));
                ++evicted;
            }
        }
        save_manifest(manifest_path(directory_), entries);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "Kernel_cache: manifest update failed: %s\n", e.what());
    }
    if (evicted > 0) {
        {
            const Annotated_lock lock(mutex_);
            stats_.evictions += evicted;
        }
        static telemetry::Counter& evictions = telemetry::counter("kernel_cache.evictions");
        evictions.add(evicted);
    }
}

Kernel_cache::Async_request Kernel_cache::get_or_build_async(
    const Cell_cycle_config& config, const Volume_model& volume_model, const Vector& times,
    const Kernel_build_options& options) {
    std::string key = cache_key(config, volume_model, times, options);
    Async_request request;
    request.config_ = config;
    request.volume_ = &volume_model;
    request.times_ = times;
    request.options_ = options;

    static telemetry::Counter& memory_hits = telemetry::counter("kernel_cache.memory_hits");
    static telemetry::Counter& inflight_joins =
        telemetry::counter("kernel_cache.inflight_joins");
    static telemetry::Counter& misses = telemetry::counter("kernel_cache.misses");

    const Annotated_lock lock(mutex_);
    if (const auto it = memory_.find(key); it != memory_.end()) {
        ++stats_.memory_hits;
        memory_hits.add();
        auto state = std::make_shared<Kernel_cache_request_state>();
        {
            // The state is not shared yet, but taking its latch keeps the
            // guarded-member discipline uniform (and provably correct).
            const Annotated_lock state_lock(state->mutex);
            state->done = true;
            state->result = it->second;
        }
        request.state_ = std::move(state);
        return request;
    }
    if (const auto it = inflight_.find(key); it != inflight_.end()) {
        // Joining a resolution already in flight counts as a memory hit:
        // the shared grid is served from the in-memory map the moment the
        // executing caller publishes it. Counting at call time keeps the
        // stats deterministic when requests are issued from one thread.
        ++stats_.memory_hits;
        inflight_joins.add();
        request.state_ = it->second;
        return request;
    }
    misses.add();
    auto state = std::make_shared<Kernel_cache_request_state>();
    state->cache = this;
    state->key = key;
    inflight_.emplace(std::move(key), state);
    request.state_ = std::move(state);
    return request;
}

std::shared_ptr<const Kernel_grid> Kernel_cache::Async_request::get() {
    if (!state_) {
        throw std::logic_error("Kernel_cache::Async_request: get() on an empty request");
    }
    bool execute = false;
    {
        const Annotated_lock lock(state_->mutex);
        if (!state_->done && !state_->started) {
            state_->started = true;
            execute = true;
        }
    }
    {
        // Async-request span: how long this caller spent executing the
        // shared resolution, or blocked waiting for another executor.
        const bool tracing = telemetry::Trace_recorder::instance().enabled();
        const telemetry::Trace_span span(
            "kernel_cache.request", "cache",
            tracing ? telemetry::arg("role", execute ? "execute" : "wait")
                    : std::string());
        if (execute) {
            state_->cache->resolve_request(state_, config_, *volume_, times_, options_);
        } else {
            Annotated_lock lock(state_->mutex);
            while (!state_->done) state_->cv.wait(lock);
        }
    }
    Annotated_lock lock(state_->mutex);
    while (!state_->done) state_->cv.wait(lock);
    if (state_->error) std::rethrow_exception(state_->error);
    return state_->result;
}

void Kernel_cache::resolve_request(const std::shared_ptr<Kernel_cache_request_state>& state,
                                   const Cell_cycle_config& config,
                                   const Volume_model& volume_model, const Vector& times,
                                   const Kernel_build_options& options) {
    // Disk I/O and simulation run outside the cache mutex so a long build
    // never blocks unrelated lookups; waiters block only on this
    // request's own latch.
    std::shared_ptr<const Kernel_grid> kernel;
    std::exception_ptr error;
    bool from_disk = false;
    const std::string& key = state->key;
    const std::string hash = key_hash(key);
    const bool tracing = telemetry::Trace_recorder::instance().enabled();
    const telemetry::Trace_span resolve_span(
        "kernel_cache.resolve", "cache",
        tracing ? telemetry::arg("hash", hash) : std::string());
    try {
        if (!directory_.empty() && read_text_file(sidecar_path(hash)) == key) {
            // The sidecar is written after the kernel file, so a matching
            // key promises a complete entry; a corrupt, invariant-violating
            // or missing `.bin` (a cache from before the binary format
            // holds kernel_<hash>.csv instead) still only costs a rebuild.
            const std::string entry = binary_entry_path(hash);
            try {
                kernel = std::make_shared<const Kernel_grid>(read_kernel_file(entry));
                from_disk = true;
                touch_manifest(hash, key, /*stored=*/false);
            } catch (const std::exception& e) {
                std::fprintf(stderr, "Kernel_cache: discarding unreadable entry %s (%s)\n",
                             entry.c_str(), e.what());
            }
        }
        if (!kernel) {
            const telemetry::Stopwatch build_watch;
            kernel = std::make_shared<const Kernel_grid>(
                build_kernel(config, volume_model, times, options));
            static telemetry::Histogram& build_us =
                telemetry::histogram("kernel_cache.build_us");
            build_us.record(build_watch.elapsed_us());
            if (!directory_.empty() && !limits_.read_only) {
                // A full disk or unwritable directory degrades to
                // memory-only caching instead of sinking the run. The
                // sidecar commit marker is only written after the kernel
                // file lands completely, and a torn kernel file is
                // removed, so no failure mode publishes a corrupt entry.
                try {
                    write_kernel_file(binary_entry_path(hash), *kernel,
                                      Kernel_format::binary);
                    {
                        std::ofstream sidecar(sidecar_path(hash),
                                              std::ios::binary | std::ios::trunc);
                        sidecar << key;
                        sidecar.flush();
                        if (!sidecar) {
                            throw std::runtime_error("cannot write '" +
                                                     sidecar_path(hash) + "'");
                        }
                    }
                    touch_manifest(hash, key, /*stored=*/true);
                } catch (const std::exception& e) {
                    std::error_code ec;
                    std::filesystem::remove(sidecar_path(hash), ec);
                    std::filesystem::remove(binary_entry_path(hash), ec);
                    std::fprintf(stderr, "Kernel_cache: could not persist entry: %s\n",
                                 e.what());
                }
            }
        }
    } catch (...) {
        error = std::current_exception();
    }

    if (kernel) {
        static telemetry::Counter& disk_hits = telemetry::counter("kernel_cache.disk_hits");
        static telemetry::Counter& builds = telemetry::counter("kernel_cache.builds");
        if (from_disk) disk_hits.add();
        else builds.add();
    }
    {
        const Annotated_lock lock(mutex_);
        if (kernel) {
            if (from_disk) ++stats_.disk_hits;
            else ++stats_.builds;
            // emplace keeps an entry another resolution may have inserted
            // first; publish the map's copy so all callers share one grid.
            kernel = memory_.emplace(key, std::move(kernel)).first->second;
        }
        inflight_.erase(key);
    }
    {
        const Annotated_lock lock(state->mutex);
        state->result = std::move(kernel);
        state->error = error;
        state->done = true;
    }
    state->cv.notify_all();
}

std::shared_ptr<const Kernel_grid> Kernel_cache::get_or_build(
    const Cell_cycle_config& config, const Volume_model& volume_model, const Vector& times,
    const Kernel_build_options& options) {
    return get_or_build_async(config, volume_model, times, options).get();
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

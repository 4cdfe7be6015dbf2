// Performance: the multi-condition experiment runner, two headline
// comparisons.
//
// 1. Cold vs warm kernel cache: one 3-condition experiment run twice
//    against the same disk cache directory — the cold pass builds every
//    kernel, the warm pass (a fresh cache instance, so no memory
//    entries) must serve all of them from disk — zero kernel builds —
//    and reproduce every per-gene coefficient bit-for-bit.
// 2. The runner at one thread vs hardware threads on a cold cache: more
//    threads build the conditions' kernels and their designs and
//    solve each condition's genes in parallel, while every per-gene
//    estimate stays bit-identical to the one-thread reference (asserted by
//    CI from this harness's JSON).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <thread>
#include <utility>

#include "biology/gene_profiles.h"
#include "core/experiment_runner.h"
#include "core/forward_model.h"
#include "perf_util.h"

namespace {

using namespace cellsync;

constexpr std::size_t conditions_count = 3;

Experiment_spec make_experiment() {
    const Vector times = linspace(0.0, 180.0, 13);
    Experiment_spec spec;
    spec.kernel.n_bins = 200;
    spec.basis_size = 18;
    spec.batch.lambda_grid = default_lambda_grid(7, 1e-6, 1e-1);
    // Hardware concurrency: honest scaling on any host (a fixed count
    // oversubscribes small boxes and undersells large ones).
    spec.threads = 0;

    // Three strains differing in cycle speed and transition phase, each
    // with a 4-gene panel generated through its own kernel (generation
    // uses direct build_kernel calls so the timed runs see a cold cache).
    const double cycle_minutes[conditions_count] = {150.0, 130.0, 170.0};
    const double mu_sst[conditions_count] = {0.15, 0.13, 0.17};
    Rng rng(5);
    const Noise_model noise{Noise_type::relative_gaussian, 0.08};
    for (std::size_t c = 0; c < conditions_count; ++c) {
        Experiment_condition condition;
        condition.name = "strain" + std::to_string(c);
        condition.cell_cycle.mean_cycle_minutes = cycle_minutes[c];
        condition.cell_cycle.mu_sst = mu_sst[c];
        const Kernel_grid kernel =
            build_kernel(condition.cell_cycle, Smooth_volume_model{}, times, spec.kernel);
        condition.panel = {
            forward_measurements_noisy(kernel, ftsz_like_profile().f, noise, rng, "ftsZ"),
            forward_measurements_noisy(kernel, sinusoid_profile(3.0, 2.0).f, noise, rng,
                                       "sinA"),
            forward_measurements_noisy(kernel, sinusoid_profile(4.0, 2.0, 1.0, 1.5).f,
                                       noise, rng, "sinB"),
            forward_measurements_noisy(kernel, pulse_profile(1.0, 6.0, 0.7, 0.15).f, noise,
                                       rng, "pulse"),
        };
        spec.conditions.push_back(std::move(condition));
    }
    return spec;
}

/// Count bit-identical per-gene estimates between two runs of the same
/// spec and track the worst coefficient divergence. Scans every
/// coefficient: max |diff| must reflect the worst divergence, not just
/// the first one.
void compare_genes(const Experiment_result& a, const Experiment_result& b,
                   std::size_t& genes, std::size_t& identical, double& max_diff) {
    for (std::size_t c = 0; c < a.conditions.size(); ++c) {
        for (std::size_t g = 0; g < a.conditions[c].genes.size(); ++g) {
            const Batch_entry& x = a.conditions[c].genes[g];
            const Batch_entry& y = b.conditions[c].genes[g];
            if (!x.estimate.has_value() || !y.estimate.has_value()) continue;
            ++genes;
            const Vector& cx = x.estimate->coefficients();
            const Vector& cy = y.estimate->coefficients();
            bool same = cx.size() == cy.size() && x.lambda == y.lambda;
            if (cx.size() == cy.size()) {
                for (std::size_t i = 0; i < cx.size(); ++i) {
                    max_diff = std::max(max_diff, std::abs(cx[i] - cy[i]));
                    if (cx[i] != cy[i]) same = false;
                }
            }
            if (same) ++identical;
        }
    }
}

void run_cache_comparison(cellsync::bench::Bench_json& json) {
    const std::string dir =
        (std::filesystem::temp_directory_path() / "cellsync_perf_experiment_cache")
            .string();
    std::filesystem::remove_all(dir);

    const Experiment_spec spec = make_experiment();
    const Smooth_volume_model volume;

    Kernel_cache cold_cache(dir);
    const cellsync::bench::Stopwatch cold_watch;
    const Experiment_result cold = run_experiment(spec, volume, cold_cache);
    const double cold_ms =
        cold_watch.elapsed_ms();

    // Fresh instance: the memory map is empty, so every kernel must come
    // off disk. builds == 0 is the "skips every kernel build" claim.
    Kernel_cache warm_cache(dir);
    const cellsync::bench::Stopwatch warm_watch;
    const Experiment_result warm = run_experiment(spec, volume, warm_cache);
    const double warm_ms =
        warm_watch.elapsed_ms();

    std::size_t genes = 0;
    std::size_t identical = 0;
    double max_diff = 0.0;
    compare_genes(cold, warm, genes, identical, max_diff);
    const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;

    std::printf("experiment: %zu conditions x 4 genes, %zu-bin kernels\n",
                cold.conditions.size(), spec.kernel.n_bins);
    std::printf("  cold (building)    : %9.1f ms (%zu kernel builds)\n", cold_ms,
                cold_cache.stats().builds);
    std::printf("  warm (disk cache)  : %9.1f ms (%zu builds, %zu disk hits)\n", warm_ms,
                warm_cache.stats().builds, warm_cache.stats().disk_hits);
    std::printf("  speedup            : %9.2fx\n", speedup);
    std::printf("  identical genes    : %zu/%zu (max |diff| %.3e)\n\n", identical, genes,
                max_diff);

    json.add("experiment_conditions", static_cast<double>(cold.conditions.size()));
    json.add("experiment_cold_ms", cold_ms);
    json.add("experiment_warm_ms", warm_ms);
    json.add("experiment_speedup", speedup);
    json.add("experiment_cold_builds", static_cast<double>(cold_cache.stats().builds));
    json.add("experiment_warm_builds", static_cast<double>(warm_cache.stats().builds));
    json.add("experiment_warm_disk_hits",
             static_cast<double>(warm_cache.stats().disk_hits));
    json.add("experiment_identical_genes", static_cast<double>(identical));
    json.add("experiment_total_genes", static_cast<double>(genes));
    json.add("experiment_max_coefficient_diff", max_diff);

    std::filesystem::remove_all(dir);
}

/// The runner at one thread vs hardware threads, on cold in-memory
/// caches: every kernel must be built in both runs, so the saving is
/// exactly what the extra threads run side by side (the three kernel
/// builds, the three design builds, and the solves of one
/// condition). On a single-core host the two times converge (the pool
/// must not cost anything) while every additional core widens the gap.
/// One thread is the reference: every task runs in turn on the calling
/// thread. Min-of-`repeats` runs absorbs timer noise and keeps this cheap
/// enough for CI to run and assert bit-identity on every push. The JSON
/// keys keep their historical `pipeline_` prefix.
void run_thread_comparison(cellsync::bench::Bench_json& json) {
    constexpr int repeats = 5;
    const Smooth_volume_model volume;
    const std::size_t cores = std::max<std::size_t>(1, std::thread::hardware_concurrency());

    Experiment_spec spec = make_experiment();

    Experiment_result one_thread;
    double one_thread_ms = 0.0;
    Experiment_result threaded;
    double threaded_ms = 0.0;
    for (int rep = 0; rep < repeats; ++rep) {
        spec.threads = 1;
        Kernel_cache one_thread_cache;
        cellsync::bench::Stopwatch watch;
        Experiment_result result = run_experiment(spec, volume, one_thread_cache);
        const double one_run_ms = watch.elapsed_ms();
        if (rep == 0 || one_run_ms < one_thread_ms) one_thread_ms = one_run_ms;
        if (rep == 0) one_thread = std::move(result);

        spec.threads = 0;
        Kernel_cache threaded_cache;
        watch.reset();
        result = run_experiment(spec, volume, threaded_cache);
        const double threaded_run_ms = watch.elapsed_ms();
        if (rep == 0 || threaded_run_ms < threaded_ms) threaded_ms = threaded_run_ms;
        if (rep == 0) threaded = std::move(result);
    }

    std::size_t genes = 0;
    std::size_t identical = 0;
    double max_diff = 0.0;
    compare_genes(one_thread, threaded, genes, identical, max_diff);
    const double speedup = threaded_ms > 0.0 ? one_thread_ms / threaded_ms : 0.0;

    std::printf("runner: %zu conditions x 4 genes, cold caches, %zu hardware threads, "
                "min of %d\n",
                conditions_count, cores, repeats);
    char threads_label[32];
    std::snprintf(threads_label, sizeof(threads_label), "%zu threads", cores);
    std::printf("  %-23s: %9.1f ms (%zu kernel builds)\n", "1 thread (reference)",
                one_thread_ms, one_thread.cache_stats.builds);
    std::printf("  %-23s: %9.1f ms (%zu kernel builds)\n", threads_label, threaded_ms,
                threaded.cache_stats.builds);
    std::printf("  speedup                : %9.2fx\n", speedup);
    if (cores == 1) {
        std::printf("  (single-core host: parallel kernels and solves need a second "
                    "core; expect parity here and a widening gap per added core)\n");
    }
    std::printf("  identical genes        : %zu/%zu (max |diff| %.3e)\n\n", identical,
                genes, max_diff);

    json.add("pipeline_one_thread_cold_ms", one_thread_ms);
    json.add("pipeline_threaded_cold_ms", threaded_ms);
    json.add("pipeline_speedup", speedup);
    json.add("pipeline_hardware_threads", static_cast<double>(cores));
    json.add("pipeline_builds", static_cast<double>(threaded.cache_stats.builds));
    json.add("pipeline_identical_genes", static_cast<double>(identical));
    json.add("pipeline_total_genes", static_cast<double>(genes));
    json.add("pipeline_max_coefficient_diff", max_diff);
}

Kernel_build_options micro_options() {
    Kernel_build_options o;
    o.n_bins = 200;
    return o;
}

void bm_cache_memory_hit(benchmark::State& state) {
    Kernel_cache cache;
    const Cell_cycle_config config;
    const Smooth_volume_model volume;
    const Vector times = linspace(0.0, 180.0, 13);
    cache.get_or_build(config, volume, times, micro_options());
    for (auto _ : state) {
        const auto kernel = cache.get_or_build(config, volume, times, micro_options());
        benchmark::DoNotOptimize(kernel.get());
    }
}

void bm_cache_disk_hit(benchmark::State& state) {
    const std::string dir =
        (std::filesystem::temp_directory_path() / "cellsync_perf_experiment_disk").string();
    std::filesystem::remove_all(dir);
    Kernel_cache cache(dir);
    const Cell_cycle_config config;
    const Smooth_volume_model volume;
    const Vector times = linspace(0.0, 180.0, 13);
    cache.get_or_build(config, volume, times, micro_options());
    for (auto _ : state) {
        cache.clear_memory();  // force the disk path
        const auto kernel = cache.get_or_build(config, volume, times, micro_options());
        benchmark::DoNotOptimize(kernel.get());
    }
    std::filesystem::remove_all(dir);
}

void bm_cache_cold_build(benchmark::State& state) {
    const Cell_cycle_config config;
    const Smooth_volume_model volume;
    const Vector times = linspace(0.0, 180.0, 13);
    for (auto _ : state) {
        Kernel_cache cache;  // fresh: every iteration builds
        const auto kernel = cache.get_or_build(config, volume, times, micro_options());
        benchmark::DoNotOptimize(kernel.get());
    }
}

}  // namespace

BENCHMARK(bm_cache_memory_hit)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_cache_disk_hit)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_cache_cold_build)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
    cellsync::bench::Bench_json json("experiment");
    // The comparisons are the expensive part; a --benchmark_filter
    // narrows the run: one lacking "experiment" skips the cache
    // comparison, one lacking "pipeline" skips the thread comparison
    // (CI uses 'bm_cache_memory_hit' for micro-only smoke and
    // 'pipeline_comparison_only' for the thread bit-identity smoke).
    bool want_cache_comparison = true;
    bool want_thread_comparison = true;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--benchmark_filter", 0) == 0) {
            want_cache_comparison = arg.find("experiment") != std::string::npos;
            want_thread_comparison = arg.find("pipeline") != std::string::npos;
        }
    }
    // Thread comparison first: it is the tighter measurement (min of
    // repeats) and deserves the fresh process, before the cache
    // comparison grows the allocator.
    if (want_thread_comparison) run_thread_comparison(json);
    if (want_cache_comparison) run_cache_comparison(json);
    return cellsync::bench::run_perf_harness(argc, argv, std::move(json));
}

// Performance: kernel serialization formats — CSV vs cellsync-kernel-bin-v1.
//
// The fleet workload rereads cached kernels constantly (every cold start,
// every process pointed at a shared pre-warmed directory), so the bytes
// on disk and the parse time per load are the costs that scale with the
// fleet. This harness serializes one production-shaped kernel both
// ways, measures size and parse time, and asserts the loaded grids are
// bit-identical to the built one — all captured in
// BENCH_kernel_io.json. The parse gap is the headline (the binary layout
// skips text formatting entirely); the size gap tracks how many phase
// bins the synchronized population leaves exactly zero (zero runs are
// run-length encoded), so it grows with kernel sparsity.
#include <cmath>
#include <sstream>

#include "population/kernel_io.h"
#include "perf_util.h"

namespace {

using namespace cellsync;

struct Kernel_io_fixture {
    Kernel_grid kernel;
    std::string csv;
    std::string binary;
};

/// The shared-cache fleet kernel: the PR 2-4 experiment protocol
/// (0..180 min, 13 samples, 200 phase bins).
const Kernel_io_fixture& fixture() {
    static const Kernel_io_fixture fixed = [] {
        Kernel_build_options options;
        options.n_bins = 200;
        Kernel_grid kernel = build_kernel(Cell_cycle_config{}, Smooth_volume_model{},
                                          linspace(0.0, 180.0, 13), options);
        std::ostringstream csv, binary;
        write_kernel(csv, kernel);
        write_kernel_binary(binary, kernel);
        return Kernel_io_fixture{std::move(kernel), csv.str(), binary.str()};
    }();
    return fixed;
}

/// Number of grid values that reload bit-identically (times, centers, q).
std::size_t identical_values(const Kernel_grid& a, const Kernel_grid& b,
                             double& max_diff) {
    if (a.time_count() != b.time_count() || a.bin_count() != b.bin_count()) return 0;
    std::size_t identical = 0;
    const auto check = [&](double x, double y) {
        max_diff = std::max(max_diff, std::abs(x - y));
        if (x == y || (std::isnan(x) && std::isnan(y))) ++identical;
    };
    for (std::size_t m = 0; m < a.time_count(); ++m) check(a.times()[m], b.times()[m]);
    for (std::size_t c = 0; c < a.bin_count(); ++c) {
        check(a.phi_centers()[c], b.phi_centers()[c]);
    }
    for (std::size_t m = 0; m < a.time_count(); ++m) {
        for (std::size_t c = 0; c < a.bin_count(); ++c) check(a.q()(m, c), b.q()(m, c));
    }
    return identical;
}

void run_kernel_io_comparison(cellsync::bench::Bench_json& json) {
    const Kernel_io_fixture& fix = fixture();
    const std::size_t total =
        fix.kernel.time_count() + fix.kernel.bin_count() +
        fix.kernel.time_count() * fix.kernel.bin_count();

    // Parse timing: best of a few passes, several parses per pass so the
    // binary path (microseconds) is measured above timer noise.
    constexpr int passes = 5;
    constexpr int reps = 20;
    const auto time_parses = [&](const std::string& payload, bool binary) {
        double best_ms = 0.0;
        for (int pass = 0; pass < passes; ++pass) {
            const cellsync::bench::Stopwatch watch;
            for (int r = 0; r < reps; ++r) {
                std::istringstream in(payload);
                const Kernel_grid grid =
                    binary ? read_kernel_binary(in) : read_kernel(in);
                benchmark::DoNotOptimize(grid.q().data());
            }
            const double ms =
                watch.elapsed_ms() /
                reps;
            best_ms = pass == 0 ? ms : std::min(best_ms, ms);
        }
        return best_ms;
    };
    const double csv_ms = time_parses(fix.csv, /*binary=*/false);
    const double bin_ms = time_parses(fix.binary, /*binary=*/true);

    // Bit-identity of both round trips against the built grid.
    std::istringstream csv_in(fix.csv), bin_in(fix.binary);
    const Kernel_grid from_csv = read_kernel(csv_in);
    const Kernel_grid from_bin = read_kernel_binary(bin_in);
    double csv_max_diff = 0.0, bin_max_diff = 0.0;
    const std::size_t csv_identical = identical_values(fix.kernel, from_csv, csv_max_diff);
    const std::size_t bin_identical = identical_values(fix.kernel, from_bin, bin_max_diff);

    const double size_ratio =
        fix.binary.empty() ? 0.0
                           : static_cast<double>(fix.csv.size()) /
                                 static_cast<double>(fix.binary.size());
    const double speedup = bin_ms > 0.0 ? csv_ms / bin_ms : 0.0;

    std::printf("kernel io: %zu times x %zu bins (%zu grid values)\n",
                fix.kernel.time_count(), fix.kernel.bin_count(), total);
    std::printf("  csv    : %8zu bytes, parse %8.3f ms, %zu/%zu values bit-identical\n",
                fix.csv.size(), csv_ms, csv_identical, total);
    std::printf("  binary : %8zu bytes, parse %8.3f ms, %zu/%zu values bit-identical\n",
                fix.binary.size(), bin_ms, bin_identical, total);
    std::printf("  binary is %.2fx smaller, %.1fx faster to parse\n\n", size_ratio,
                speedup);

    json.add("kernel_io_times", static_cast<double>(fix.kernel.time_count()));
    json.add("kernel_io_bins", static_cast<double>(fix.kernel.bin_count()));
    json.add("kernel_io_total_values", static_cast<double>(total));
    json.add("kernel_io_csv_bytes", static_cast<double>(fix.csv.size()));
    json.add("kernel_io_binary_bytes", static_cast<double>(fix.binary.size()));
    json.add("kernel_io_size_ratio", size_ratio);
    json.add("kernel_io_csv_parse_ms", csv_ms);
    json.add("kernel_io_binary_parse_ms", bin_ms);
    json.add("kernel_io_parse_speedup", speedup);
    json.add("kernel_io_csv_identical_values", static_cast<double>(csv_identical));
    json.add("kernel_io_identical_values", static_cast<double>(bin_identical));
    json.add("kernel_io_max_value_diff", std::max(csv_max_diff, bin_max_diff));
}

void bm_kernel_io_read_csv(benchmark::State& state) {
    const Kernel_io_fixture& fix = fixture();
    for (auto _ : state) {
        std::istringstream in(fix.csv);
        const Kernel_grid grid = read_kernel(in);
        benchmark::DoNotOptimize(grid.q().data());
    }
}

void bm_kernel_io_read_binary(benchmark::State& state) {
    const Kernel_io_fixture& fix = fixture();
    for (auto _ : state) {
        std::istringstream in(fix.binary);
        const Kernel_grid grid = read_kernel_binary(in);
        benchmark::DoNotOptimize(grid.q().data());
    }
}

void bm_kernel_io_write_csv(benchmark::State& state) {
    const Kernel_io_fixture& fix = fixture();
    for (auto _ : state) {
        std::ostringstream out;
        write_kernel(out, fix.kernel);
        benchmark::DoNotOptimize(out.str().data());
    }
}

void bm_kernel_io_write_binary(benchmark::State& state) {
    const Kernel_io_fixture& fix = fixture();
    for (auto _ : state) {
        std::ostringstream out;
        write_kernel_binary(out, fix.kernel);
        benchmark::DoNotOptimize(out.str().data());
    }
}

}  // namespace

BENCHMARK(bm_kernel_io_read_csv)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_kernel_io_read_binary)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_kernel_io_write_csv)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_kernel_io_write_binary)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
    cellsync::bench::Bench_json json("kernel_io");
    // The comparison is the headline; skip it when the caller narrowed the
    // run away from kernel_io (mirrors perf_streaming's convention —
    // 'kernel_io_comparison_only' runs just the comparison).
    bool want_comparison = true;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--benchmark_filter", 0) == 0 &&
            arg.find("kernel_io") == std::string::npos) {
            want_comparison = false;
        }
    }
    if (want_comparison) run_kernel_io_comparison(json);
    return cellsync::bench::run_perf_harness(argc, argv, std::move(json));
}

// Shared main() for the Google-Benchmark-based perf harnesses: the usual
// console report, plus every benchmark's adjusted real time (and any user
// counter it sets) captured into BENCH_<name>.json (see Bench_json) so
// perf can be tracked across PRs.
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"

namespace cellsync::bench {

/// Console reporter that additionally records each run's adjusted real
/// time (in its reported time unit) as a JSON metric.
class Json_capture_reporter : public benchmark::ConsoleReporter {
  public:
    explicit Json_capture_reporter(Bench_json& json) : json_(json) {}

    void ReportRuns(const std::vector<Run>& reports) override {
        for (const Run& run : reports) {
            // No error/skip filtering: the field spelling changed across
            // Google Benchmark 1.7 -> 1.8 (error_occurred -> skipped), and
            // an errored run's zero time in the JSON is harmless.
            const std::string unit = benchmark::GetTimeUnitString(run.time_unit);
            json_.add(run.benchmark_name() + "_" + unit, run.GetAdjustedRealTime());
            for (const auto& [counter, value] : run.counters) {
                json_.add(run.benchmark_name() + "_" + counter, value);
            }
        }
        ConsoleReporter::ReportRuns(reports);
    }

  private:
    Bench_json& json_;
};

/// Run all registered benchmarks, then write the JSON capture. Pass a
/// pre-seeded Bench_json to merge harness-specific metrics (for example
/// perf_deconvolve's panel speedup) into the same file.
inline int run_perf_harness(int argc, char** argv, Bench_json json) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    Json_capture_reporter reporter(json);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    json.write();
    return 0;
}

inline int run_perf_harness(int argc, char** argv, const std::string& name) {
    return run_perf_harness(argc, argv, Bench_json(name));
}

}  // namespace cellsync::bench

// Command-line deconvolution suite.
//
//   cellsync_deconvolve <subcommand> [options]
//
// Subcommands:
//
//   run      Deconvolve measurements. Two modes:
//            * single series:  --input data.csv  (columns time, value,
//              optional sigma); writes the profile CSV exactly as the
//              historical single-command tool did.
//            * experiment:     --condition NAME=panel.csv[,mu_sst=X]
//              [,cycle_minutes=Y] repeated once per condition. Each panel
//              CSV is wide format: a `time` column plus one column per
//              gene, optionally paired with `<gene>_sigma`. All
//              (condition x gene) solves share kernels through the cache
//              and one design per kernel, and run as one task graph;
//              lambda selection is warm-started across adjacent
//              conditions. Writes `<output stem>.<condition>.csv` per
//              condition and prints per-condition synchrony scores.
//   stream   Incremental deconvolution of an append-only record log
//            (long-form CSV: time,gene,value[,sigma], rows time-ordered).
//            Each timepoint's records update every gene's estimate
//            in-place through the streaming engine (rank-one
//            normal-equation update + a QP re-solve on the reduced
//            blocks); once a gene's estimate stabilizes it is reported
//            converged, and --stop-when-converged ends the run as soon
//            as every gene has. Requires the full time grid up front
//            (--times or --times-from) because the kernel is simulated
//            for the whole protocol. The final profile CSV matches a
//            batch `run` with the same fixed --lambda bit for bit.
//   kernel   build: simulate a kernel and write it to --output, as CSV or
//            in the cellsync-kernel-bin-v1 binary format (--kernel-format,
//            default from the output extension: `.bin` is binary,
//            anything else CSV).
//            cache: resolve a kernel through --cache-dir (build on miss,
//            reuse on hit) — use it to pre-warm a cache shared by later
//            runs — then print the cache manifest (entries, bytes,
//            recency). Without --times/--times-from, just prints the
//            manifest.
//            convert: re-encode a saved kernel between the CSV and binary
//            formats (--input -> --output). The input format is
//            auto-detected; the output format is --kernel-format when
//            given, else follows a `.bin`/`.csv` output extension, else
//            is the opposite of the input's. Round-trips bit-exactly.
//   report   Recompute synchrony scores (order parameter, entropy, peak
//            phase) for profile CSVs produced by `run` / `stream`;
//            --json PATH additionally writes a machine-readable report
//            (per-gene scores plus the lambda recorded in the profile
//            CSV's `# lambda:` comments).
//   merge-results
//            Merge per-shard profile CSVs of one condition (written by
//            `run --shards N --shard-index i`) into a single profile
//            CSV: phi grids must agree exactly, gene columns must be
//            disjoint, and `# lambda:` comments are carried over. The
//            merged per-gene values are bit-identical to an unsharded
//            run's.
//
// Sharded experiments: `run --shards N --shard-index i` deconvolves only
// the genes whose label hashes to shard i (deterministic, label-stable
// across conditions, so lambda warm-start chains are preserved). Launch
// one process per shard — on one machine or many, optionally against a
// shared `--cache-dir` opened with `--cache-read-only` — then combine
// each condition's `<stem>.<condition>.shard<i>of<N>.csv` outputs with
// `merge-results`.
//
// Common options:
//   --output PATH       profile CSV / kernel CSV destination
//   --cache-dir DIR     disk-backed kernel cache (run, stream, kernel cache)
//   --cache-max-bytes N LRU size cap for --cache-dir (0 = unbounded)
//   --cache-read-only   serve --cache-dir without ever writing (no new
//                       entries, no manifest updates, no eviction) —
//                       safe for many processes sharing one directory
//   --shards N --shard-index I   experiment runs: keep only shard I of
//                       the gene panels (see "Sharded experiments")
//   --kernel PATH       reuse a saved kernel (single-series run; CSV or
//                       binary, auto-detected)
//   --save-kernel PATH  persist the simulated kernel (single-series run)
//   --kernel-format F   csv | bin | binary (kernel build / kernel convert)
//   --cells N --bins N --seed N     simulation controls
//   --basis N           spline knots Nc >= 4        (default 18)
//   --lambda X          fixed smoothness weight >= 0 (default: 5-fold CV
//                       for run; 1e-3 for stream)
//   --mu-sst X --cycle-minutes X    organism model defaults
//   --linear-volume     use the 2009 linear volume model
//   --no-positivity / --no-conservation / --no-rate-continuity
//   --no-warm-start     experiment run (--condition): full lambda grid
//                       for every condition
//   --bootstrap N       confidence band from N >= 10 replicates, 0 = none
//                       (single-series run only)
//   --threads N         worker threads              (default: hardware)
//   --times LO:HI:N | --times-from data.csv   time grid (kernel, stream)
//   --json PATH         machine-readable report output (report, kernel cache)
//   --trace PATH        Chrome-trace JSON of the command's spans (every
//                       subcommand); load in Perfetto or chrome://tracing
//   --metrics-json PATH metrics snapshot (counters/gauges/histograms)
//                       written at command exit (every subcommand)
//                       An unwritable --trace / --metrics-json path fails
//                       the command (exit 1), as an unwritable --json does.
//   --stop-when-converged / --coef-tol X / --score-tol X
//   --stable-updates N (>= 1) / --min-observed N     streaming convergence
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <fstream>

#include "core/bootstrap.h"
#include "core/cross_validation.h"
#include "core/experiment_runner.h"
#include "core/telemetry.h"
#include "core/trace.h"
#include "core/worker_pool.h"
#include "io/csv.h"
#include "io/expression_data.h"
#include "population/kernel_io.h"
#include "io/series_writer.h"
#include "io/stream_records.h"
#include "population/kernel_cache.h"
#include "population/synchrony.h"
#include "spline/spline_basis.h"
#include "stream/stream_session.h"

namespace {

using namespace cellsync;

struct Condition_request {
    std::string name;
    std::string panel_path;
    std::optional<double> mu_sst;
    std::optional<double> cycle_minutes;
};

struct Cli_options {
    std::string input;
    std::vector<Condition_request> conditions;
    std::string output;  ///< resolved per subcommand (run defaults it)
    std::string cache_dir;
    std::string kernel_path;
    std::string save_kernel_path;
    std::optional<Kernel_format> kernel_format;  ///< kernel build/convert output
    std::string times_spec;
    std::string times_from;
    std::size_t cells = 100000;
    std::size_t bins = 200;
    std::size_t basis = 18;
    std::optional<double> lambda;
    double mu_sst = 0.15;
    double cycle_minutes = 150.0;
    bool linear_volume = false;
    bool positivity = true;
    bool conservation = true;
    bool rate_continuity = true;
    bool warm_start = true;
    std::size_t bootstrap = 0;
    std::uint64_t seed = 20110605;
    std::size_t threads = 0;
    std::string json_path;                ///< report / kernel cache --json destination
    std::string trace_path;               ///< --trace Chrome-trace destination
    std::string metrics_json_path;        ///< --metrics-json snapshot destination
    std::uint64_t cache_max_bytes = 0;    ///< LRU cap for --cache-dir
    bool cache_read_only = false;         ///< shared-directory fleet mode
    std::size_t shards = 1;               ///< experiment gene-panel shards
    std::size_t shard_index = 0;          ///< this process's shard
    bool stop_when_converged = false;     ///< stream: end once all genes stabilize
    Stream_convergence convergence;       ///< stream thresholds
};

[[noreturn]] void usage_error(const std::string& message) {
    std::fprintf(stderr, "cellsync_deconvolve: %s\nsee the header comment for usage\n",
                 message.c_str());
    std::exit(2);
}

Condition_request parse_condition(const std::string& value) {
    Condition_request request;
    const auto eq = value.find('=');
    if (eq == std::string::npos || eq == 0) {
        usage_error("--condition expects NAME=panel.csv[,mu_sst=X][,cycle_minutes=Y], got '" +
                    value + "'");
    }
    request.name = value.substr(0, eq);
    std::string rest = value.substr(eq + 1);
    std::size_t comma = rest.find(',');
    request.panel_path = rest.substr(0, comma);
    if (request.panel_path.empty()) usage_error("--condition '" + request.name + "': empty path");
    while (comma != std::string::npos) {
        rest = rest.substr(comma + 1);
        comma = rest.find(',');
        const std::string field = rest.substr(0, comma);
        const auto feq = field.find('=');
        if (feq == std::string::npos) {
            usage_error("--condition '" + request.name + "': bad field '" + field + "'");
        }
        const std::string key = field.substr(0, feq);
        const std::string val = field.substr(feq + 1);
        try {
            if (key == "mu_sst") request.mu_sst = parse_strict_double(val);
            else if (key == "cycle_minutes") request.cycle_minutes = parse_strict_double(val);
            else usage_error("--condition '" + request.name + "': unknown field '" + key + "'");
        } catch (const std::exception& e) {
            usage_error("--condition '" + request.name + "': " + e.what() + " (field '" +
                        field + "')");
        }
    }
    return request;
}

/// `--bootstrap N` as the bootstrap's options (N > 0).
Bootstrap_options bootstrap_options_from(const Cli_options& cli) {
    Bootstrap_options boot;
    boot.replicates = cli.bootstrap;
    return boot;
}

Cli_options parse_args(int argc, char** argv, int first) {
    Cli_options options;
    auto next_value = [&](int& i) -> std::string {
        if (i + 1 >= argc) usage_error(std::string("missing value for ") + argv[i]);
        return argv[++i];
    };
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        try {
            if (arg == "--input") options.input = next_value(i);
            else if (arg == "--condition")
                options.conditions.push_back(parse_condition(next_value(i)));
            else if (arg == "--output") options.output = next_value(i);
            else if (arg == "--cache-dir") options.cache_dir = next_value(i);
            else if (arg == "--kernel") options.kernel_path = next_value(i);
            else if (arg == "--save-kernel") options.save_kernel_path = next_value(i);
            else if (arg == "--kernel-format")
                options.kernel_format = kernel_format_from_string(next_value(i));
            else if (arg == "--times") options.times_spec = next_value(i);
            else if (arg == "--times-from") options.times_from = next_value(i);
            else if (arg == "--cells") options.cells = parse_strict_uint64(next_value(i));
            else if (arg == "--bins") options.bins = parse_strict_uint64(next_value(i));
            else if (arg == "--basis") {
                options.basis = parse_strict_uint64(next_value(i));
                if (options.basis < Natural_spline_basis::min_knots) {
                    throw std::invalid_argument(
                        "need at least " + std::to_string(Natural_spline_basis::min_knots) +
                        " knots, got " + std::to_string(options.basis));
                }
            }
            else if (arg == "--lambda") {
                const std::string text = next_value(i);
                options.lambda = parse_strict_double(text);
                if (*options.lambda < 0.0) {
                    throw std::invalid_argument("negative value '" + text + "', lambda must be >= 0");
                }
            }
            else if (arg == "--mu-sst") options.mu_sst = parse_strict_double(next_value(i));
            else if (arg == "--cycle-minutes") options.cycle_minutes = parse_strict_double(next_value(i));
            else if (arg == "--linear-volume") options.linear_volume = true;
            else if (arg == "--no-positivity") options.positivity = false;
            else if (arg == "--no-conservation") options.conservation = false;
            else if (arg == "--no-rate-continuity") options.rate_continuity = false;
            else if (arg == "--no-warm-start") options.warm_start = false;
            else if (arg == "--bootstrap") {
                options.bootstrap = parse_strict_uint64(next_value(i));
                if (options.bootstrap > 0) bootstrap_options_from(options).validate();
            }
            else if (arg == "--seed") options.seed = parse_strict_uint64(next_value(i));
            else if (arg == "--threads") options.threads = parse_strict_uint64(next_value(i));
            else if (arg == "--json") options.json_path = next_value(i);
            else if (arg == "--trace") options.trace_path = next_value(i);
            else if (arg == "--metrics-json") options.metrics_json_path = next_value(i);
            else if (arg == "--cache-max-bytes") options.cache_max_bytes = parse_strict_uint64(next_value(i));
            else if (arg == "--cache-read-only") options.cache_read_only = true;
            else if (arg == "--shards") options.shards = parse_strict_uint64(next_value(i));
            else if (arg == "--shard-index") options.shard_index = parse_strict_uint64(next_value(i));
            else if (arg == "--stop-when-converged") options.stop_when_converged = true;
            else if (arg == "--coef-tol") {
                options.convergence.coefficient_tol = parse_strict_double(next_value(i));
                options.convergence.validate();
            }
            else if (arg == "--score-tol") {
                options.convergence.score_tol = parse_strict_double(next_value(i));
                options.convergence.validate();
            }
            else if (arg == "--stable-updates") {
                options.convergence.stable_updates = parse_strict_uint64(next_value(i));
                options.convergence.validate();
            }
            else if (arg == "--min-observed") options.convergence.min_observed = parse_strict_uint64(next_value(i));
            else usage_error("unknown option '" + arg + "'");
        } catch (const std::exception& e) {
            // The strict parsers (io/csv.h from_chars policy) throw on
            // trailing garbage ("1.5junk"), inf/nan, signs on unsigned
            // flags, and out-of-range values, and the range checks above
            // apply the library's own rules; all are malformed option
            // values and deserve the usage path, before any work starts,
            // with the message naming the offending text and flag.
            usage_error(std::string(e.what()) + " (option " + arg + ")");
        }
    }
    return options;
}

Cell_cycle_config config_from(const Cli_options& cli) {
    Cell_cycle_config config;
    config.mu_sst = cli.mu_sst;
    config.mean_cycle_minutes = cli.cycle_minutes;
    return config;
}

std::unique_ptr<Volume_model> volume_from(const Cli_options& cli) {
    if (cli.linear_volume) return std::make_unique<Linear_volume_model>();
    return std::make_unique<Smooth_volume_model>();
}

Kernel_build_options kernel_options_from(const Cli_options& cli) {
    Kernel_build_options kernel_options;
    kernel_options.n_cells = cli.cells;
    kernel_options.n_bins = cli.bins;
    kernel_options.seed = cli.seed;
    return kernel_options;
}

Constraint_options constraints_from(const Cli_options& cli) {
    Constraint_options constraints;
    constraints.positivity = cli.positivity;
    constraints.conservation = cli.conservation;
    constraints.rate_continuity = cli.rate_continuity;
    return constraints;
}

Kernel_cache_limits cache_limits_from(const Cli_options& cli) {
    Kernel_cache_limits limits;
    limits.max_disk_bytes = cli.cache_max_bytes;
    limits.read_only = cli.cache_read_only;
    return limits;
}

// ---------------------------------------------------------------------------
// --trace / --metrics-json plumbing
// ---------------------------------------------------------------------------

/// Enables span recording for the lifetime of one subcommand and writes
/// the requested trace / metrics files. On the success path `finish()`
/// writes them and throws when it cannot, so the command fails like
/// `--json` does; on the error path the destructor writes them
/// best-effort, via unwinding, so a crashed run still leaves its
/// telemetry behind.
class Telemetry_session {
  public:
    explicit Telemetry_session(const Cli_options& cli)
        : trace_path_(cli.trace_path), metrics_path_(cli.metrics_json_path) {
        if (trace_path_.empty() && metrics_path_.empty()) return;
        telemetry::Metrics_registry::instance().reset_values();
        if (!trace_path_.empty()) telemetry::Trace_recorder::instance().enable();
    }

    /// Writes the requested files once; throws `cannot open '<path>' for
    /// writing` for a path that cannot be written.
    void finish() {
        const std::string trace_path = std::exchange(trace_path_, {});
        const std::string metrics_path = std::exchange(metrics_path_, {});
        std::fflush(stdout);  // a /dev/stdout target follows the command's output
        if (!trace_path.empty()) {
            telemetry::Trace_recorder& recorder = telemetry::Trace_recorder::instance();
            recorder.disable();
            std::ofstream out(trace_path);
            if (!out) throw std::runtime_error("cannot open '" + trace_path + "' for writing");
            recorder.write_chrome_trace(out);
            if (!out) throw std::runtime_error("write failed for '" + trace_path + "'");
            std::printf("wrote trace %s\n", trace_path.c_str());
        }
        if (!metrics_path.empty()) {
            std::ofstream out(metrics_path);
            if (!out) throw std::runtime_error("cannot open '" + metrics_path + "' for writing");
            telemetry::write_metrics_json(out, telemetry::Metrics_registry::instance().snapshot());
            if (!out) throw std::runtime_error("write failed for '" + metrics_path + "'");
            std::printf("wrote metrics %s\n", metrics_path.c_str());
        }
    }

    ~Telemetry_session() {
        try {
            finish();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "cellsync_deconvolve: %s\n", e.what());
        }
    }

    Telemetry_session(const Telemetry_session&) = delete;
    Telemetry_session& operator=(const Telemetry_session&) = delete;

  private:
    std::string trace_path_;
    std::string metrics_path_;
};

/// Write a profile table prefixed with `# lambda:<gene>=<value>` comment
/// lines (skipped by the CSV reader; parsed by `report --json`), so the
/// smoothness weight each profile was estimated with travels with it.
void write_profiles_with_lambdas(const std::string& path, const Table& table,
                                 const std::vector<std::pair<std::string, double>>& lambdas) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open '" + path + "' for writing");
    for (const auto& [gene, lambda] : lambdas) {
        char buffer[48];
        std::snprintf(buffer, sizeof(buffer), "%.17g", lambda);
        out << "# lambda:" << gene << "=" << buffer << "\n";
    }
    write_csv(out, table);
    if (!out) throw std::runtime_error("write failed for '" + path + "'");
}

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
            continue;
        }
        out.push_back(c);
    }
    return out;
}

/// Time grid for the kernel subcommands: LO:HI:N or a CSV's time column.
Vector resolve_times(const Cli_options& cli) {
    if (!cli.times_spec.empty() && !cli.times_from.empty()) {
        usage_error("--times and --times-from are mutually exclusive");
    }
    if (!cli.times_spec.empty()) {
        // Strict-policy parse of each ':'-separated piece: sscanf's %lf
        // would honor the locale and tolerate embedded prefixes; the
        // from_chars helpers reject "0:180:13.7", "0:inf:13", and "-3"
        // counts (which an unsigned conversion would wrap) outright.
        const std::string& spec = cli.times_spec;
        const std::size_t first_colon = spec.find(':');
        const std::size_t second_colon =
            first_colon == std::string::npos ? std::string::npos
                                             : spec.find(':', first_colon + 1);
        std::uint64_t count = 0;
        double lo = 0.0, hi = 0.0;
        try {
            if (second_colon == std::string::npos ||
                spec.find(':', second_colon + 1) != std::string::npos) {
                throw std::runtime_error("expected exactly two ':' separators");
            }
            lo = parse_strict_double(spec.substr(0, first_colon));
            hi = parse_strict_double(
                spec.substr(first_colon + 1, second_colon - first_colon - 1));
            count = parse_strict_uint64(spec.substr(second_colon + 1));
        } catch (const std::exception& e) {
            usage_error("--times expects LO:HI:COUNT, got '" + spec + "' (" + e.what() +
                        ")");
        }
        if (count < 2 || count > 100000) {
            usage_error("--times expects LO:HI:COUNT with 2 <= COUNT <= 100000, got '" +
                        spec + "'");
        }
        return linspace(lo, hi, static_cast<std::size_t>(count));
    }
    if (!cli.times_from.empty()) {
        const Table table = read_csv_file(cli.times_from);
        if (!table.has_column("time")) {
            usage_error("--times-from file '" + cli.times_from + "' has no 'time' column");
        }
        return table.column("time");
    }
    usage_error("a time grid is required: --times LO:HI:COUNT or --times-from data.csv");
}

std::string output_stem(const std::string& output) {
    const auto dot = output.rfind(".csv");
    return dot == output.size() - 4 ? output.substr(0, dot) : output;
}

/// `.bin` paths default to the binary format, everything else to CSV —
/// an explicit --kernel-format always wins.
Kernel_format format_for_output(const Cli_options& cli, const std::string& path) {
    if (cli.kernel_format.has_value()) return *cli.kernel_format;
    return path.ends_with(".bin") ? Kernel_format::binary : Kernel_format::csv;
}

// ---------------------------------------------------------------------------
// run: single series (the historical behavior).
// ---------------------------------------------------------------------------

int run_single(const Cli_options& cli) {
    const std::string output = cli.output.empty() ? "deconvolved.csv" : cli.output;
    const Measurement_series data = series_from_table(read_csv_file(cli.input), cli.input);
    std::printf("loaded %zu measurements from %s (t = %.0f..%.0f min)\n", data.size(),
                cli.input.c_str(), data.times.front(), data.times.back());

    const Cell_cycle_config config = config_from(cli);
    const std::unique_ptr<Volume_model> volume = volume_from(cli);

    std::optional<Kernel_grid> kernel;
    if (!cli.kernel_path.empty()) {
        kernel = read_kernel_file(cli.kernel_path);
        std::printf("kernel: loaded from %s (%zu times x %zu bins)\n",
                    cli.kernel_path.c_str(), kernel->time_count(), kernel->bin_count());
    } else if (!cli.cache_dir.empty()) {
        Kernel_cache cache(cli.cache_dir, cache_limits_from(cli));
        kernel = *cache.get_or_build(config, *volume, data.times, kernel_options_from(cli));
        const Kernel_cache_stats stats = cache.stats();
        std::printf("kernel: %s via cache %s\n",
                    stats.builds > 0 ? "simulated" : "reused", cli.cache_dir.c_str());
    } else {
        kernel = build_kernel(config, *volume, data.times, kernel_options_from(cli));
        std::printf("kernel: simulated %zu cells (%s volume model)\n", cli.cells,
                    volume->name().c_str());
    }
    if (!cli.save_kernel_path.empty()) {
        write_kernel_file(cli.save_kernel_path, *kernel,
                          format_for_output(cli, cli.save_kernel_path));
        std::printf("kernel: saved to %s\n", cli.save_kernel_path.c_str());
    }

    // One shared design (kernel matrix, penalty, constraint blocks + QP
    // reduction) serves the CV sweep, the estimate and every bootstrap
    // replicate.
    Deconvolution_options options;
    options.constraints = constraints_from(cli);
    const Deconvolver deconvolver(make_design_artifacts(
        std::make_shared<Natural_spline_basis>(cli.basis), *kernel, config, options.constraints));

    if (cli.lambda.has_value()) {
        options.lambda = *cli.lambda;
        std::printf("lambda: fixed at %.3e\n", options.lambda);
    } else {
        const Lambda_selection sel = select_lambda_kfold(
            deconvolver, data, options, default_lambda_grid(15, 1e-7, 1e1), 5);
        options.lambda = sel.best_lambda;
        std::printf("lambda: %.3e (5-fold CV)\n", options.lambda);
    }

    const Single_cell_estimate estimate = deconvolver.estimate(data, options);
    std::printf("fit: chi^2=%.3f over %zu points, roughness=%.3f, %zu active "
                "positivity rows\n",
                estimate.chi_squared, data.size(), estimate.roughness,
                estimate.active_constraints);

    const Vector grid = linspace(0.0, 1.0, 201);
    Series_writer writer("phi", grid);
    writer.add("f", estimate.sample(grid));
    if (cli.bootstrap > 0) {
        Worker_pool pool(cli.threads);
        const Confidence_band band = bootstrap_confidence_band(
            deconvolver, data, options, grid, bootstrap_options_from(cli), pool);
        writer.add("f_lower90", band.lower)
            .add("f_median", band.median)
            .add("f_upper90", band.upper);
        std::printf("bootstrap: %zu replicates, mean 90%% band width %.3f\n",
                    band.replicates_used, band.mean_width());
    }
    writer.write(output);
    std::printf("wrote %s\n", output.c_str());
    return 0;
}

// ---------------------------------------------------------------------------
// run: multi-condition experiment through the experiment runner.
// ---------------------------------------------------------------------------

int run_experiment_mode(const Cli_options& cli) {
    Experiment_spec spec;
    spec.kernel = kernel_options_from(cli);
    spec.basis_size = cli.basis;
    spec.threads = cli.threads;
    spec.warm_start_lambda = cli.warm_start;
    spec.batch.deconvolution.constraints = constraints_from(cli);
    spec.batch.lambda_grid = default_lambda_grid(15, 1e-7, 1e1);
    if (cli.lambda.has_value()) {
        spec.batch.select_lambda = false;
        spec.batch.deconvolution.lambda = *cli.lambda;
    }

    for (const Condition_request& request : cli.conditions) {
        Experiment_condition condition;
        condition.name = request.name;
        condition.cell_cycle = config_from(cli);
        if (request.mu_sst.has_value()) condition.cell_cycle.mu_sst = *request.mu_sst;
        if (request.cycle_minutes.has_value()) {
            condition.cell_cycle.mean_cycle_minutes = *request.cycle_minutes;
        }
        condition.panel = panel_from_table(read_csv_file(request.panel_path));
        std::printf("condition %-12s: %zu genes x %zu timepoints from %s\n",
                    condition.name.c_str(), condition.panel.size(),
                    condition.panel.front().size(), request.panel_path.c_str());
        spec.conditions.push_back(std::move(condition));
    }

    // Shard-tag the metrics stream even for the 1-shard case, so merged
    // dashboards always know which process a snapshot came from.
    telemetry::gauge("experiment.shard_count").set(static_cast<double>(cli.shards));
    telemetry::gauge("experiment.shard_index").set(static_cast<double>(cli.shard_index));
    if (cli.shards > 1) {
        spec = shard_experiment(spec, cli.shards, cli.shard_index);
        std::size_t kept = 0;
        for (const Experiment_condition& condition : spec.conditions) {
            kept += condition.panel.size();
        }
        std::printf("shard %zu of %zu: %zu genes across %zu conditions\n", cli.shard_index,
                    cli.shards, kept, spec.conditions.size());
        if (spec.conditions.empty()) {
            std::printf("shard %zu holds no genes; nothing to do\n", cli.shard_index);
            return 0;
        }
    }

    const std::unique_ptr<Volume_model> volume = volume_from(cli);
    std::unique_ptr<Kernel_cache> cache;
    if (!cli.cache_dir.empty()) {
        cache = std::make_unique<Kernel_cache>(cli.cache_dir, cache_limits_from(cli));
    } else {
        cache = std::make_unique<Kernel_cache>();
    }

    const Experiment_result result = run_experiment(spec, *volume, *cache);
    std::printf("kernels: %zu simulated, %zu from disk, %zu from memory%s%s\n",
                result.cache_stats.builds, result.cache_stats.disk_hits,
                result.cache_stats.memory_hits, cli.cache_dir.empty() ? "" : " via ",
                cli.cache_dir.c_str());
    if (result.cache_stats.evictions > 0 || result.cache_stats.migrations > 0) {
        std::printf("kernels: %zu LRU evictions, %zu legacy entries migrated to binary\n",
                    result.cache_stats.evictions, result.cache_stats.migrations);
    }

    const Vector grid = linspace(0.0, 1.0, 201);
    const std::string stem =
        output_stem(cli.output.empty() ? "deconvolved.csv" : cli.output);
    int failures = 0;
    for (const Condition_result& condition : result.conditions) {
        std::printf("condition %-12s: mean order parameter %.3f, mean entropy %.3f\n",
                    condition.name.c_str(), condition.mean_order_parameter,
                    condition.mean_entropy);
        std::printf("  %-16s %-10s %-8s %-8s %-8s\n", "gene", "lambda", "order", "entropy",
                    "peak");
        Series_writer writer("phi", grid);
        std::vector<std::pair<std::string, double>> lambdas;
        auto scores = condition.synchrony.begin();
        for (const Batch_entry& gene : condition.genes) {
            if (!gene.estimate.has_value()) {
                ++failures;
                std::printf("  %-16s FAILED: %s\n", gene.label.c_str(), gene.error.c_str());
                continue;
            }
            writer.add(gene.label, gene.estimate->sample(grid));
            lambdas.emplace_back(gene.label, gene.lambda);
            if (scores != condition.synchrony.end() && scores->label == gene.label) {
                std::printf("  %-16s %-10.3e %-8.3f %-8.3f %-8.3f\n", gene.label.c_str(),
                            gene.lambda, scores->order_parameter, scores->entropy,
                            scores->peak_phi);
                ++scores;
            } else {
                std::printf("  %-16s %-10.3e (no positive mass)\n", gene.label.c_str(),
                            gene.lambda);
            }
        }
        std::string path = stem + "." + condition.name;
        if (cli.shards > 1) {
            path += ".shard" + std::to_string(cli.shard_index) + "of" +
                    std::to_string(cli.shards);
        }
        path += ".csv";
        write_profiles_with_lambdas(path, writer.table(), lambdas);
        std::printf("  wrote %s\n", path.c_str());
    }
    return failures == 0 ? 0 : 1;
}

int cmd_run(const Cli_options& cli) {
    if (!cli.input.empty() && !cli.conditions.empty()) {
        usage_error("use either --input (single series) or --condition (experiment)");
    }
    if (cli.input.empty() && cli.conditions.empty()) {
        usage_error("run needs --input data.csv or --condition NAME=panel.csv");
    }
    if (!cli.conditions.empty() && cli.bootstrap > 0) {
        usage_error("--bootstrap applies to single-series runs only");
    }
    if (cli.shards == 0) usage_error("--shards must be >= 1");
    if (cli.shard_index >= cli.shards) {
        usage_error("--shard-index must be < --shards");
    }
    if (cli.shards > 1 && cli.conditions.empty()) {
        usage_error("--shards applies to experiment runs (--condition)");
    }
    if (!cli.warm_start && cli.conditions.empty()) {
        usage_error("--no-warm-start applies to experiment runs (--condition)");
    }
    if (!cli.conditions.empty() &&
        (!cli.kernel_path.empty() || !cli.save_kernel_path.empty())) {
        // Experiment kernels go through the cache; silently discarding a
        // user-supplied kernel file would re-simulate behind their back.
        usage_error("--kernel/--save-kernel apply to single-series runs only; "
                    "use --cache-dir for experiments");
    }
    for (std::size_t a = 0; a < cli.conditions.size(); ++a) {
        for (std::size_t b = a + 1; b < cli.conditions.size(); ++b) {
            if (cli.conditions[a].name == cli.conditions[b].name) {
                usage_error("duplicate condition name '" + cli.conditions[a].name +
                            "' (their output CSVs would overwrite each other)");
            }
        }
    }
    return cli.conditions.empty() ? run_single(cli) : run_experiment_mode(cli);
}

// ---------------------------------------------------------------------------
// stream: incremental deconvolution of an append-only record log
// ---------------------------------------------------------------------------

int cmd_stream(const Cli_options& cli) {
    if (cli.input.empty()) {
        usage_error("stream needs --input records.csv (append-only "
                    "time,gene,value[,sigma] log)");
    }
    if (cli.bootstrap > 0) usage_error("--bootstrap applies to single-series runs only");
    if (cli.shards > 1) usage_error("--shards applies to experiment runs (--condition)");
    if (!cli.warm_start) usage_error("--no-warm-start applies to experiment runs (--condition)");
    if (!cli.kernel_path.empty() || !cli.save_kernel_path.empty()) {
        // Streaming kernels go through the cache; silently re-simulating
        // past a user-supplied kernel file would mislead.
        usage_error("--kernel/--save-kernel apply to single-series runs only; "
                    "use --cache-dir for streaming");
    }
    const Vector times = resolve_times(cli);

    Stream_session_options session_options;
    session_options.basis_size = cli.basis;
    session_options.threads = cli.threads;
    session_options.constraints = constraints_from(cli);
    session_options.kernel = kernel_options_from(cli);
    session_options.stream.lambda = cli.lambda.value_or(1e-3);
    session_options.stream.convergence = cli.convergence;

    const std::unique_ptr<Volume_model> volume = volume_from(cli);
    std::unique_ptr<Kernel_cache> cache;
    if (!cli.cache_dir.empty()) {
        cache = std::make_unique<Kernel_cache>(cli.cache_dir, cache_limits_from(cli));
    } else {
        cache = std::make_unique<Kernel_cache>();
    }
    Stream_session session(config_from(cli), *volume, times, *cache, session_options);
    const Kernel_cache_stats cache_stats = cache->stats();
    std::printf("session: %zu-point grid (t = %.0f..%.0f min), kernel %s, lambda %.3e, "
                "%zu worker threads\n",
                times.size(), times.front(), times.back(),
                cache_stats.builds > 0 ? "simulated" : "from cache",
                session_options.stream.lambda, session.thread_count());

    std::ifstream in(cli.input);
    if (!in) {
        std::fprintf(stderr, "cellsync_deconvolve: cannot open '%s'\n", cli.input.c_str());
        return 1;
    }
    Record_stream records(in);

    int failures = 0;
    bool stopped_early = false;
    std::size_t timepoints = 0;
    for (;;) {
        const std::vector<Expression_record> batch = records.next_timepoint();
        if (batch.empty()) break;
        const double t = batch.front().time;
        std::vector<Stream_record> updates_in;
        updates_in.reserve(batch.size());
        for (const Expression_record& record : batch) {
            updates_in.push_back({record.gene, record.value, record.sigma});
        }
        const std::vector<Stream_update> updates = session.append_timepoint(t, updates_in);
        ++timepoints;

        double max_delta = 0.0;
        std::size_t converged = 0;
        for (const Stream_update& update : updates) {
            if (!update.error.empty()) {
                ++failures;
                std::printf("  t=%-6.0f %s\n", t, update.error.c_str());
                continue;
            }
            max_delta = std::max(max_delta, update.coefficient_delta);
            if (update.converged) ++converged;
        }
        std::printf("t=%-6.0f %zu genes updated, %zu/%zu converged, max coef delta %.3e\n",
                    t, updates.size(), converged, updates.size(),
                    max_delta);
        if (cli.stop_when_converged && session.all_converged()) {
            stopped_early = true;
            break;
        }
    }
    if (timepoints == 0) {
        std::fprintf(stderr, "cellsync_deconvolve: '%s' holds no records\n",
                     cli.input.c_str());
        return 1;
    }
    const Stream_solve_stats solve_stats = session.total_stats();
    std::printf("%s after %zu timepoints (%zu records): %zu updates\n",
                stopped_early ? "stopped early (all genes converged)" : "stream drained",
                timepoints, records.record_count(), solve_stats.updates);

    // Final per-gene summary + profile CSV (lambda comments included, so
    // `report --json` can carry the smoothness weight forward).
    const Vector grid = linspace(0.0, 1.0, 201);
    Series_writer writer("phi", grid);
    std::vector<std::pair<std::string, double>> lambdas;
    std::printf("  %-16s %-9s %-10s %-8s %-10s\n", "gene", "observed", "converged",
                "order", "lambda");
    for (const std::string& label : session.labels()) {
        const Streaming_deconvolver& stream = *session.find_stream(label);
        if (!stream.has_estimate()) continue;
        std::printf("  %-16s %zu/%-7zu %-10s %-8.3f %-10.3e\n", label.c_str(),
                    stream.observed(), times.size(), stream.converged() ? "yes" : "no",
                    stream.order_parameter(), stream.options().lambda);
        writer.add(label, stream.current().sample(grid));
        lambdas.emplace_back(label, stream.options().lambda);
    }
    const std::string output = cli.output.empty() ? "streamed.csv" : cli.output;
    if (!lambdas.empty()) {
        write_profiles_with_lambdas(output, writer.table(), lambdas);
        std::printf("wrote %s\n", output.c_str());
    }
    return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// kernel build / kernel cache
// ---------------------------------------------------------------------------

int cmd_kernel_build(const Cli_options& cli) {
    if (cli.output.empty()) usage_error("kernel build needs --output PATH");
    const Vector times = resolve_times(cli);
    const std::unique_ptr<Volume_model> volume = volume_from(cli);
    const Kernel_grid kernel =
        build_kernel(config_from(cli), *volume, times, kernel_options_from(cli));
    const Kernel_format format = format_for_output(cli, cli.output);
    write_kernel_file(cli.output, kernel, format);
    std::printf("simulated %zu cells -> %zu times x %zu bins, wrote %s (%s)\n", cli.cells,
                kernel.time_count(), kernel.bin_count(), cli.output.c_str(),
                to_string(format));
    return 0;
}

int cmd_kernel_convert(const Cli_options& cli) {
    if (cli.input.empty() || cli.output.empty()) {
        usage_error("kernel convert needs --input PATH and --output PATH");
    }
    Kernel_format from = Kernel_format::csv;
    const Kernel_grid kernel = read_kernel_file(cli.input, &from);
    // Output format precedence: explicit --kernel-format, then a telling
    // output extension (so `convert a.bin b.csv` re-encodes csv->csv if
    // asked), and only with neither does convert mean "the other format".
    Kernel_format to;
    if (cli.kernel_format.has_value()) {
        to = *cli.kernel_format;
    } else if (cli.output.ends_with(".bin")) {
        to = Kernel_format::binary;
    } else if (cli.output.ends_with(".csv")) {
        to = Kernel_format::csv;
    } else {
        to = from == Kernel_format::csv ? Kernel_format::binary : Kernel_format::csv;
    }
    write_kernel_file(cli.output, kernel, to);
    const auto bytes = [](const std::string& path) {
        std::error_code ec;
        const auto size = std::filesystem::file_size(path, ec);
        return ec ? 0.0 : static_cast<double>(size);
    };
    const double in_bytes = bytes(cli.input), out_bytes = bytes(cli.output);
    std::printf("%s (%s, %.1f KiB) -> %s (%s, %.1f KiB)", cli.input.c_str(),
                to_string(from), in_bytes / 1024.0, cli.output.c_str(), to_string(to),
                out_bytes / 1024.0);
    if (in_bytes > 0 && out_bytes > 0) {
        std::printf(out_bytes < in_bytes ? " — %.1fx smaller" : " — %.1fx larger",
                    out_bytes < in_bytes ? in_bytes / out_bytes : out_bytes / in_bytes);
    }
    std::printf("\n%zu times x %zu bins, grid preserved bit-exactly\n",
                kernel.time_count(), kernel.bin_count());
    return 0;
}

void print_manifest(const Kernel_cache& cache) {
    const Kernel_cache_manifest manifest = cache.manifest();
    if (manifest.max_bytes > 0) {
        std::printf("manifest: %zu entries, %.1f KiB of %.1f KiB cap\n",
                    manifest.entries.size(),
                    static_cast<double>(manifest.total_bytes) / 1024.0,
                    static_cast<double>(manifest.max_bytes) / 1024.0);
    } else {
        std::printf("manifest: %zu entries, %.1f KiB (no size cap)\n",
                    manifest.entries.size(),
                    static_cast<double>(manifest.total_bytes) / 1024.0);
    }
    std::printf("  %-18s %10s %8s  %s\n", "entry", "bytes", "last-use", "provenance");
    for (const Kernel_cache_entry_info& entry : manifest.entries) {
        std::string provenance = entry.key;
        if (const auto times = provenance.find("times="); times != std::string::npos) {
            provenance = provenance.substr(0, times) + "times=...";
        }
        std::printf("  %-18s %10llu %8llu  %s\n", entry.hash.c_str(),
                    static_cast<unsigned long long>(entry.bytes),
                    static_cast<unsigned long long>(entry.last_use), provenance.c_str());
    }
}

/// Machine-readable counterpart of `print_manifest` for `kernel cache
/// --json`: the manifest plus the full `Kernel_cache_stats` counters
/// (including the eviction/migration totals the text output only shows
/// when nonzero).
void write_cache_json(const std::string& json_path, const Kernel_cache& cache) {
    const Kernel_cache_manifest manifest = cache.manifest();
    const Kernel_cache_stats stats = cache.stats();
    std::ofstream out(json_path);
    if (!out) throw std::runtime_error("cannot open '" + json_path + "' for writing");
    out << "{\n  \"schema\": \"cellsync-cache-v1\",\n  \"stats\": {";
    out << "\"memory_hits\": " << stats.memory_hits;
    out << ", \"disk_hits\": " << stats.disk_hits;
    out << ", \"builds\": " << stats.builds;
    out << ", \"evictions\": " << stats.evictions;
    out << ", \"migrations\": " << stats.migrations;
    out << "},\n  \"manifest\": {\"total_bytes\": " << manifest.total_bytes;
    out << ", \"max_bytes\": " << manifest.max_bytes;
    out << ", \"entries\": [";
    for (std::size_t e = 0; e < manifest.entries.size(); ++e) {
        const Kernel_cache_entry_info& entry = manifest.entries[e];
        out << (e ? ",\n    {" : "\n    {");
        out << "\"hash\": \"" << json_escape(entry.hash) << "\"";
        out << ", \"bytes\": " << entry.bytes;
        out << ", \"last_use\": " << entry.last_use;
        out << ", \"key\": \"" << json_escape(entry.key) << "\"}";
    }
    out << "\n  ]}\n}\n";
    if (!out) throw std::runtime_error("write failed for '" + json_path + "'");
}

int cmd_kernel_cache(const Cli_options& cli) {
    if (cli.cache_dir.empty()) usage_error("kernel cache needs --cache-dir DIR");
    Kernel_cache cache(cli.cache_dir, cache_limits_from(cli));
    if (cli.times_spec.empty() && cli.times_from.empty()) {
        // Stats-only mode: inspect the cache without touching any entry.
        print_manifest(cache);
        if (!cli.json_path.empty()) {
            write_cache_json(cli.json_path, cache);
            std::printf("wrote %s\n", cli.json_path.c_str());
        }
        return 0;
    }
    const Vector times = resolve_times(cli);
    const std::unique_ptr<Volume_model> volume = volume_from(cli);
    const auto kernel =
        cache.get_or_build(config_from(cli), *volume, times, kernel_options_from(cli));
    const Kernel_cache_stats stats = cache.stats();
    const char* source = stats.builds > 0 ? "simulated (cache miss)" : "reused from disk";
    std::printf("%s: %zu times x %zu bins in %s", source, kernel->time_count(),
                kernel->bin_count(), cli.cache_dir.c_str());
    if (stats.evictions > 0) std::printf(" (%zu LRU evictions)", stats.evictions);
    if (stats.migrations > 0) {
        std::printf(" (%zu legacy entries migrated to binary)", stats.migrations);
    }
    std::printf("\n");
    print_manifest(cache);
    if (!cli.json_path.empty()) {
        write_cache_json(cli.json_path, cache);
        std::printf("wrote %s\n", cli.json_path.c_str());
    }
    return 0;
}

// ---------------------------------------------------------------------------
// report: synchrony scores for saved profile CSVs
// ---------------------------------------------------------------------------

/// One profile's scores, as shared by the text and JSON report outputs.
struct Profile_report {
    std::string name;
    bool positive_mass = false;
    double order_parameter = 0.0;
    double entropy = 0.0;
    double peak_phi = 0.0;
    std::optional<double> lambda;  ///< from the CSV's `# lambda:` comments
};

/// The `# lambda:<gene>=<value>` comment lines written by `run` and
/// `stream` profile CSVs (absent in hand-made files — lambda is then
/// simply omitted from the JSON).
std::vector<std::pair<std::string, double>> read_lambda_comments(const std::string& path) {
    std::vector<std::pair<std::string, double>> lambdas;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        constexpr const char* prefix = "# lambda:";
        if (line.rfind(prefix, 0) != 0) continue;
        const std::string body = line.substr(std::strlen(prefix));
        // Split at the last '=': the label may contain one, the %.17g
        // value never does.
        const auto eq = body.rfind('=');
        if (eq == std::string::npos || eq == 0) continue;
        try {
            lambdas.emplace_back(body.substr(0, eq), parse_strict_double(body.substr(eq + 1)));
        } catch (const std::exception&) {
            // malformed comment: ignore, the numeric table is unaffected
        }
    }
    return lambdas;
}

void write_json_report(
    const std::string& json_path,
    const std::vector<std::pair<std::string, std::vector<Profile_report>>>& files) {
    std::ofstream out(json_path);
    if (!out) throw std::runtime_error("cannot open '" + json_path + "' for writing");
    char buffer[48];
    out << "{\n  \"report\": [";
    for (std::size_t f = 0; f < files.size(); ++f) {
        out << (f ? ",\n    {" : "\n    {");
        out << "\"file\": \"" << json_escape(files[f].first) << "\", \"profiles\": [";
        const std::vector<Profile_report>& profiles = files[f].second;
        for (std::size_t p = 0; p < profiles.size(); ++p) {
            const Profile_report& profile = profiles[p];
            out << (p ? ",\n      {" : "\n      {");
            out << "\"name\": \"" << json_escape(profile.name) << "\"";
            out << ", \"positive_mass\": " << (profile.positive_mass ? "true" : "false");
            if (profile.positive_mass) {
                std::snprintf(buffer, sizeof(buffer), "%.12g", profile.order_parameter);
                out << ", \"order_parameter\": " << buffer;
                std::snprintf(buffer, sizeof(buffer), "%.12g", profile.entropy);
                out << ", \"entropy\": " << buffer;
                std::snprintf(buffer, sizeof(buffer), "%.12g", profile.peak_phi);
                out << ", \"peak_phi\": " << buffer;
            }
            if (profile.lambda.has_value()) {
                std::snprintf(buffer, sizeof(buffer), "%.17g", *profile.lambda);
                out << ", \"lambda\": " << buffer;
            }
            out << "}";
        }
        out << "\n    ]}";
    }
    out << "\n  ]\n}\n";
    if (!out) throw std::runtime_error("write failed for '" + json_path + "'");
}

int cmd_report(const Cli_options& cli, const std::vector<std::string>& inputs) {
    if (inputs.empty() && cli.input.empty()) {
        usage_error("report needs profile CSVs (--input or positional paths)");
    }
    std::vector<std::string> paths = inputs;
    if (!cli.input.empty()) paths.insert(paths.begin(), cli.input);
    std::vector<std::pair<std::string, std::vector<Profile_report>>> json_files;
    for (const std::string& path : paths) {
        const Table table = read_csv_file(path);
        if (!table.has_column("phi")) {
            std::fprintf(stderr, "report: %s has no 'phi' column, skipping\n", path.c_str());
            continue;
        }
        Vector phi = table.column("phi");
        // Profile CSVs are written on the closed 0..1 grid; phi = 0 and 1
        // are the same circular angle, so drop the duplicate before
        // scoring — this makes report reproduce exactly the scores `run`
        // printed for the same profile.
        const bool closed_grid =
            phi.size() > 2 && phi.front() == 0.0 && phi.back() == 1.0;
        if (closed_grid) phi.pop_back();
        const std::vector<std::pair<std::string, double>> lambdas =
            read_lambda_comments(path);
        std::vector<Profile_report> profiles;
        std::printf("%s\n  %-16s %-8s %-8s %-8s\n", path.c_str(), "profile", "order",
                    "entropy", "peak");
        for (std::size_t c = 0; c < table.column_count(); ++c) {
            const std::string& name = table.names()[c];
            if (name == "phi") continue;
            Vector values = table.column(c);
            if (closed_grid) values.pop_back();
            Profile_report profile;
            profile.name = name;
            for (const auto& [gene, lambda] : lambdas) {
                if (gene == name) profile.lambda = lambda;
            }
            try {
                profile.order_parameter = profile_order_parameter(phi, values);
                profile.entropy = profile_entropy(values);
                profile.positive_mass = true;
                std::size_t peak = 0;
                for (std::size_t i = 1; i < values.size(); ++i) {
                    if (values[i] > values[peak]) peak = i;
                }
                profile.peak_phi = phi[peak];
                std::printf("  %-16s %-8.3f %-8.3f %-8.3f\n", name.c_str(),
                            profile.order_parameter, profile.entropy, profile.peak_phi);
            } catch (const std::invalid_argument&) {
                std::printf("  %-16s (no positive mass)\n", name.c_str());
            }
            profiles.push_back(std::move(profile));
        }
        json_files.emplace_back(path, std::move(profiles));
    }
    if (!cli.json_path.empty()) {
        write_json_report(cli.json_path, json_files);
        std::printf("wrote %s\n", cli.json_path.c_str());
    }
    return 0;
}

// ---------------------------------------------------------------------------
// merge-results: combine per-shard profile CSVs of one condition
// ---------------------------------------------------------------------------

int cmd_merge_results(const Cli_options& cli, const std::vector<std::string>& inputs) {
    std::vector<std::string> paths = inputs;
    if (!cli.input.empty()) paths.insert(paths.begin(), cli.input);
    if (paths.empty()) {
        usage_error("merge-results needs per-shard profile CSVs (positional paths)");
    }
    // A single path is the identity merge — legitimate when a condition's
    // genes all hashed into one shard — so launchers can always pass
    // whatever shard files exist without special-casing.
    if (cli.output.empty()) usage_error("merge-results needs --output PATH");

    // The shard CSVs round-trip doubles exactly (written at full
    // precision), so the merged per-gene columns are bit-identical to an
    // unsharded run's; only the column order differs (shard-file order).
    std::optional<Series_writer> writer;
    std::vector<std::pair<std::string, double>> lambdas;
    std::size_t genes = 0;
    for (const std::string& path : paths) {
        const Table table = read_csv_file(path);
        if (!table.has_column("phi")) {
            usage_error("merge-results: '" + path + "' has no 'phi' column");
        }
        const Vector phi = table.column("phi");
        if (!writer) {
            writer.emplace("phi", phi);
        } else if (writer->table().column(0) != phi) {
            usage_error("merge-results: '" + path +
                        "' is on a different phi grid than the first shard");
        }
        for (std::size_t c = 0; c < table.column_count(); ++c) {
            const std::string& name = table.names()[c];
            if (name == "phi") continue;
            if (writer->table().has_column(name)) {
                usage_error("merge-results: profile '" + name + "' appears in '" + path +
                            "' and an earlier shard (shards must be disjoint)");
            }
            writer->add(name, table.column(c));
            ++genes;
        }
        for (const auto& lambda : read_lambda_comments(path)) lambdas.push_back(lambda);
    }
    write_profiles_with_lambdas(cli.output, writer->table(), lambdas);
    std::printf("merged %zu profiles from %zu shards into %s\n", genes, paths.size(),
                cli.output.c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage_error("missing subcommand (run, stream, kernel build, kernel cache, report, "
                    "merge-results)");
    }
    const std::string command = argv[1];
    std::string mode;  // kernel build | cache | convert
    int first = 2;
    // Positional profile CSVs are allowed after `report` and `merge-results`.
    std::vector<std::string> inputs;
    if (command == "kernel") {
        if (argc < 3) usage_error("kernel needs a mode: build, cache, or convert");
        mode = argv[2];
        if (mode != "build" && mode != "cache" && mode != "convert") {
            usage_error("unknown kernel mode '" + mode + "' (build, cache, or convert)");
        }
        first = 3;
    } else if (command == "report" || command == "merge-results") {
        for (; first < argc && argv[first][0] != '-'; ++first) inputs.emplace_back(argv[first]);
    } else if (command != "run" && command != "stream") {
        usage_error("unknown subcommand '" + command + "'");
    }
    try {
        const Cli_options cli = parse_args(argc, argv, first);
        Telemetry_session telemetry_session(cli);
        int status = 0;
        if (command == "run") status = cmd_run(cli);
        else if (command == "stream") status = cmd_stream(cli);
        else if (command == "report") status = cmd_report(cli, inputs);
        else if (command == "merge-results") status = cmd_merge_results(cli, inputs);
        else if (mode == "build") status = cmd_kernel_build(cli);
        else if (mode == "cache") status = cmd_kernel_cache(cli);
        else status = cmd_kernel_convert(cli);
        telemetry_session.finish();
        return status;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cellsync_deconvolve: error: %s\n", e.what());
        return 1;
    }
}

// Command-line deconvolution suite.
//
//   cellsync_deconvolve <subcommand> [options]
//
// Subcommands:
//
//   run      Deconvolve measurements. Two modes, one per-gene call
//            (deconvolve_one: 5-fold CV over 15 lambdas on 1e-7..1e1,
//            or a fixed --lambda, then the constrained estimate):
//            * single series:  --input data.csv  (columns time, value,
//              optional sigma); writes the profile CSV (column `f`,
//              its lambda in a `# lambda:f=` line), plus a bootstrap
//              band with --bootstrap.
//            * experiment:     --condition NAME=panel.csv[,mu_sst=X]
//              [,cycle_minutes=Y] repeated once per condition. Each panel
//              CSV is wide format: a `time` column plus one column per
//              gene, optionally paired with `<gene>_sigma`. All
//              (condition x gene) solves share kernels through the cache
//              and one design per kernel, a condition's genes in parallel,
//              each task also sampling and scoring its gene's profile;
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
//            (--times or --times-from) because the kernel is computed
//            for the whole protocol. The final profile CSV matches a
//            batch `run` with the same fixed --lambda bit for bit.
//   kernel   build: compute a kernel and write it to --output in the
//            one kernel file format, cellsync-kernel-bin-v1, whatever
//            the path's extension.
//            cache: resolve a kernel through --cache-dir (build on miss,
//            reuse on hit) — use it to pre-warm a cache shared by later
//            runs — then list the directory's entries (hash, bytes,
//            provenance). Without --times/--times-from, just lists an
//            existing directory (a missing one is an error).
//   report   Recompute synchrony scores (order parameter, entropy, peak
//            phase) for profile CSVs produced by `run` / `stream`;
//            --json PATH additionally writes a machine-readable report
//            (per-gene scores plus the lambda recorded in the profile
//            CSV's `# lambda:` comments).
//
// Every profile CSV of `run` and `stream` is sampled on 201 phase points
// and starts with one `# lambda:<gene>=<value>` line per gene. One command
// uses one worker pool (--threads): a table of more than about 4,096
// values is formatted in row blocks on it, the blocks of all of `run`'s
// tables in one batch, before the files are written in order; the bytes
// are those of write_csv.
//
// Every rejected input file (CSV, panel, record log, kernel) is named in
// the error, exit 1.
//
// Common options:
//   --output PATH       profile CSV / kernel file destination
//   --cache-dir DIR     disk-backed kernel cache (run, stream, kernel cache);
//                       processes may share one directory, and on a
//                       read-only one misses stay in memory
//   --kernel PATH       reuse a saved kernel file (single-series run)
//   --save-kernel PATH  persist the computed kernel (single-series run)
//   --bins N            kernel phase bins (at most 2^27 kernel values,
//                       times x bins; default 200). The kernel is
//                       computed, not sampled: there is no cell count or
//                       seed, and a time grid may span at most 256 mean
//                       cycle times
//   --basis N           spline knots Nc, 4..512     (default 18)
//   --lambda X          fixed smoothness weight >= 0 (default: 5-fold CV
//                       for run; 1e-3 for stream)
//   --mu-sst X --cycle-minutes X    organism model defaults
//   --linear-volume     use the 2009 linear volume model
//   --no-positivity / --no-conservation / --no-rate-continuity
//   --bootstrap N       confidence band from N >= 10 replicates, 0 = none
//                       (single-series run only)
//   --threads N         worker threads, at most 1024 (default: hardware)
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
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <fstream>

#include "core/bootstrap.h"
#include "core/batch.h"
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
    std::string times_spec;
    std::string times_from;
    std::size_t bins = 200;
    std::size_t basis = 18;
    std::optional<double> lambda;
    double mu_sst = 0.15;
    double cycle_minutes = 150.0;
    bool linear_volume = false;
    bool positivity = true;
    bool conservation = true;
    bool rate_continuity = true;
    std::size_t bootstrap = 0;
    std::size_t threads = 0;
    std::string json_path;                ///< report / kernel cache --json destination
    std::string trace_path;               ///< --trace Chrome-trace destination
    std::string metrics_json_path;        ///< --metrics-json snapshot destination
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
            else if (arg == "--times") options.times_spec = next_value(i);
            else if (arg == "--times-from") options.times_from = next_value(i);
            else if (arg == "--bins") options.bins = parse_strict_uint64(next_value(i));
            else if (arg == "--basis") {
                options.basis = parse_strict_uint64(next_value(i));
                Natural_spline_basis::validate_knot_count(options.basis);
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
            else if (arg == "--bootstrap") {
                options.bootstrap = parse_strict_uint64(next_value(i));
                if (options.bootstrap > 0) bootstrap_options_from(options).validate();
            }
            else if (arg == "--threads") {
                options.threads = parse_strict_uint64(next_value(i));
                if (options.threads > Worker_pool::max_threads) {
                    throw std::invalid_argument(
                        "at most " + std::to_string(Worker_pool::max_threads) +
                        " threads, got " + std::to_string(options.threads));
                }
            }
            else if (arg == "--json") options.json_path = next_value(i);
            else if (arg == "--trace") options.trace_path = next_value(i);
            else if (arg == "--metrics-json") options.metrics_json_path = next_value(i);
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
    kernel_options.n_bins = cli.bins;
    return kernel_options;
}

Constraint_options constraints_from(const Cli_options& cli) {
    Constraint_options constraints;
    constraints.positivity = cli.positivity;
    constraints.conservation = cli.conservation;
    constraints.rate_continuity = cli.rate_continuity;
    return constraints;
}

/// The per-gene options of both `run` modes: the constraints, and a
/// fixed --lambda or per-gene CV. The lambda grid stays empty, so
/// resolve_batch_options fills in default_lambda_grid().
Batch_options batch_options_from(const Cli_options& cli) {
    Batch_options options;
    options.deconvolution.constraints = constraints_from(cli);
    if (cli.lambda.has_value()) {
        options.select_lambda = false;
        options.deconvolution.lambda = *cli.lambda;
    }
    return options;
}

/// Runs `read` and rethrows a rejection as `'<path>': <message>`, so the
/// error names the input file it came from.
template <typename Read>
auto naming_input(const std::string& path, Read read) {
    try {
        return read();
    } catch (const std::exception& e) {
        throw std::runtime_error("'" + path + "': " + e.what());
    }
}

/// Reads the CSV at `path` and converts its table with `convert`; a
/// rejection by the reader or the conversion names the file.
template <typename Convert>
auto read_csv_input(const std::string& path, Convert convert) {
    return naming_input(path, [&] { return convert(read_csv_file(path)); });
}

/// The --cache-dir cache, or a memory-only one without the flag.
std::unique_ptr<Kernel_cache> cache_from(const Cli_options& cli) {
    if (cli.cache_dir.empty()) return std::make_unique<Kernel_cache>();
    return std::make_unique<Kernel_cache>(cli.cache_dir);
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
            out.flush();
            if (!out) throw std::runtime_error("write failed for '" + trace_path + "'");
            std::printf("wrote trace %s\n", trace_path.c_str());
        }
        if (!metrics_path.empty()) {
            std::ofstream out(metrics_path);
            if (!out) throw std::runtime_error("cannot open '" + metrics_path + "' for writing");
            telemetry::write_metrics_json(out, telemetry::Metrics_registry::instance().snapshot());
            out.flush();
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

/// One profile CSV of `run` or `stream`: `# lambda:<gene>=<value>`
/// comment lines (skipped by the CSV reader; parsed by `report --json`),
/// so the smoothness weight each profile was estimated with travels with
/// it, then the table as write_csv writes it.
struct Profile_csv {
    std::string path;
    Table table;
    std::vector<std::pair<std::string, double>> lambdas;
    std::vector<std::string> row_blocks;  ///< the rows' text, if format_profile_csvs made it
};

/// Formats the rows of every table of more than one block
/// (csv_block_rows) before any file is written: the blocks of all of them
/// are one `format` batch on `pool`, a Worker_pool or a Stream_session. A
/// one-block table is left to write_profile_csv, on the calling thread.
template <typename Pool>
void format_profile_csvs(std::span<Profile_csv> files, Pool& pool) {
    struct Block {
        Profile_csv* file;
        std::size_t index, begin, end;
    };
    std::vector<Block> blocks;
    for (Profile_csv& file : files) {
        const std::size_t rows = file.table.row_count();
        const std::size_t step = csv_block_rows(file.table);
        if (rows <= step) continue;
        file.row_blocks.assign((rows + step - 1) / step, {});
        for (std::size_t b = 0; b < file.row_blocks.size(); ++b) {
            blocks.push_back({&file, b, b * step, std::min(rows, (b + 1) * step)});
        }
    }
    if (blocks.empty()) return;
    pool.parallel_for("format", blocks.size(), [&](std::size_t b) {
        const Block& block = blocks[b];
        append_csv_rows(block.file->row_blocks[block.index], block.file->table, block.begin,
                        block.end);
    });
}

/// Writes one profile CSV, formatting its rows here unless
/// format_profile_csvs did. Throws `cannot open '<path>' for writing`
/// or, after the flush, `write failed for '<path>'`.
void write_profile_csv(const Profile_csv& file) {
    const telemetry::Trace_span span("io.write", "io");
    std::ofstream out(file.path);
    if (!out) throw std::runtime_error("cannot open '" + file.path + "' for writing");
    for (const auto& [gene, lambda] : file.lambdas) {
        char buffer[48];
        std::snprintf(buffer, sizeof(buffer), "%.17g", lambda);
        out << "# lambda:" << gene << "=" << buffer << "\n";
    }
    out << csv_header(file.table);
    if (file.row_blocks.empty()) {
        std::string rows;
        append_csv_rows(rows, file.table, 0, file.table.row_count());
        out << rows;
    }
    for (const std::string& block : file.row_blocks) out << block;
    out.flush();
    if (!out) throw std::runtime_error("write failed for '" + file.path + "'");
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
        return read_csv_input(cli.times_from, [&](const Table& table) {
            if (!table.has_column("time")) {
                usage_error("--times-from file '" + cli.times_from + "' has no 'time' column");
            }
            return table.column("time");
        });
    }
    usage_error("a time grid is required: --times LO:HI:COUNT or --times-from data.csv");
}

std::string output_stem(const std::string& output) {
    const auto dot = output.rfind(".csv");
    return dot == output.size() - 4 ? output.substr(0, dot) : output;
}

// ---------------------------------------------------------------------------
// run: single series, one deconvolve_one call plus the optional bootstrap.
// ---------------------------------------------------------------------------

int run_single(const Cli_options& cli) {
    const std::string output = cli.output.empty() ? "deconvolved.csv" : cli.output;
    const Measurement_series data = read_csv_input(
        cli.input, [&](const Table& table) { return series_from_table(table, cli.input); });
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
        Kernel_cache cache(cli.cache_dir);
        kernel = *cache.get_or_build(config, *volume, data.times, kernel_options_from(cli));
        const Kernel_cache_stats stats = cache.stats();
        std::printf("kernel: %s via cache %s\n",
                    stats.builds > 0 ? "computed" : "reused", cli.cache_dir.c_str());
    } else {
        kernel = build_kernel(config, *volume, data.times, kernel_options_from(cli));
        std::printf("kernel: computed %zu times x %zu bins (%s volume model)\n",
                    kernel->time_count(), kernel->bin_count(), volume->name().c_str());
    }
    if (!cli.save_kernel_path.empty()) {
        write_kernel_file(cli.save_kernel_path, *kernel);
        std::printf("kernel: saved to %s\n", cli.save_kernel_path.c_str());
    }

    // One shared design (kernel matrix, penalty, constraint blocks + QP
    // reduction) serves the CV sweep, the estimate and every bootstrap
    // replicate. A failed estimate carries the gene-labeled error.
    Batch_options options = batch_options_from(cli);
    const Deconvolver deconvolver(
        make_design_artifacts(std::make_shared<Natural_spline_basis>(cli.basis), *kernel,
                              config, options.deconvolution.constraints));
    options = resolve_batch_options(*deconvolver.artifacts(), options);
    const Batch_entry entry = deconvolve_one(deconvolver, data, options.lambda_grid, options);
    if (!entry.estimate.has_value()) throw std::runtime_error(entry.error);
    if (options.select_lambda) {
        std::printf("lambda: %.3e (5-fold CV)\n", entry.lambda);
    } else {
        std::printf("lambda: fixed at %.3e\n", entry.lambda);
    }

    const Single_cell_estimate& estimate = *entry.estimate;
    std::printf("fit: chi^2=%.3f over %zu points, roughness=%.3f, %zu active "
                "positivity rows\n",
                estimate.chi_squared, data.size(), estimate.roughness,
                estimate.active_constraints);

    const Vector grid = experiment_output_phi();
    Series_writer writer("phi", grid);
    writer.add("f", estimate.sample(grid));
    if (cli.bootstrap > 0) {
        options.deconvolution.lambda = entry.lambda;
        Worker_pool pool(cli.threads);
        const Confidence_band band = bootstrap_confidence_band(
            deconvolver, data, options.deconvolution, grid, bootstrap_options_from(cli), pool);
        writer.add("f_lower90", band.lower)
            .add("f_median", band.median)
            .add("f_upper90", band.upper);
        std::printf("bootstrap: %zu replicates, mean 90%% band width %.3f\n",
                    band.replicates_used, band.mean_width());
    }
    // At most five columns: one block, formatted on this thread.
    write_profile_csv({output, writer.table(), {{"f", entry.lambda}}, {}});
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
    spec.batch = batch_options_from(cli);

    for (const Condition_request& request : cli.conditions) {
        Experiment_condition condition;
        condition.name = request.name;
        condition.cell_cycle = config_from(cli);
        if (request.mu_sst.has_value()) condition.cell_cycle.mu_sst = *request.mu_sst;
        if (request.cycle_minutes.has_value()) {
            condition.cell_cycle.mean_cycle_minutes = *request.cycle_minutes;
        }
        condition.panel = read_csv_input(request.panel_path, panel_from_table);
        std::printf("condition %-12s: %zu genes x %zu timepoints from %s\n",
                    condition.name.c_str(), condition.panel.size(),
                    condition.panel.front().size(), request.panel_path.c_str());
        spec.conditions.push_back(std::move(condition));
    }

    const std::unique_ptr<Volume_model> volume = volume_from(cli);
    const std::unique_ptr<Kernel_cache> cache = cache_from(cli);

    // One pool runs the experiment's batches and formats its output.
    Worker_pool pool(cli.threads);
    Experiment_result result = run_experiment(spec, *volume, *cache, pool);
    std::printf("kernels: %zu computed, %zu from disk, %zu from memory%s%s\n",
                result.cache_stats.builds, result.cache_stats.disk_hits,
                result.cache_stats.memory_hits, cli.cache_dir.empty() ? "" : " via ",
                cli.cache_dir.c_str());

    // One CSV per condition of the profiles the runner sampled, all of
    // them formatted before the first is written.
    const std::string stem =
        output_stem(cli.output.empty() ? "deconvolved.csv" : cli.output);
    std::vector<Profile_csv> files(result.conditions.size());
    for (std::size_t c = 0; c < files.size(); ++c) {
        Condition_result& condition = result.conditions[c];
        Profile_csv& file = files[c];
        file.path = stem + "." + condition.name + ".csv";
        file.table.add_column("phi", experiment_output_phi());
        for (std::size_t g = 0; g < condition.genes.size(); ++g) {
            const Batch_entry& gene = condition.genes[g];
            if (!gene.estimate.has_value()) continue;
            file.table.add_column(gene.label, std::move(condition.profiles[g]));
            file.lambdas.emplace_back(gene.label, gene.lambda);
        }
    }
    format_profile_csvs(files, pool);

    int failures = 0;
    for (std::size_t c = 0; c < files.size(); ++c) {
        const Condition_result& condition = result.conditions[c];
        std::printf("condition %-12s: mean order parameter %.3f, mean entropy %.3f\n",
                    condition.name.c_str(), condition.mean_order_parameter,
                    condition.mean_entropy);
        std::printf("  %-16s %-10s %-8s %-8s %-8s\n", "gene", "lambda", "order", "entropy",
                    "peak");
        auto scores = condition.synchrony.begin();
        for (const Batch_entry& gene : condition.genes) {
            if (!gene.estimate.has_value()) {
                ++failures;
                std::printf("  %-16s FAILED: %s\n", gene.label.c_str(), gene.error.c_str());
                continue;
            }
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
        write_profile_csv(files[c]);
        std::printf("  wrote %s\n", files[c].path.c_str());
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
    if (!cli.conditions.empty() &&
        (!cli.kernel_path.empty() || !cli.save_kernel_path.empty())) {
        // Experiment kernels go through the cache; silently discarding a
        // user-supplied kernel file would rebuild behind their back.
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
    if (!cli.kernel_path.empty() || !cli.save_kernel_path.empty()) {
        // Streaming kernels go through the cache; silently rebuilding
        // past a user-supplied kernel file would mislead.
        usage_error("--kernel/--save-kernel apply to single-series runs only; "
                    "use --cache-dir for streaming");
    }
    const Vector times = resolve_times(cli);

    // Open the log and validate its header before the session builds
    // (and caches) a kernel: a bad --input must fail without that work.
    std::ifstream in(cli.input);
    if (!in) {
        std::fprintf(stderr, "cellsync_deconvolve: cannot open '%s'\n", cli.input.c_str());
        return 1;
    }
    Record_stream records = naming_input(cli.input, [&] { return Record_stream(in); });

    Stream_session_options session_options;
    session_options.basis_size = cli.basis;
    session_options.threads = cli.threads;
    session_options.constraints = constraints_from(cli);
    session_options.kernel = kernel_options_from(cli);
    session_options.stream.lambda = cli.lambda.value_or(1e-3);
    session_options.stream.convergence = cli.convergence;

    const std::unique_ptr<Volume_model> volume = volume_from(cli);
    const std::unique_ptr<Kernel_cache> cache = cache_from(cli);
    Stream_session session(config_from(cli), *volume, times, *cache, session_options);
    const Kernel_cache_stats cache_stats = cache->stats();
    std::printf("session: %zu-point grid (t = %.0f..%.0f min), kernel %s, lambda %.3e, "
                "%zu worker threads\n",
                times.size(), times.front(), times.back(),
                cache_stats.builds > 0 ? "computed" : "from cache",
                session_options.stream.lambda, session.thread_count());

    int failures = 0;
    bool stopped_early = false;
    std::size_t timepoints = 0;
    std::vector<Stream_record> updates_in;
    for (;;) {
        std::vector<Expression_record> batch =
            naming_input(cli.input, [&] { return records.next_timepoint(); });
        if (batch.empty()) break;
        const double t = batch.front().time;
        updates_in.clear();
        for (Expression_record& record : batch) {
            updates_in.push_back({std::move(record.gene), record.value, record.sigma});
        }
        // A batch the session rejects (a gene twice at one time) names the
        // log and the timepoint.
        const std::vector<Stream_update> updates = naming_input(cli.input, [&] {
            try {
                return session.append_timepoint(t, updates_in);
            } catch (const std::exception& e) {
                char time[32];
                std::snprintf(time, sizeof(time), "%g", t);
                throw std::runtime_error("t=" + std::string(time) + ": " + e.what());
            }
        });
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
    // `report --json` can carry the smoothness weight forward). The
    // profiles are one `profiles` batch on the session's pool and the
    // rows are formatted there too; the columns go in registration order.
    const Vector grid = experiment_output_phi();
    const Matrix design = session.artifacts().basis->design_matrix(grid);
    std::vector<const Streaming_deconvolver*> estimated;
    for (const std::string& label : session.labels()) {
        const Streaming_deconvolver* stream = session.find_stream(label);
        if (stream->has_estimate()) estimated.push_back(stream);
    }
    std::vector<Vector> profiles(estimated.size());
    session.parallel_for("profiles", estimated.size(), [&](std::size_t g) {
        profiles[g] = design * estimated[g]->current().coefficients();
    });
    Profile_csv file;
    file.path = cli.output.empty() ? "streamed.csv" : cli.output;
    file.table.add_column("phi", grid);
    std::printf("  %-16s %-9s %-10s %-8s %-10s\n", "gene", "observed", "converged",
                "order", "lambda");
    for (std::size_t g = 0; g < estimated.size(); ++g) {
        const Streaming_deconvolver& stream = *estimated[g];
        std::printf("  %-16s %zu/%-7zu %-10s %-8.3f %-10.3e\n", stream.label().c_str(),
                    stream.observed(), times.size(), stream.converged() ? "yes" : "no",
                    stream.order_parameter(), stream.options().lambda);
        file.table.add_column(stream.label(), std::move(profiles[g]));
        file.lambdas.emplace_back(stream.label(), stream.options().lambda);
    }
    if (!file.lambdas.empty()) {
        format_profile_csvs({&file, 1}, session);
        write_profile_csv(file);
        std::printf("wrote %s\n", file.path.c_str());
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
    write_kernel_file(cli.output, kernel);
    std::printf("computed %zu times x %zu bins, wrote %s\n", kernel.time_count(),
                kernel.bin_count(), cli.output.c_str());
    return 0;
}

/// `kernel cache` text listing: a total line, then one row per entry.
void print_entries(const std::vector<Kernel_cache_entry_info>& entries,
                   std::uint64_t total_bytes) {
    std::printf("cache: %zu entries, %.1f KiB\n", entries.size(),
                static_cast<double>(total_bytes) / 1024.0);
    std::printf("  %-18s %10s  %s\n", "entry", "bytes", "provenance");
    for (const Kernel_cache_entry_info& entry : entries) {
        std::string provenance = entry.key;
        if (const auto times = provenance.find("times="); times != std::string::npos) {
            provenance = provenance.substr(0, times) + "times=...";
        }
        std::printf("  %-18s %10llu  %s\n", entry.hash.c_str(),
                    static_cast<unsigned long long>(entry.bytes), provenance.c_str());
    }
}

/// Machine-readable counterpart of `print_entries` for `kernel cache
/// --json`: this command's cache counters plus every entry's full key.
void write_cache_json(const std::string& json_path, const Kernel_cache_stats& stats,
                      const std::vector<Kernel_cache_entry_info>& entries,
                      std::uint64_t total_bytes) {
    std::ofstream out(json_path);
    if (!out) throw std::runtime_error("cannot open '" + json_path + "' for writing");
    out << "{\n  \"schema\": \"cellsync-cache-v2\",\n  \"stats\": {";
    out << "\"memory_hits\": " << stats.memory_hits;
    out << ", \"disk_hits\": " << stats.disk_hits;
    out << ", \"builds\": " << stats.builds;
    out << "},\n  \"total_bytes\": " << total_bytes;
    out << ",\n  \"entries\": [";
    for (std::size_t e = 0; e < entries.size(); ++e) {
        const Kernel_cache_entry_info& entry = entries[e];
        out << (e ? ",\n    {" : "\n    {");
        out << "\"hash\": \"" << telemetry::json_escape(entry.hash) << "\"";
        out << ", \"bytes\": " << entry.bytes;
        out << ", \"key\": \"" << telemetry::json_escape(entry.key) << "\"}";
    }
    out << "\n  ]\n}\n";
    out.flush();
    if (!out) throw std::runtime_error("write failed for '" + json_path + "'");
}

int cmd_kernel_cache(const Cli_options& cli) {
    if (cli.cache_dir.empty()) usage_error("kernel cache needs --cache-dir DIR");
    const bool listing = cli.times_spec.empty() && cli.times_from.empty();
    if (listing && !std::filesystem::is_directory(cli.cache_dir)) {
        // Listing never creates a directory: a mistyped path is an error,
        // not an empty cache.
        throw std::runtime_error("no cache directory '" + cli.cache_dir + "'");
    }
    const Vector times = listing ? Vector{} : resolve_times(cli);
    Kernel_cache cache(cli.cache_dir);
    if (!listing) {
        const std::unique_ptr<Volume_model> volume = volume_from(cli);
        const auto kernel =
            cache.get_or_build(config_from(cli), *volume, times, kernel_options_from(cli));
        const char* source =
            cache.stats().builds > 0 ? "computed (cache miss)" : "reused from disk";
        std::printf("%s: %zu times x %zu bins in %s\n", source, kernel->time_count(),
                    kernel->bin_count(), cli.cache_dir.c_str());
    }
    const std::vector<Kernel_cache_entry_info> entries = cache.entries();
    std::uint64_t total_bytes = 0;
    for (const Kernel_cache_entry_info& entry : entries) total_bytes += entry.bytes;
    print_entries(entries, total_bytes);
    if (!cli.json_path.empty()) {
        write_cache_json(cli.json_path, cache.stats(), entries, total_bytes);
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
    std::optional<Profile_scores> scores;  ///< empty: no positive mass
    std::optional<double> lambda;          ///< from the CSV's `# lambda:` comments
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
        out << "\"file\": \"" << telemetry::json_escape(files[f].first) << "\", \"profiles\": [";
        const std::vector<Profile_report>& profiles = files[f].second;
        for (std::size_t p = 0; p < profiles.size(); ++p) {
            const Profile_report& profile = profiles[p];
            out << (p ? ",\n      {" : "\n      {");
            out << "\"name\": \"" << telemetry::json_escape(profile.name) << "\"";
            out << ", \"positive_mass\": " << (profile.scores.has_value() ? "true" : "false");
            if (profile.scores.has_value()) {
                std::snprintf(buffer, sizeof(buffer), "%.12g", profile.scores->order_parameter);
                out << ", \"order_parameter\": " << buffer;
                std::snprintf(buffer, sizeof(buffer), "%.12g", profile.scores->entropy);
                out << ", \"entropy\": " << buffer;
                std::snprintf(buffer, sizeof(buffer), "%.12g", profile.scores->peak_phi);
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
    out.flush();
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
        const Table table = read_csv_input(path, std::identity{});
        if (!table.has_column("phi")) {
            std::fprintf(stderr, "report: %s has no 'phi' column, skipping\n", path.c_str());
            continue;
        }
        const Vector& phi = table.column("phi");
        const std::vector<std::pair<std::string, double>> lambdas =
            read_lambda_comments(path);
        std::vector<Profile_report> profiles;
        std::printf("%s\n  %-16s %-8s %-8s %-8s\n", path.c_str(), "profile", "order",
                    "entropy", "peak");
        for (std::size_t c = 0; c < table.column_count(); ++c) {
            const std::string& name = table.names()[c];
            if (name == "phi") continue;
            Profile_report profile;
            profile.name = name;
            for (const auto& [gene, lambda] : lambdas) {
                if (gene == name) profile.lambda = lambda;
            }
            try {
                profile.scores = score_profile(phi, table.column(c));
                std::printf("  %-16s %-8.3f %-8.3f %-8.3f\n", name.c_str(),
                            profile.scores->order_parameter, profile.scores->entropy,
                            profile.scores->peak_phi);
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

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage_error("missing subcommand (run, stream, kernel build, kernel cache, report)");
    }
    const std::string command = argv[1];
    std::string mode;  // kernel build | cache
    int first = 2;
    // Positional profile CSVs are allowed after `report`.
    std::vector<std::string> inputs;
    if (command == "kernel") {
        if (argc < 3) usage_error("kernel needs a mode: build or cache");
        mode = argv[2];
        if (mode != "build" && mode != "cache") {
            usage_error("unknown kernel mode '" + mode + "' (build or cache)");
        }
        first = 3;
    } else if (command == "report") {
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
        else if (mode == "build") status = cmd_kernel_build(cli);
        else status = cmd_kernel_cache(cli);
        telemetry_session.finish();
        return status;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cellsync_deconvolve: error: %s\n", e.what());
        return 1;
    }
}

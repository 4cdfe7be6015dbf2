// Traced per-layer replay for the end-to-end benchmark.
//
//   e2e_replay run --cache-dir DIR --output STEM.csv --trace TRACE.json
//       --condition NAME=PANEL.csv,mu_sst=X,cycle_minutes=Y [--condition ...]
//   e2e_replay stream --cache-dir DIR --input RECORDS.csv --times-from TIMES.csv
//       --lambda L --mu-sst X --cycle-minutes Y --output FILE.csv --trace TRACE.json
//
// Makes, on one thread, the calls into each layer that `cellsync_deconvolve
// run` / `stream` make at --threads 1, in the order they make them, and
// records a span of the benchmark's own around each call:
//
//   run     io.read (panels) -> population.kernel (per condition) ->
//           per condition: core.design, then per gene core.gene { core.cv,
//           core.estimate }, then core.score -> io.write (profile CSVs)
//   stream  io.read (time grid) -> population.kernel -> stream.open ->
//           per timepoint: io.read (record batch), stream.append -> io.write
//
// Condition 0 searches the CLI's 15-point lambda grid; later conditions
// search the runner's 7-point warm grids, +/- 1 decade around the gene's
// previous choice. The spans are written as Chrome-trace JSON (--trace);
// the layer counters are printed as one JSON line on stdout.
//
// Only public functions the CLI path reaches are called, and none that an
// open ROADMAP item deletes (no solve_qp / Qp_solver, no Design_matrix or
// Banded_matrix, no simd dispatch, no sequential schedule).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/batch.h"
#include "core/cross_validation.h"
#include "core/design.h"
#include "io/csv.h"
#include "io/expression_data.h"
#include "io/series_writer.h"
#include "io/stream_records.h"
#include "population/kernel_cache.h"
#include "population/synchrony.h"
#include "spline/spline_basis.h"
#include "stream/stream_session.h"

namespace {

using namespace cellsync;

// The CLI's defaults for the knobs the benchmark leaves unset.
constexpr std::size_t basis_size = 18;
constexpr std::size_t warm_grid_points = 7;
constexpr double warm_grid_decades = 1.0;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span_record {
    std::string name;
    std::string args_json;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

class Recorder {
  public:
    std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    void add(Span_record span) { spans_.push_back(std::move(span)); }

    /// Complete ("ph":"X") events on one thread, microseconds since the
    /// recorder's epoch; the category is the layer module (name prefix).
    void write_chrome_trace(const std::string& path) const {
        std::ofstream out(path);
        out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
        out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
               "\"args\": {\"name\": \"replay\"}}";
        char buffer[96];
        for (const Span_record& span : spans_) {
            const std::string category = span.name.substr(0, span.name.find('.'));
            std::snprintf(buffer, sizeof(buffer), "\"ts\": %.3f, \"dur\": %.3f",
                          static_cast<double>(span.start_ns) * 1e-3,
                          static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
            out << ",\n{\"name\": \"" << span.name << "\", \"cat\": \"" << category
                << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, " << buffer
                << ", \"args\": {" << span.args_json << "}}";
        }
        out << "\n]}\n";
        out.flush();
        if (!out) throw std::runtime_error("cannot write trace '" + path + "'");
    }

  private:
    std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
    std::vector<Span_record> spans_;
};

/// RAII span: recorded when it goes out of scope, exception paths included.
class Span {
  public:
    Span(Recorder& recorder, std::string name, std::string args_json = {})
        : recorder_(recorder) {
        record_.name = std::move(name);
        record_.args_json = std::move(args_json);
        record_.start_ns = recorder_.now_ns();
    }
    ~Span() {
        record_.end_ns = recorder_.now_ns();
        recorder_.add(std::move(record_));
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Recorder& recorder_;
    Span_record record_;
};

/// `"key": "value"` for span args (labels come from the benchmark's own
/// generator, so plain ASCII without quotes).
std::string arg(const std::string& key, const std::string& value) {
    return "\"" + key + "\": \"" + value + "\"";
}

// ---------------------------------------------------------------------------
// Counters printed on stdout
// ---------------------------------------------------------------------------

struct Counters {
    std::size_t genes = 0;
    std::size_t failed_genes = 0;
    std::size_t kernel_builds = 0;
    std::size_t kernel_disk_hits = 0;
    std::size_t cells_simulated = 0;
    std::size_t cv_fits = 0;
    std::size_t cv_disqualified = 0;
    std::size_t qp_iterations = 0;
    std::size_t bound_genes = 0;
    std::size_t stream_updates = 0;
    std::size_t warm_accepts = 0;
    std::size_t cold_solves = 0;
    std::size_t stream_errors = 0;

    void print() const {
        std::printf(
            "{\"genes\": %zu, \"failed_genes\": %zu, \"kernel_builds\": %zu, "
            "\"kernel_disk_hits\": %zu, \"cells_simulated\": %zu, \"cv_fits\": %zu, "
            "\"cv_disqualified\": %zu, \"qp_iterations\": %zu, \"bound_genes\": %zu, "
            "\"stream_updates\": %zu, \"warm_accepts\": %zu, \"cold_solves\": %zu, "
            "\"stream_errors\": %zu}\n",
            genes, failed_genes, kernel_builds, kernel_disk_hits, cells_simulated, cv_fits,
            cv_disqualified, qp_iterations, bound_genes, stream_updates, warm_accepts,
            cold_solves, stream_errors);
    }
};

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

[[noreturn]] void usage(const std::string& message) {
    std::fprintf(stderr, "e2e_replay: %s\n", message.c_str());
    std::exit(2);
}

double parse_double(const std::string& text, const std::string& what) {
    try {
        return parse_strict_double(text);
    } catch (const std::exception& e) {
        usage(std::string(e.what()) + " (" + what + ")");
    }
}

struct Condition_input {
    std::string name;
    std::string panel_path;
    Cell_cycle_config config;
    std::vector<Measurement_series> panel;
    std::shared_ptr<const Kernel_grid> kernel;
};

/// NAME=PANEL.csv,mu_sst=X,cycle_minutes=Y — the CLI's --condition form.
Condition_input parse_condition(const std::string& spec) {
    Condition_input c;
    const auto eq = spec.find('=');
    if (eq == std::string::npos || eq == 0) usage("bad --condition '" + spec + "'");
    c.name = spec.substr(0, eq);
    std::string rest = spec.substr(eq + 1);
    std::size_t comma = rest.find(',');
    c.panel_path = rest.substr(0, comma);
    while (comma != std::string::npos) {
        rest = rest.substr(comma + 1);
        comma = rest.find(',');
        const std::string field = rest.substr(0, comma);
        const auto feq = field.find('=');
        const std::string key = field.substr(0, feq);
        const std::string value = feq == std::string::npos ? "" : field.substr(feq + 1);
        if (key == "mu_sst") c.config.mu_sst = parse_double(value, key);
        else if (key == "cycle_minutes") c.config.mean_cycle_minutes = parse_double(value, key);
        else usage("unknown --condition field '" + field + "'");
    }
    return c;
}

struct Options {
    std::string mode;
    std::string cache_dir;
    std::string output;
    std::string trace;
    std::vector<Condition_input> conditions;
    std::string input;
    std::string times_from;
    double lambda = 0.0;
    Cell_cycle_config config;
};

Options parse_options(int argc, char** argv) {
    if (argc < 2) usage("usage: e2e_replay run|stream [options] (see the header comment)");
    Options o;
    o.mode = argv[1];
    for (int i = 2; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[i + 1];
        if (flag == "--cache-dir") o.cache_dir = value;
        else if (flag == "--output") o.output = value;
        else if (flag == "--trace") o.trace = value;
        else if (flag == "--condition") o.conditions.push_back(parse_condition(value));
        else if (flag == "--input") o.input = value;
        else if (flag == "--times-from") o.times_from = value;
        else if (flag == "--lambda") o.lambda = parse_double(value, flag);
        else if (flag == "--mu-sst") o.config.mu_sst = parse_double(value, flag);
        else if (flag == "--cycle-minutes") o.config.mean_cycle_minutes = parse_double(value, flag);
        else usage("unknown option '" + flag + "'");
    }
    if (o.cache_dir.empty() || o.output.empty() || o.trace.empty()) {
        usage("--cache-dir, --output and --trace are required");
    }
    return o;
}

/// The CLI's profile CSV: `# lambda:<gene>=<value>` lines, then the table.
void write_profiles(const std::string& path, const Series_writer& writer,
                    const std::vector<std::pair<std::string, double>>& lambdas) {
    std::ofstream out(path);
    for (const auto& [gene, lambda] : lambdas) {
        char buffer[48];
        std::snprintf(buffer, sizeof(buffer), "%.17g", lambda);
        out << "# lambda:" << gene << "=" << buffer << "\n";
    }
    write_csv(out, writer.table());
    out.flush();
    if (!out) throw std::runtime_error("cannot write '" + path + "'");
}

std::string output_stem(const std::string& output) {
    const auto dot = output.rfind(".csv");
    return dot != std::string::npos && dot == output.size() - 4 ? output.substr(0, dot) : output;
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

struct Gene_result {
    std::string label;
    std::optional<Single_cell_estimate> estimate;
    double lambda = 0.0;
};

void replay_run(Options& o, Recorder& recorder, Counters& counters) {
    const Span root(recorder, "replay", arg("command", "run"));
    std::vector<Condition_input>& conditions = o.conditions;
    if (conditions.empty()) usage("run needs at least one --condition");
    for (Condition_input& c : conditions) {
        const Span span(recorder, "io.read", arg("condition", c.name));
        c.panel = panel_from_table(read_csv_file(c.panel_path));
    }

    Kernel_cache cache(o.cache_dir);
    const Smooth_volume_model volume;
    const Kernel_build_options kernel_options;
    for (Condition_input& c : conditions) {
        const Span span(recorder, "population.kernel", arg("condition", c.name));
        c.kernel = cache.get_or_build(c.config, volume, c.panel.front().times, kernel_options);
    }
    const Kernel_cache_stats stats = cache.stats();
    counters.kernel_builds = stats.builds;
    counters.kernel_disk_hits = stats.disk_hits;
    counters.cells_simulated = stats.builds * kernel_options.n_cells;

    Batch_options batch;
    batch.lambda_grid = default_lambda_grid(15, 1e-7, 1e1);
    Vector score_phi = linspace(0.0, 1.0, 201);
    score_phi.pop_back();
    std::map<std::string, double> previous_lambda;
    std::vector<std::vector<Gene_result>> results(conditions.size());
    // The scores are only timed, but stay live (checked below) so that no
    // optimizer can drop the scoring work the CLI does.
    double score_sink = 0.0;

    for (std::size_t c = 0; c < conditions.size(); ++c) {
        const Condition_input& condition = conditions[c];
        std::shared_ptr<const Design_artifacts> design;
        Batch_options resolved;
        {
            const Span span(recorder, "core.design", arg("condition", condition.name));
            design = make_design_artifacts(std::make_shared<Natural_spline_basis>(basis_size),
                                           *condition.kernel, condition.config,
                                           batch.deconvolution.constraints);
            resolved = resolve_batch_options(*design, batch);
        }
        const Deconvolver deconvolver(design);

        for (const Measurement_series& series : condition.panel) {
            Gene_result result;
            result.label = series.label;
            Vector grid = resolved.lambda_grid;
            if (const auto it = previous_lambda.find(series.label);
                c > 0 && it != previous_lambda.end()) {
                grid = default_lambda_grid(warm_grid_points,
                                           it->second * std::pow(10.0, -warm_grid_decades),
                                           it->second * std::pow(10.0, warm_grid_decades));
            }
            const Span gene_span(recorder, "core.gene", arg("gene", series.label));
            ++counters.genes;
            try {
                Deconvolution_options deconv = resolved.deconvolution;
                Lambda_selection selection;
                {
                    const Span span(recorder, "core.cv");
                    selection = select_lambda_kfold(deconvolver, series, deconv, grid,
                                                    resolved.cv_folds, resolved.cv_seed);
                }
                deconv.lambda = selection.best_lambda;
                counters.cv_fits += grid.size() * std::min(resolved.cv_folds, series.size());
                for (const double score : selection.scores) {
                    if (std::isinf(score)) ++counters.cv_disqualified;
                }
                {
                    const Span span(recorder, "core.estimate");
                    result.estimate = deconvolver.estimate(series, deconv);
                }
                result.lambda = deconv.lambda;
                counters.qp_iterations += result.estimate->qp_iterations;
                if (result.estimate->active_constraints > 0) ++counters.bound_genes;
            } catch (const std::exception& e) {
                ++counters.failed_genes;
                std::fprintf(stderr, "e2e_replay: gene '%s' failed: %s\n",
                             series.label.c_str(), e.what());
            }
            results[c].push_back(std::move(result));
        }

        const Span span(recorder, "core.score", arg("condition", condition.name));
        for (const Gene_result& gene : results[c]) {
            if (!gene.estimate.has_value()) continue;
            previous_lambda[gene.label] = gene.lambda;
            const Vector values = gene.estimate->sample(score_phi);
            try {
                score_sink += profile_order_parameter(score_phi, values) +
                              profile_entropy(values) +
                              *std::max_element(values.begin(), values.end());
            } catch (const std::invalid_argument&) {
                // no positive mass: the CLI skips the scores too
            }
        }
    }

    const Vector phi = linspace(0.0, 1.0, 201);
    const std::string stem = output_stem(o.output);
    for (std::size_t c = 0; c < conditions.size(); ++c) {
        const Span span(recorder, "io.write", arg("condition", conditions[c].name));
        Series_writer writer("phi", phi);
        std::vector<std::pair<std::string, double>> lambdas;
        for (const Gene_result& gene : results[c]) {
            if (!gene.estimate.has_value()) continue;
            writer.add(gene.label, gene.estimate->sample(phi));
            lambdas.emplace_back(gene.label, gene.lambda);
        }
        write_profiles(stem + "." + conditions[c].name + ".csv", writer, lambdas);
    }
    if (!std::isfinite(score_sink)) std::fprintf(stderr, "e2e_replay: non-finite scores\n");
}

// ---------------------------------------------------------------------------
// stream
// ---------------------------------------------------------------------------

void replay_stream(const Options& o, Recorder& recorder, Counters& counters) {
    if (o.input.empty() || o.times_from.empty()) usage("stream needs --input and --times-from");
    const Span root(recorder, "replay", arg("command", "stream"));
    Vector times;
    {
        const Span span(recorder, "io.read", arg("file", "times"));
        times = read_csv_file(o.times_from).column("time");
    }

    Kernel_cache cache(o.cache_dir);
    const Smooth_volume_model volume;
    Stream_session_options session_options;
    session_options.basis_size = basis_size;
    session_options.threads = 1;
    session_options.stream.lambda = o.lambda;
    {
        const Span span(recorder, "population.kernel");
        cache.get_or_build(o.config, volume, times, session_options.kernel);
    }
    const Kernel_cache_stats stats = cache.stats();
    counters.kernel_builds = stats.builds;
    counters.kernel_disk_hits = stats.disk_hits;
    counters.cells_simulated = stats.builds * session_options.kernel.n_cells;

    // The kernel is now in the cache's memory map, so this span holds the
    // session's design build, not a second kernel resolution.
    std::optional<Stream_session> session;
    {
        const Span span(recorder, "stream.open");
        session.emplace(o.config, volume, times, cache, session_options);
    }

    std::ifstream in(o.input);
    if (!in) throw std::runtime_error("cannot open '" + o.input + "'");
    std::optional<Record_stream> records;
    {
        const Span span(recorder, "io.read", arg("file", "records"));
        records.emplace(in);
    }
    for (;;) {
        std::vector<Expression_record> batch;
        {
            const Span span(recorder, "io.read", arg("file", "records"));
            batch = records->next_timepoint();
        }
        if (batch.empty()) break;
        std::vector<Stream_record> updates_in;
        updates_in.reserve(batch.size());
        for (const Expression_record& record : batch) {
            updates_in.push_back({record.gene, record.value, record.sigma});
        }
        std::vector<Stream_update> updates;
        {
            const Span span(recorder, "stream.append");
            updates = session->append_timepoint(batch.front().time, updates_in);
        }
        for (const Stream_update& update : updates) {
            if (!update.error.empty()) ++counters.stream_errors;
        }
    }
    const Stream_solve_stats solve_stats = session->total_stats();
    counters.stream_updates = solve_stats.updates;
    counters.warm_accepts = solve_stats.warm_accepts;
    counters.cold_solves = solve_stats.cold_solves;

    const Span span(recorder, "io.write");
    const Vector phi = linspace(0.0, 1.0, 201);
    Series_writer writer("phi", phi);
    std::vector<std::pair<std::string, double>> lambdas;
    for (const std::string& label : session->labels()) {
        const Streaming_deconvolver& stream = *session->find_stream(label);
        ++counters.genes;
        if (!stream.has_estimate()) {
            ++counters.failed_genes;
            continue;
        }
        writer.add(label, stream.current().sample(phi));
        lambdas.emplace_back(label, stream.options().lambda);
    }
    write_profiles(o.output, writer, lambdas);
}

}  // namespace

int main(int argc, char** argv) {
    Options options = parse_options(argc, argv);
    Recorder recorder;
    Counters counters;
    try {
        if (options.mode == "run") replay_run(options, recorder, counters);
        else if (options.mode == "stream") replay_stream(options, recorder, counters);
        else usage("unknown mode '" + options.mode + "' (run, stream)");
        recorder.write_chrome_trace(options.trace);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2e_replay: error: %s\n", e.what());
        return 1;
    }
    counters.print();
    return counters.failed_genes == 0 && counters.stream_errors == 0 ? 0 : 1;
}

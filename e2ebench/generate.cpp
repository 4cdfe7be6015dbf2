// Workload generator and host-parallelism probe for the end-to-end
// benchmark. This file is self-contained on purpose: it includes no
// cellsync header and links no cellsync code, so a change to the program
// under test (its simulator, its RNG, its parsers) never changes the
// benchmark's inputs, and the recovery error the benchmark reports is not
// an inverse crime (data and estimate produced by the same model code).
//
//   e2e_generate workload --name run_cold|run_warm|stream --seed N --out DIR
//   e2e_generate calibrate --copies N
//
// `workload` writes into DIR (which must exist):
//   workload.json        manifest read by run.py (conditions, files, lambda)
//   panel_<cond>.csv     wide panels: time, <gene>, <gene>_sigma, ...
//   records.csv          stream only: time-ordered time,gene,value,sigma log
//   times.csv            stream only: the time grid (`time` column)
//   truth.csv            ground-truth profiles on phi = i/200, i = 0..200
//
// Population model, after the paper's Sec 2.1: a synchronized swarmer
// isolate (each cell starts at a phase uniform in [0, its SW->ST phase)),
// per-cell cycle time and SW->ST phase drawn from truncated normals, and
// at division an SW daughter at phase 0 plus an ST daughter starting at
// its own SW->ST phase, each drawing fresh parameters. A measurement is
// the volume-weighted population average of the gene's concentration
// profile, with the 2009 piecewise-linear volume model (0.4 -> 0.6 at the
// SW->ST phase -> 1.0 at division; the program under test defaults to the
// smooth 2011 model, so the benchmark carries a realistic model mismatch),
// plus relative Gaussian noise.
//
// `calibrate` prints {"copies": N, "single_ms": .., "concurrent_ms": ..,
// "effective_parallelism": ..}: the wall time of one fixed single-thread
// ALU loop alone against N concurrent copies (threads), each the median
// of three trials. effective_parallelism = N * single / concurrent, i.e.
// how many of the N requested cores the host actually delivered.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

constexpr double pi = 3.14159265358979323846;

[[noreturn]] void fail(const std::string& message) {
    std::fprintf(stderr, "e2e_generate: %s\n", message.c_str());
    std::exit(2);
}

// ---------------------------------------------------------------------------
// Deterministic random numbers: splitmix64-seeded xoshiro256**, uniform
// doubles from the top 53 bits, polar Box-Muller normals. Fully specified
// here so the same seed yields the same bytes on every platform.
// ---------------------------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

class Random {
  public:
    Random(std::uint64_t seed, std::uint64_t stream) {
        std::uint64_t state = seed ^ (stream * 0xd1342543de82ef95ULL);
        for (std::uint64_t& word : s_) word = splitmix64(state);
    }

    std::uint64_t next() {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    double normal() {
        for (;;) {
            const double u = 2.0 * uniform() - 1.0;
            const double v = 2.0 * uniform() - 1.0;
            const double s = u * u + v * v;
            if (s > 0.0 && s < 1.0) return u * std::sqrt(-2.0 * std::log(s) / s);
        }
    }

    double truncated_normal(double mean, double sd, double lo, double hi) {
        for (;;) {
            const double x = mean + sd * normal();
            if (x > lo && x < hi) return x;
        }
    }

  private:
    static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
    std::uint64_t s_[4];
};

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

struct Condition {
    std::string name;
    double cycle_minutes;
    double mu_sst;
};

struct Workload {
    std::vector<Condition> conditions;
    std::size_t genes_per_condition;
    std::size_t timepoints;  // uniform grid over [0, 180] minutes
    bool stream;
};

// Condition parameters and gene profiles are fixed per workload, so the
// work each run does (kernel simulations, which genes bind the positivity
// bound) is the same for every seed; the seed drives the simulated cells
// and the measurement noise.
Workload workload_named(const std::string& name) {
    const std::vector<Condition> three = {
        {"fast", 120.0, 0.13}, {"base", 150.0, 0.15}, {"slow", 180.0, 0.17}};
    if (name == "run_cold") return {three, 4, 13, false};
    if (name == "run_warm") return {three, 64, 13, false};
    if (name == "stream") return {{{"stream", 150.0, 0.15}}, 192, 25, true};
    fail("unknown workload '" + name + "' (run_cold, run_warm, stream)");
}

constexpr double noise_relative = 0.05;  // relative Gaussian measurement noise
constexpr std::size_t cells_per_condition = 20000;
constexpr std::size_t histogram_bins = 2000;
constexpr double stream_lambda = 1e-2;  // fixed smoothness weight for `stream`
constexpr std::uint64_t gene_seed = 20111;  // the gene panel's own, seed-independent

// ---------------------------------------------------------------------------
// Ground-truth gene profiles: a quarter each of pulse, ftsZ-like onset,
// sinusoid, and step shapes, with per-gene parameters drawn from gene_seed.
// ---------------------------------------------------------------------------

struct Gene {
    std::string label;
    std::function<double(double)> f;
};

double smoothstep(double x) {
    x = std::clamp(x, 0.0, 1.0);
    return x * x * (3.0 - 2.0 * x);
}

Gene make_gene(std::size_t index, Random& rng) {
    char label[32];
    switch (index % 4) {
        case 0: {  // low baseline, so the positivity bound binds
            const double base = rng.uniform(0.02, 0.2), height = rng.uniform(2.0, 5.0);
            const double center = rng.uniform(0.35, 0.7), width = rng.uniform(0.12, 0.22);
            std::snprintf(label, sizeof(label), "pulse_%03zu", index);
            return {label, [=](double phi) {
                        const double d = std::abs(phi - center);
                        return base + (d < width ? height * 0.5 * (1.0 + std::cos(pi * d / width))
                                                 : 0.0);
                    }};
        }
        case 1: {  // ~0 until onset, rise to a peak, decay to 0 by division
            const double onset = rng.uniform(0.16, 0.24);
            const double peak_phi = onset + rng.uniform(0.2, 0.35);
            const double peak = rng.uniform(4.0, 8.0);
            std::snprintf(label, sizeof(label), "onset_%03zu", index);
            return {label, [=](double phi) {
                        if (phi <= onset) return 0.0;
                        if (phi <= peak_phi) return peak * smoothstep((phi - onset) / (peak_phi - onset));
                        return peak * (1.0 - smoothstep((phi - peak_phi) / (1.0 - peak_phi)));
                    }};
        }
        case 2: {
            const double offset = rng.uniform(2.0, 3.0), amplitude = rng.uniform(0.5, 1.5);
            const double shift = rng.uniform(0.0, 2.0 * pi);
            std::snprintf(label, sizeof(label), "sine_%03zu", index);
            return {label, [=](double phi) {
                        return offset + amplitude * std::sin(2.0 * pi * phi + shift);
                    }};
        }
        default: {
            const double low = rng.uniform(0.5, 1.0), high = rng.uniform(2.0, 4.0);
            const double center = rng.uniform(0.35, 0.55);
            std::snprintf(label, sizeof(label), "step_%03zu", index);
            return {label, [=](double phi) {
                        return low + (high - low) * smoothstep((phi - center) / 0.15 + 0.5);
                    }};
        }
    }
}

// ---------------------------------------------------------------------------
// Population simulation: volume-weighted phase histogram at each time.
// ---------------------------------------------------------------------------

struct Cell {
    double birth_time;
    double birth_phase;
    double phi_sst;
    double cycle_minutes;

    double division_time() const { return birth_time + cycle_minutes * (1.0 - birth_phase); }
};

Cell draw_cell(const Condition& c, Random& rng, double birth_time, bool stalked) {
    Cell cell;
    cell.phi_sst = rng.truncated_normal(c.mu_sst, 0.13 * c.mu_sst, 0.01, 0.95);
    cell.cycle_minutes = rng.truncated_normal(c.cycle_minutes, 0.12 * c.cycle_minutes,
                                              0.2 * c.cycle_minutes, 3.0 * c.cycle_minutes);
    cell.birth_time = birth_time;
    cell.birth_phase = stalked ? cell.phi_sst : 0.0;
    return cell;
}

double linear_volume(double phi, double phi_sst) {
    return phi < phi_sst ? 0.4 + 0.2 * phi / phi_sst
                         : 0.6 + 0.4 * (phi - phi_sst) / (1.0 - phi_sst);
}

/// Row m: volume-weighted phase histogram at times[m], normalized to sum 1.
std::vector<std::vector<double>> simulate(const Condition& c, const std::vector<double>& times,
                                          Random& rng) {
    std::vector<Cell> cells;
    cells.reserve(cells_per_condition);
    for (std::size_t k = 0; k < cells_per_condition; ++k) {
        Cell cell = draw_cell(c, rng, 0.0, false);
        cell.birth_phase = rng.uniform(0.0, cell.phi_sst);  // synchronized swarmers
        cells.push_back(cell);
    }
    std::vector<std::vector<double>> histograms;
    for (const double t : times) {
        // Divide every cell due by t (daughters may divide again).
        for (std::size_t k = 0; k < cells.size(); ++k) {
            while (cells[k].division_time() <= t) {
                const double born = cells[k].division_time();
                cells[k] = draw_cell(c, rng, born, false);
                cells.push_back(draw_cell(c, rng, born, true));
            }
        }
        std::vector<double> h(histogram_bins, 0.0);
        double total = 0.0;
        for (const Cell& cell : cells) {
            const double phi = cell.birth_phase + (t - cell.birth_time) / cell.cycle_minutes;
            const double v = linear_volume(phi, cell.phi_sst);
            const auto bin = std::min(histogram_bins - 1,
                                      static_cast<std::size_t>(phi * histogram_bins));
            h[bin] += v;
            total += v;
        }
        for (double& x : h) x /= total;
        histograms.push_back(std::move(h));
    }
    return histograms;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string num(double x) {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", x);
    return buffer;
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary);
    out << text;
    out.flush();
    if (!out) fail("cannot write '" + path + "'");
}

struct Series {
    std::vector<double> values;
    std::vector<double> sigmas;
};

Series measure(const Gene& gene, const std::vector<std::vector<double>>& histograms,
               Random& rng) {
    Series s;
    std::vector<double> clean;
    for (const std::vector<double>& h : histograms) {
        double g = 0.0;
        for (std::size_t b = 0; b < h.size(); ++b) {
            g += h[b] * gene.f((static_cast<double>(b) + 0.5) / static_cast<double>(h.size()));
        }
        clean.push_back(g);
    }
    const double peak = *std::max_element(clean.begin(), clean.end());
    for (const double g : clean) {
        // Noise scale floored at a tenth of the series peak, so near-zero
        // readings (an onset gene before onset) are not given near-infinite
        // weight.
        const double scale = noise_relative * std::max(std::abs(g), 0.1 * peak);
        s.values.push_back(g + scale * rng.normal());
        s.sigmas.push_back(scale);
    }
    return s;
}

void generate(const std::string& name, std::uint64_t seed, const std::string& dir) {
    const Workload w = workload_named(name);
    std::vector<double> times;
    for (std::size_t m = 0; m < w.timepoints; ++m) {
        times.push_back(180.0 * static_cast<double>(m) / static_cast<double>(w.timepoints - 1));
    }
    Random gene_rng(gene_seed, 1);
    std::vector<Gene> genes;
    for (std::size_t g = 0; g < w.genes_per_condition; ++g) genes.push_back(make_gene(g, gene_rng));

    std::string truth = "phi";
    for (const Gene& gene : genes) truth += "," + gene.label;
    truth += "\n";
    for (std::size_t i = 0; i <= 200; ++i) {
        const double phi = static_cast<double>(i) / 200.0;
        truth += num(phi);
        for (const Gene& gene : genes) {
            truth += ',';
            truth += num(gene.f(phi));
        }
        truth += "\n";
    }
    write_file(dir + "/truth.csv", truth);

    std::string manifest = "{\n  \"workload\": \"" + name + "\",\n  \"seed\": " +
                           std::to_string(seed) + ",\n  \"genes\": " +
                           std::to_string(genes.size()) + ",\n  \"timepoints\": " +
                           std::to_string(times.size()) + ",\n  \"conditions\": [";
    for (std::size_t c = 0; c < w.conditions.size(); ++c) {
        const Condition& cond = w.conditions[c];
        Random pop_rng(seed, 100 + c), noise_rng(seed, 200 + c);
        const auto histograms = simulate(cond, times, pop_rng);
        std::vector<Series> series;
        for (const Gene& gene : genes) series.push_back(measure(gene, histograms, noise_rng));

        const std::string panel = "panel_" + cond.name + ".csv";
        std::string text = "time";
        for (const Gene& gene : genes) text += "," + gene.label + "," + gene.label + "_sigma";
        text += "\n";
        for (std::size_t m = 0; m < times.size(); ++m) {
            text += num(times[m]);
            for (const Series& s : series) {
                text += ',';
                text += num(s.values[m]);
                text += ',';
                text += num(s.sigmas[m]);
            }
            text += "\n";
        }
        write_file(dir + "/" + panel, text);

        if (w.stream) {
            std::string records = "time,gene,value,sigma\n";
            std::string grid = "time\n";
            for (std::size_t m = 0; m < times.size(); ++m) {
                const std::string t = num(times[m]);
                grid += t;
                grid += '\n';
                for (std::size_t g = 0; g < genes.size(); ++g) {
                    records += t + ',' + genes[g].label + ',' + num(series[g].values[m]) + ',' +
                               num(series[g].sigmas[m]) + '\n';
                }
            }
            write_file(dir + "/records.csv", records);
            write_file(dir + "/times.csv", grid);
        }
        manifest += c ? ",\n    {\"name\": \"" : "\n    {\"name\": \"";
        manifest += cond.name + "\", \"panel\": \"" + panel + "\", \"cycle_minutes\": " +
                    num(cond.cycle_minutes) + ", \"mu_sst\": " + num(cond.mu_sst) + "}";
    }
    manifest += "\n  ]";
    if (w.stream) {
        manifest += ",\n  \"records\": \"records.csv\",\n  \"times\": \"times.csv\",\n"
                    "  \"lambda\": " + num(stream_lambda);
    }
    manifest += ",\n  \"truth\": \"truth.csv\"\n}\n";
    write_file(dir + "/workload.json", manifest);
}

// ---------------------------------------------------------------------------
// Host calibration
// ---------------------------------------------------------------------------

/// A fixed amount of single-thread ALU work (~0.1 s on a current core).
std::uint64_t alu_loop(std::uint64_t seed) {
    std::uint64_t x = seed | 1;
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < 120'000'000ULL; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += x >> 60;
    }
    return acc;
}

double timed_copies(std::size_t copies, std::uint64_t& sink) {
    std::vector<std::uint64_t> results(copies, 0);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < copies; ++i) {
        threads.emplace_back([&results, i] { results[i] = alu_loop(i + 1); });
    }
    for (std::thread& t : threads) t.join();
    const auto stop = std::chrono::steady_clock::now();
    for (const std::uint64_t r : results) sink += r;
    return std::chrono::duration<double, std::milli>(stop - start).count();
}

void calibrate(std::size_t copies) {
    std::uint64_t sink = 0;
    std::vector<double> single, concurrent;
    for (int trial = 0; trial < 3; ++trial) {
        single.push_back(timed_copies(1, sink));
        concurrent.push_back(timed_copies(copies, sink));
    }
    std::sort(single.begin(), single.end());
    std::sort(concurrent.begin(), concurrent.end());
    std::printf("{\"copies\": %zu, \"single_ms\": %.6f, \"concurrent_ms\": %.6f, "
                "\"effective_parallelism\": %.6f, \"checksum\": %llu}\n",
                copies, single[1], concurrent[1],
                static_cast<double>(copies) * single[1] / concurrent[1],
                static_cast<unsigned long long>(sink % 1000));
}

std::uint64_t parse_count(const std::string& text, const char* flag) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || text[0] == '-') {
        fail(std::string("bad value '") + text + "' for " + flag);
    }
    return v;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) fail("usage: e2e_generate workload|calibrate [options]");
    const std::string mode = argv[1];
    std::map<std::string, std::string> options;
    for (int i = 2; i + 1 < argc; i += 2) options[argv[i]] = argv[i + 1];
    if ((argc - 2) % 2 != 0) fail("options come in --flag value pairs");
    try {
        if (mode == "workload") {
            if (!options.count("--name") || !options.count("--seed") || !options.count("--out")) {
                fail("workload needs --name, --seed and --out");
            }
            generate(options["--name"], parse_count(options["--seed"], "--seed"),
                     options["--out"]);
            return 0;
        }
        if (mode == "calibrate") {
            const std::uint64_t copies =
                options.count("--copies") ? parse_count(options["--copies"], "--copies") : 4;
            if (copies < 1 || copies > 256) fail("--copies must be in 1..256");
            calibrate(copies);
            return 0;
        }
    } catch (const std::exception& e) {
        fail(e.what());
    }
    fail("unknown mode '" + mode + "' (workload, calibrate)");
}

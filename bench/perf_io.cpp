// Performance: the profile-output layer of `run` and `stream`. A profile
// table of 201 phase points x (1 + genes) columns, formatted as CSV text
// two ways: write_csv on the calling thread, and append_csv_rows blocks
// of csv_block_rows on a 4-thread Worker_pool, written in order (the
// CLI's writer). The column counts are run_warm's 64-gene condition
// (65) and stream's 192-gene panel (193). Both paths write the same
// bytes into a stream that discards them, so only formatting and the
// stream calls are timed.
#include "perf_util.h"

#include <cmath>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/worker_pool.h"
#include "io/csv.h"

namespace {

using namespace cellsync;

/// Counts and discards every byte written through it.
class Discarding_buffer : public std::streambuf {
  public:
    std::size_t bytes = 0;

  protected:
    int_type overflow(int_type ch) override {
        ++bytes;
        return traits_type::not_eof(ch);
    }
    std::streamsize xsputn(const char*, std::streamsize count) override {
        bytes += static_cast<std::size_t>(count);
        return count;
    }
};

/// 201 phase points and `genes` smooth profiles with full-precision
/// values, as a sampled spline profile has.
Table profile_table(std::size_t genes) {
    const Vector phi = linspace(0.0, 1.0, 201);
    Table table;
    table.add_column("phi", phi);
    for (std::size_t g = 0; g < genes; ++g) {
        Vector values(phi.size());
        for (std::size_t i = 0; i < phi.size(); ++i) {
            values[i] = 2.0 + std::sin(6.283185307179586 * phi[i] + 0.1 * static_cast<double>(g)) /
                                  static_cast<double>(g + 3);
        }
        std::string name = "gene";
        name += std::to_string(g);
        table.add_column(std::move(name), std::move(values));
    }
    return table;
}

void bm_write_csv(benchmark::State& state) {
    const Table table = profile_table(static_cast<std::size_t>(state.range(0)) - 1);
    Discarding_buffer buffer;
    std::ostream out(&buffer);
    for (auto _ : state) {
        write_csv(out, table);
        benchmark::DoNotOptimize(buffer.bytes);
        benchmark::ClobberMemory();
    }
    state.counters["bytes"] = static_cast<double>(buffer.bytes) /
                              static_cast<double>(state.iterations());
}

void bm_row_blocks_on_pool(benchmark::State& state) {
    const Table table = profile_table(static_cast<std::size_t>(state.range(0)) - 1);
    const std::size_t rows = table.row_count();
    const std::size_t step = csv_block_rows(table);
    const std::size_t block_count = (rows + step - 1) / step;
    Worker_pool pool(4);
    Discarding_buffer buffer;
    std::ostream out(&buffer);
    for (auto _ : state) {
        // Fresh strings, as the CLI's writer formats into.
        std::vector<std::string> blocks(block_count);
        pool.parallel_for("format", blocks.size(), [&](std::size_t b) {
            append_csv_rows(blocks[b], table, b * step, std::min(rows, (b + 1) * step));
        });
        out << csv_header(table);
        for (const std::string& block : blocks) out << block;
        benchmark::DoNotOptimize(buffer.bytes);
        benchmark::ClobberMemory();
    }
    state.counters["blocks"] = static_cast<double>(block_count);
    state.counters["bytes"] = static_cast<double>(buffer.bytes) /
                              static_cast<double>(state.iterations());
}

}  // namespace

BENCHMARK(bm_write_csv)->Arg(65)->Arg(193)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_row_blocks_on_pool)->Arg(65)->Arg(193)->Unit(benchmark::kMicrosecond)->UseRealTime();

int main(int argc, char** argv) {
    return cellsync::bench::run_perf_harness(argc, argv, "perf_io");
}

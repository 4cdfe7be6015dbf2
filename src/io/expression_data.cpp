#include "io/expression_data.h"

#include <stdexcept>

#include "io/csv.h"

namespace cellsync {

Measurement_series series_from_table(const Table& table, std::string label) {
    if (!table.has_column("time") || !table.has_column("value")) {
        throw std::invalid_argument("series_from_table: need 'time' and 'value' columns");
    }
    Measurement_series s;
    s.label = std::move(label);
    s.times = table.column("time");
    s.values = table.column("value");
    s.sigmas = table.has_column("sigma") ? table.column("sigma") : Vector(s.times.size(), 1.0);
    s.validate();
    return s;
}

Table table_from_series(const Measurement_series& series) {
    series.validate();
    Table t;
    t.add_column("time", series.times);
    t.add_column("value", series.values);
    t.add_column("sigma", series.sigmas);
    return t;
}

std::vector<Measurement_series> panel_from_table(const Table& table) {
    if (!table.has_column("time")) {
        throw std::invalid_argument("panel_from_table: need a 'time' column");
    }
    const Vector& times = table.column("time");
    const std::string sigma_suffix = "_sigma";

    auto is_sigma_name = [&](const std::string& name) {
        return name.size() > sigma_suffix.size() && name.ends_with(sigma_suffix);
    };

    std::vector<Measurement_series> panel;
    for (const std::string& name : table.names()) {
        if (name == "time" || is_sigma_name(name)) continue;
        Measurement_series s;
        s.label = name;
        s.times = times;
        s.values = table.column(name);
        const std::string sigma_name = name + sigma_suffix;
        s.sigmas = table.has_column(sigma_name) ? table.column(sigma_name)
                                                : Vector(times.size(), 1.0);
        s.validate();
        panel.push_back(std::move(s));
    }
    if (panel.empty()) {
        throw std::invalid_argument("panel_from_table: no gene columns besides 'time'");
    }
    // Every sigma column must belong to a gene; a stray one is almost
    // certainly a typo that would otherwise silently drop the data. The
    // base must be an actual gene column — 'time' or another sigma column
    // cannot own a sigma.
    for (const std::string& name : table.names()) {
        if (!is_sigma_name(name)) continue;
        const std::string gene = name.substr(0, name.size() - sigma_suffix.size());
        if (!table.has_column(gene) || gene == "time" || is_sigma_name(gene)) {
            throw std::invalid_argument("panel_from_table: sigma column '" + name +
                                        "' has no matching gene column '" + gene + "'");
        }
    }
    return panel;
}

namespace {

// Generated offline with tools/generate_ftsz_dataset (this repository):
// ftsz_like_profile(0.16, 0.40, 10.0, 0.0) -> simulate_kernel(Caulobacter
// defaults, smooth volume model, 50k cells, 200 bins, seed 424242, times
// 0..150 at 15-min spacing) -> +2.0 additive microarray background ->
// 8% relative Gaussian noise (seed 99). Values regenerate bit-identically
// from those seeds; expression_data_test checks that they do.
constexpr const char* ftsz_csv = R"(time,value,sigma
0,2.0564381669467302,0.1601671378197721
15,2.6363067886501086,0.22648932353219528
30,6.8010720144668655,0.55927178014056522
45,10.220095630861548,0.87114758858219032
60,10.652883182008853,0.89236318587804353
75,10.261860956327629,0.76151715306764123
90,7.0819717698244515,0.58233010674398211
105,6.0772798768321286,0.40727498351074665
120,3.6163314591086624,0.28615456707905557
135,3.144824749707666,0.2661909940758192
150,4.4399211544565267,0.36350733045891481
)";

}  // namespace

Measurement_series ftsz_population_dataset() {
    return series_from_table(read_csv_string(ftsz_csv), "ftsZ (synthetic, McGrath-like)");
}

Ftsz_generation_info ftsz_generation_info() { return {}; }

}  // namespace cellsync

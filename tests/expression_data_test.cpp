#include "io/expression_data.h"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "biology/gene_profiles.h"
#include "core/forward_model.h"

namespace cellsync {
namespace {

TEST(ExpressionData, SeriesFromTableHappyPath) {
    Table t;
    t.add_column("time", {0.0, 15.0});
    t.add_column("value", {1.0, 2.0});
    t.add_column("sigma", {0.1, 0.2});
    const Measurement_series s = series_from_table(t, "gene");
    EXPECT_EQ(s.label, "gene");
    EXPECT_DOUBLE_EQ(s.sigmas[1], 0.2);
}

TEST(ExpressionData, SigmaColumnOptionalDefaultsToUnit) {
    Table t;
    t.add_column("time", {0.0, 15.0});
    t.add_column("value", {1.0, 2.0});
    const Measurement_series s = series_from_table(t, "gene");
    EXPECT_DOUBLE_EQ(s.sigmas[0], 1.0);
}

TEST(ExpressionData, MissingColumnsRejected) {
    Table t;
    t.add_column("time", {0.0, 15.0});
    EXPECT_THROW(series_from_table(t, "gene"), std::invalid_argument);
    Table t2;
    t2.add_column("value", {1.0, 2.0});
    EXPECT_THROW(series_from_table(t2, "gene"), std::invalid_argument);
}

TEST(ExpressionData, TableFromSeriesRoundTrip) {
    const Measurement_series s =
        Measurement_series::with_unit_sigma("g", {0.0, 10.0}, {3.0, 4.0});
    const Table t = table_from_series(s);
    const Measurement_series back = series_from_table(t, s.label);
    EXPECT_DOUBLE_EQ(back.values[1], 4.0);
    EXPECT_DOUBLE_EQ(back.times[0], 0.0);
}

TEST(ExpressionData, EmbeddedFtszDatasetParsesAndValidates) {
    const Measurement_series s = ftsz_population_dataset();
    EXPECT_NO_THROW(s.validate());
    EXPECT_EQ(s.size(), 11u);  // 0..150 min at 15-min spacing
    EXPECT_DOUBLE_EQ(s.times.front(), 0.0);
    EXPECT_DOUBLE_EQ(s.times.back(), 150.0);
    for (double v : s.values) EXPECT_GT(v, 0.0);
}

TEST(ExpressionData, PanelFromWideTable) {
    Table t;
    t.add_column("time", {0.0, 15.0, 30.0});
    t.add_column("dnaA", {1.0, 2.0, 3.0});
    t.add_column("dnaA_sigma", {0.1, 0.2, 0.3});
    t.add_column("ftsZ", {4.0, 5.0, 6.0});
    const auto panel = panel_from_table(t);
    ASSERT_EQ(panel.size(), 2u);
    EXPECT_EQ(panel[0].label, "dnaA");
    EXPECT_DOUBLE_EQ(panel[0].sigmas[1], 0.2);
    EXPECT_EQ(panel[1].label, "ftsZ");
    EXPECT_DOUBLE_EQ(panel[1].sigmas[1], 1.0);  // unit sigma when absent
    EXPECT_DOUBLE_EQ(panel[1].values[2], 6.0);
    EXPECT_DOUBLE_EQ(panel[0].times[2], 30.0);
}

TEST(ExpressionData, PanelValidationErrors) {
    Table no_time;
    no_time.add_column("geneA", {1.0, 2.0});
    EXPECT_THROW(panel_from_table(no_time), std::invalid_argument);

    Table only_time;
    only_time.add_column("time", {0.0, 15.0});
    EXPECT_THROW(panel_from_table(only_time), std::invalid_argument);

    Table stray_sigma;
    stray_sigma.add_column("time", {0.0, 15.0});
    stray_sigma.add_column("geneA", {1.0, 2.0});
    stray_sigma.add_column("geneB_sigma", {0.1, 0.2});
    EXPECT_THROW(panel_from_table(stray_sigma), std::invalid_argument);

    // 'time' is not a gene, so it cannot own a sigma column; this must be
    // rejected rather than silently dropped.
    Table time_sigma;
    time_sigma.add_column("time", {0.0, 15.0});
    time_sigma.add_column("time_sigma", {0.1, 0.2});
    time_sigma.add_column("geneA", {1.0, 2.0});
    EXPECT_THROW(panel_from_table(time_sigma), std::invalid_argument);
}

TEST(ExpressionData, FtszGenerationInfoMatchesDocumentedProvenance) {
    const Ftsz_generation_info info = ftsz_generation_info();
    EXPECT_DOUBLE_EQ(info.onset, 0.16);
    EXPECT_DOUBLE_EQ(info.peak_phi, 0.40);
    EXPECT_DOUBLE_EQ(info.noise_level, 0.08);
}

TEST(ExpressionData, FtszDatasetRegeneratesBitIdenticallyFromItsRecipe) {
    // The recipe of tools/generate_ftsz_dataset: the embedded values must
    // be exactly what it prints, so a change to the simulator, the
    // forward model or the noise draws cannot go unnoticed.
    const Ftsz_generation_info info = ftsz_generation_info();
    const Gene_profile truth =
        ftsz_like_profile(info.onset, info.peak_phi, info.peak_level, info.final_level);
    Kernel_build_options options;
    options.n_cells = 50000;
    options.n_bins = 200;
    options.seed = info.kernel_seed;
    const Kernel_grid kernel = simulate_kernel(Cell_cycle_config{}, Smooth_volume_model{},
                                               linspace(0.0, 150.0, 11), options);
    Measurement_series clean = forward_measurements(kernel, truth.f);
    for (double& v : clean.values) v += info.background;
    Rng rng(info.noise_seed);
    const Measurement_series regenerated =
        add_noise(clean, Noise_model{Noise_type::relative_gaussian, info.noise_level}, rng);

    const Measurement_series embedded = ftsz_population_dataset();
    ASSERT_EQ(regenerated.size(), embedded.size());
    for (std::size_t m = 0; m < embedded.size(); ++m) {
        EXPECT_EQ(std::memcmp(&regenerated.times[m], &embedded.times[m], sizeof(double)), 0)
            << "time " << m;
        EXPECT_EQ(std::memcmp(&regenerated.values[m], &embedded.values[m], sizeof(double)), 0)
            << "value " << m << ": " << regenerated.values[m] << " vs " << embedded.values[m];
        EXPECT_EQ(std::memcmp(&regenerated.sigmas[m], &embedded.sigmas[m], sizeof(double)), 0)
            << "sigma " << m;
    }
}

}  // namespace
}  // namespace cellsync

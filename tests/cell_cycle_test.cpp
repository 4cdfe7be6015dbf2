#include "biology/cell_cycle.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "numerics/statistics.h"

namespace cellsync {
namespace {

TEST(CellCycleConfig, DefaultsMatchPaper) {
    const Cell_cycle_config config;
    EXPECT_DOUBLE_EQ(config.mu_sst, 0.15);        // 2011 updated value
    EXPECT_DOUBLE_EQ(config.cv_sst, 0.13);
    EXPECT_DOUBLE_EQ(config.mean_cycle_minutes, 150.0);
    EXPECT_NO_THROW(config.validate());
    EXPECT_NEAR(config.sigma_sst(), 0.0195, 1e-12);
}

TEST(CellCycleConfig, ValidationCatchesBadFields) {
    Cell_cycle_config c;
    c.mu_sst = 0.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c = {};
    c.mu_sst = 1.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c = {};
    c.cv_sst = -0.1;
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c = {};
    c.mean_cycle_minutes = 0.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c = {};
    c.cv_cycle = 1.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(DrawCellParameters, DistributionMomentsMatchConfig) {
    const Cell_cycle_config config;
    Rng rng(101);
    Vector phi_sst(20000), cycles(20000);
    for (std::size_t i = 0; i < phi_sst.size(); ++i) {
        const Cell_parameters p = draw_cell_parameters(config, rng);
        phi_sst[i] = p.phi_sst;
        cycles[i] = p.cycle_minutes;
    }
    EXPECT_NEAR(mean(phi_sst), 0.15, 0.002);
    EXPECT_NEAR(stddev(phi_sst), 0.0195, 0.002);
    EXPECT_NEAR(mean(cycles), 150.0, 1.0);
    EXPECT_NEAR(stddev(cycles), 18.0, 1.0);
}

TEST(DrawCellParameters, DrawsAreTruncatedToSaneWindows) {
    Cell_cycle_config config;
    config.cv_sst = 0.9;  // extreme spread to exercise truncation
    config.cv_cycle = 0.9;
    Rng rng(13);
    for (int i = 0; i < 5000; ++i) {
        const Cell_parameters p = draw_cell_parameters(config, rng);
        EXPECT_GT(p.phi_sst, 0.0);
        EXPECT_LT(p.phi_sst, 1.0);
        EXPECT_GE(p.cycle_minutes, 0.2 * config.mean_cycle_minutes);
        EXPECT_LE(p.cycle_minutes, 3.0 * config.mean_cycle_minutes);
    }
}

TEST(DrawInitialPhase, SynchronizedSwarmersStartInSwStage) {
    const Cell_cycle_config config;
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        const Cell_parameters p = draw_cell_parameters(config, rng);
        const double phi0 = draw_initial_phase(p, rng);
        EXPECT_GE(phi0, 0.0);
        EXPECT_LE(phi0, p.phi_sst);  // paper: phi_k(0) <= phi_sst_k
    }
}

TEST(AdvancePhase, LinearInTimeOverCycle) {
    const Cell_parameters p{0.15, 150.0};
    EXPECT_DOUBLE_EQ(advance_phase(0.0, 75.0, p), 0.5);
    EXPECT_DOUBLE_EQ(advance_phase(0.2, 30.0, p), 0.4);
    EXPECT_THROW(advance_phase(0.0, 10.0, Cell_parameters{0.15, 0.0}), std::invalid_argument);
}

}  // namespace
}  // namespace cellsync

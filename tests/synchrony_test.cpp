#include "population/synchrony.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <stdexcept>

#include "numerics/rng.h"

namespace cellsync {
namespace {

std::vector<Snapshot_entry> snapshot_at_phases(const Vector& phases) {
    std::vector<Snapshot_entry> snap;
    for (double phi : phases) snap.push_back({phi, 0.15, 1.0});
    return snap;
}

TEST(Synchrony, PerfectSynchronyGivesOrderOne) {
    const auto snap = snapshot_at_phases(Vector(100, 0.3));
    EXPECT_NEAR(phase_order_parameter(snap), 1.0, 1e-12);
}

TEST(Synchrony, UniformPhasesGiveOrderNearZero) {
    Vector phases;
    for (int i = 0; i < 1000; ++i) phases.push_back((i + 0.5) / 1000.0);
    EXPECT_NEAR(phase_order_parameter(snapshot_at_phases(phases)), 0.0, 1e-10);
}

TEST(Synchrony, OppositePhasesCancel) {
    EXPECT_NEAR(phase_order_parameter(snapshot_at_phases({0.0, 0.5})), 0.0, 1e-12);
}

TEST(Synchrony, EntropyZeroWhenConcentrated) {
    const auto snap = snapshot_at_phases(Vector(50, 0.42));
    EXPECT_NEAR(phase_entropy(snap, 50), 0.0, 1e-12);
}

TEST(Synchrony, EntropyOneWhenUniform) {
    Vector phases;
    for (int i = 0; i < 5000; ++i) phases.push_back((i + 0.5) / 5000.0);
    EXPECT_NEAR(phase_entropy(snapshot_at_phases(phases), 50), 1.0, 1e-6);
}

TEST(Synchrony, PopulationDesynchronizesOverTime) {
    Population_simulator sim(Cell_cycle_config{}, 20000, 17);
    const Smooth_volume_model vm;
    const double r0 = phase_order_parameter(sim.snapshot(vm));
    const double h0 = phase_entropy(sim.snapshot(vm));
    sim.advance_to(300.0);  // two mean cycles
    const double r1 = phase_order_parameter(sim.snapshot(vm));
    const double h1 = phase_entropy(sim.snapshot(vm));
    EXPECT_GT(r0, 0.9);   // synchronized isolate
    EXPECT_LT(r1, r0);    // decays toward asynchrony
    EXPECT_GT(h1, h0);    // spread increases
}

TEST(Synchrony, ValidationErrors) {
    EXPECT_THROW(phase_order_parameter({}), std::invalid_argument);
    EXPECT_THROW(phase_entropy({}, 50), std::invalid_argument);
    EXPECT_THROW(phase_entropy(snapshot_at_phases({0.5}), 1), std::invalid_argument);
}

TEST(Synchrony, FlatProfileIsMaximallyEntropicAndUnordered) {
    const Vector phi = linspace(0.0, 1.0, 64);
    const Vector flat(64, 3.0);
    EXPECT_NEAR(profile_entropy(flat), 1.0, 1e-12);
    // The closed grid double-counts phi = 0/1; the resultant of the 63
    // distinct uniform samples cancels, leaving only that overlap.
    EXPECT_LT(profile_order_parameter(phi, flat), 0.05);
}

TEST(Synchrony, PeakedProfileIsOrderedAndLowEntropy) {
    const Vector phi = linspace(0.0, 1.0, 101);
    Vector values(101, 0.0);
    values[40] = 5.0;  // all expression at phi = 0.4
    EXPECT_NEAR(profile_entropy(values), 0.0, 1e-12);
    EXPECT_NEAR(profile_order_parameter(phi, values), 1.0, 1e-12);
}

TEST(Synchrony, ProfileMetricsClampNegativeLobes) {
    // Spline estimates can undershoot below zero; the metrics must treat
    // negative lobes as zero expression, not as (meaningless) negative mass.
    const Vector phi{0.1, 0.3, 0.5, 0.7, 0.9};
    const Vector values{-2.0, 4.0, -1.0, 0.0, 0.0};
    EXPECT_NEAR(profile_order_parameter(phi, values), 1.0, 1e-12);
    EXPECT_NEAR(profile_entropy(values), 0.0, 1e-12);
}

TEST(Synchrony, ProfileMetricValidationErrors) {
    EXPECT_THROW(profile_order_parameter({0.1, 0.2}, {1.0}), std::invalid_argument);
    EXPECT_THROW(profile_order_parameter({}, {}), std::invalid_argument);
    EXPECT_THROW(profile_entropy({1.0}), std::invalid_argument);
    // All-nonpositive profile has no mass to normalize.
    EXPECT_THROW(profile_entropy({-1.0, 0.0, -0.5}), std::invalid_argument);
    EXPECT_THROW(profile_order_parameter({0.1, 0.5}, {0.0, -1.0}), std::invalid_argument);
}

TEST(Synchrony, ClosedGridScoresLikeItsOpenPart) {
    // The 201-point output grid repeats phi = 0 as phi = 1. score_profile
    // drops that last sample, so the closed grid scores exactly like its
    // first 200 points; here the duplicate is also the global maximum,
    // which would otherwise move the peak to phi = 1.
    const Vector phi = linspace(0.0, 1.0, 201);
    Vector values(201);
    for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] = 1.0 + std::cos(2.0 * std::numbers::pi * phi[i]) + 0.5 * phi[i];
    }
    const Vector open_phi(phi.begin(), phi.end() - 1);
    const Vector open_values(values.begin(), values.end() - 1);
    const Profile_scores closed = score_profile(phi, values);
    const Profile_scores open = score_profile(open_phi, open_values);
    EXPECT_EQ(closed.order_parameter, open.order_parameter);
    EXPECT_EQ(closed.entropy, open.entropy);
    EXPECT_EQ(closed.peak_phi, open.peak_phi);
    EXPECT_EQ(open.order_parameter, profile_order_parameter(open_phi, open_values));
    EXPECT_EQ(open.entropy, profile_entropy(open_values));
    EXPECT_EQ(open.peak_phi, phi[199]);
}

/// The order parameter with a sin and cos per sample: clamp at zero,
/// normalize to unit mass, sum p cos(2 pi phi) and p sin(2 pi phi).
double reference_order_parameter(const Vector& phi, const Vector& values) {
    Vector p(values.size());
    double total = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        p[i] = std::max(values[i], 0.0);
        total += p[i];
    }
    for (double& v : p) v /= total;
    double re = 0.0, im = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
        const double a = 2.0 * std::numbers::pi * phi[i];
        re += p[i] * std::cos(a);
        im += p[i] * std::sin(a);
    }
    return std::sqrt(re * re + im * im);
}

TEST(Synchrony, PhaseTableScoresLikeProfileOrderParameter) {
    // The stream's scoring grid (64 open points) and the 201-point output
    // grid: random profiles with negative lobes score bit for bit as the
    // per-sample sin/cos reference and profile_order_parameter, and a
    // profile with no positive mass is nullopt where
    // profile_order_parameter throws.
    Rng rng(29);
    Vector open_64 = linspace(0.0, 1.0, 65);
    open_64.pop_back();
    for (const Vector& phi : {open_64, linspace(0.0, 1.0, 201)}) {
        const Phase_table table(phi);
        ASSERT_EQ(table.size(), phi.size());
        for (int trial = 0; trial < 50; ++trial) {
            Vector values(phi.size());
            for (double& v : values) v = rng.normal(0.5, 1.0);
            const std::optional<double> r = table.order_parameter(values);
            ASSERT_TRUE(r.has_value());
            EXPECT_EQ(*r, reference_order_parameter(phi, values));
            EXPECT_EQ(*r, profile_order_parameter(phi, values));
        }
        for (const Vector& values : {Vector(phi.size(), 0.0), Vector(phi.size(), -1.0)}) {
            EXPECT_FALSE(table.order_parameter(values).has_value());
            EXPECT_THROW(profile_order_parameter(phi, values), std::invalid_argument);
        }
        Vector one_sample(phi.size(), -1.0);
        one_sample[phi.size() / 3] = 1e-300;
        EXPECT_EQ(*table.order_parameter(one_sample), reference_order_parameter(phi, one_sample));
        EXPECT_THROW(table.order_parameter(Vector(phi.size() + 1, 1.0)), std::invalid_argument);
    }
    EXPECT_THROW(Phase_table(Vector{0.5}).order_parameter({1.0}), std::invalid_argument);
}

TEST(Synchrony, ProfileScorerScoresEveryProfileLikeTheReference) {
    // One scorer on the closed 201-point output grid scores profile after
    // profile exactly as the per-sample reference on the open 200 points:
    // order parameter, entropy and the first maximum's phase.
    Rng rng(41);
    const Vector phi = linspace(0.0, 1.0, 201);
    const Vector open_phi(phi.begin(), phi.end() - 1);
    const Profile_scorer scorer(phi);
    for (int trial = 0; trial < 50; ++trial) {
        Vector values(phi.size());
        for (double& v : values) v = rng.normal(0.5, 1.0);
        const Vector open_values(values.begin(), values.end() - 1);
        const Profile_scores scores = scorer(values);
        EXPECT_EQ(scores.order_parameter, reference_order_parameter(open_phi, open_values));
        EXPECT_EQ(scores.entropy, profile_entropy(open_values));
        const auto peak = std::max_element(open_values.begin(), open_values.end());
        EXPECT_EQ(scores.peak_phi, open_phi[static_cast<std::size_t>(peak - open_values.begin())]);
    }
    EXPECT_THROW(scorer(Vector(phi.size(), -1.0)), std::invalid_argument);
    EXPECT_THROW(scorer(Vector(phi.size() - 1, 1.0)), std::invalid_argument);
}

TEST(Synchrony, ScoreProfileRejectsMismatchAndNoPositiveMass) {
    EXPECT_THROW(score_profile({0.0, 0.5, 1.0}, {1.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(score_profile(linspace(0.0, 1.0, 5), Vector(5, -1.0)), std::invalid_argument);
}

}  // namespace
}  // namespace cellsync

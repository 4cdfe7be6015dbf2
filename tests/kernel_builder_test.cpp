#include "population/kernel_builder.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "spline/spline_basis.h"

namespace cellsync {
namespace {

Kernel_build_options small_options() {
    Kernel_build_options o;
    o.n_cells = 20000;
    o.n_bins = 100;
    o.seed = 31;
    return o;
}

TEST(KernelGrid, ConstructorValidatesShapes) {
    const Vector times{0.0, 10.0};
    const Vector centers{0.25, 0.75};
    Matrix q(2, 2, 1.0);  // each row: density 1 everywhere = integrates to 1
    EXPECT_NO_THROW(Kernel_grid(times, centers, q));
    EXPECT_THROW(Kernel_grid({}, centers, q), std::invalid_argument);
    EXPECT_THROW(Kernel_grid(times, centers, Matrix(3, 2, 1.0)), std::invalid_argument);
    // Row not integrating to 1:
    Matrix bad(2, 2, 2.0);
    EXPECT_THROW(Kernel_grid(times, centers, bad), std::invalid_argument);
    // Negative density:
    Matrix neg(2, 2, 1.0);
    neg(0, 0) = -1.0;
    neg(0, 1) = 3.0;
    EXPECT_THROW(Kernel_grid(times, centers, neg), std::invalid_argument);
    // Non-finite times, even where they still ascend:
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const Vector& bad_times : {Vector{0.0, nan}, Vector{nan, 10.0}, Vector{0.0, inf},
                                    Vector{-inf, 10.0}}) {
        EXPECT_THROW(Kernel_grid(bad_times, centers, q), std::invalid_argument)
            << bad_times[0] << ", " << bad_times[1];
    }
    // Phase centers that are non-finite or outside (0, 1), even where
    // they still ascend:
    const Matrix q4(2, 4, 1.0);
    for (const Vector& bad_centers :
         {Vector{-5.0, 0.5, 7.0, 9.0}, Vector{0.0, 0.25, 0.5, 0.75},
          Vector{0.25, 0.5, 0.75, 1.0}, Vector{0.25, 0.5, 0.75, inf},
          Vector{nan, 0.25, 0.5, 0.75}}) {
        EXPECT_THROW(Kernel_grid(times, bad_centers, q4), std::invalid_argument)
            << bad_centers[0] << " .. " << bad_centers[3];
    }
    try {
        Kernel_grid({0.0, 60.0, inf}, {0.25, 0.75}, Matrix(3, 2, 1.0));
        ADD_FAILURE() << "an infinite time was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("time 2 is inf"), std::string::npos) << e.what();
    }
}

TEST(KernelGrid, SmallRowMassDriftIsRenormalizedNotRejected) {
    // Regression: a fixed 1e-6 row-mass gate rejected valid high-resolution
    // kernels whose summation rounding scales with n_bins. A uniform row
    // carrying a 5e-6 relative drift at 8000 bins is within the scaled
    // tolerance (1e-9 * n_bins = 8e-6) and must be renormalized, not thrown.
    const std::size_t bins = 8000;
    Vector centers(bins);
    for (std::size_t b = 0; b < bins; ++b) {
        centers[b] = (static_cast<double>(b) + 0.5) / static_cast<double>(bins);
    }
    const double drift = 1.0 + 5e-6;
    Matrix q(2, bins, drift);  // each row mass = 1 + 5e-6
    const Kernel_grid k({0.0, 10.0}, centers, q);
    for (std::size_t m = 0; m < 2; ++m) {
        double mass = 0.0;
        for (std::size_t b = 0; b < bins; ++b) mass += k.q()(m, b) * k.bin_width();
        EXPECT_NEAR(mass, 1.0, 1e-12) << "row " << m << " not renormalized";
    }
}

TEST(KernelGrid, GenuinelyNonNormalizableRowsStillHardError) {
    const Vector times{0.0, 10.0};
    const Vector centers{0.25, 0.75};
    // Mass far from 1.
    EXPECT_THROW(Kernel_grid(times, centers, Matrix(2, 2, 1.5)), std::invalid_argument);
    // Zero mass cannot be renormalized.
    EXPECT_THROW(Kernel_grid(times, centers, Matrix(2, 2, 0.0)), std::invalid_argument);
}

TEST(KernelGrid, ExactRowsSurviveRoundTripBitIdentically) {
    // Rows already at unit mass within the rounding floor must not be
    // touched: renormalizing them would perturb entries by an ulp-scale
    // factor and break serialize/load bit-identity.
    const std::size_t bins = 50;
    Vector centers(bins);
    Vector row(bins);
    double mass = 0.0;
    for (std::size_t b = 0; b < bins; ++b) {
        centers[b] = (static_cast<double>(b) + 0.5) / static_cast<double>(bins);
        row[b] = 1.0 + 0.5 * std::sin(2.0 * 3.141592653589793 * centers[b]);
        mass += row[b] / static_cast<double>(bins);
    }
    for (std::size_t b = 0; b < bins; ++b) row[b] /= mass;  // normalize once
    Matrix q(1, bins);
    q.set_row(0, row);
    const Kernel_grid first({0.0}, centers, q);
    const Kernel_grid second({0.0}, first.phi_centers(), first.q());
    for (std::size_t b = 0; b < bins; ++b) {
        EXPECT_EQ(first.q()(0, b), second.q()(0, b)) << "bin " << b;
    }
}

TEST(BuildKernel, RowsIntegrateToOneAtAllTimes) {
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Kernel_grid k = build_kernel(config, vm, linspace(0.0, 180.0, 13), small_options());
    EXPECT_EQ(k.time_count(), 13u);
    EXPECT_EQ(k.bin_count(), 100u);
    for (std::size_t m = 0; m < k.time_count(); ++m) {
        double mass = 0.0;
        for (std::size_t b = 0; b < k.bin_count(); ++b) mass += k.q()(m, b) * k.bin_width();
        EXPECT_NEAR(mass, 1.0, 1e-9) << "time " << k.times()[m];
    }
}

TEST(BuildKernel, InitialKernelConcentratedInSwarmerStage) {
    // At t=0 a synchronized culture has all cells below their phi_sst
    // (~0.15), so virtually all kernel mass sits at low phase.
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Kernel_grid k = build_kernel(config, vm, {0.0, 75.0}, small_options());
    double low_mass = 0.0;
    for (std::size_t b = 0; b < k.bin_count(); ++b) {
        if (k.phi_centers()[b] < 0.25) low_mass += k.q()(0, b) * k.bin_width();
    }
    EXPECT_GT(low_mass, 0.99);
}

TEST(BuildKernel, KernelSpreadsWithTime) {
    // Asynchrony grows: the phase spread at 150 min far exceeds t=0.
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Kernel_grid k = build_kernel(config, vm, {0.0, 150.0}, small_options());
    auto spread = [&](std::size_t row) {
        double mean_phi = 0.0;
        for (std::size_t b = 0; b < k.bin_count(); ++b) {
            mean_phi += k.phi_centers()[b] * k.q()(row, b) * k.bin_width();
        }
        double var = 0.0;
        for (std::size_t b = 0; b < k.bin_count(); ++b) {
            const double d = k.phi_centers()[b] - mean_phi;
            var += d * d * k.q()(row, b) * k.bin_width();
        }
        return std::sqrt(var);
    };
    EXPECT_GT(spread(1), 3.0 * spread(0));
}

TEST(BuildKernel, ConstantProfileIsFixedPoint) {
    // G(t) = integral Q * c = c at every time: deconvolution's sanity
    // anchor (concentration is volume-normalized).
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Kernel_grid k = build_kernel(config, vm, linspace(0.0, 180.0, 7), small_options());
    const Vector g = k.apply([](double) { return 3.7; });
    for (double v : g) EXPECT_NEAR(v, 3.7, 1e-9);
}

TEST(BuildKernel, ApplySampledMatchesApply) {
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Kernel_grid k = build_kernel(config, vm, {0.0, 60.0}, small_options());
    const auto f = [](double phi) { return 1.0 + phi * phi; };
    Vector fv(k.bin_count());
    for (std::size_t b = 0; b < k.bin_count(); ++b) fv[b] = f(k.phi_centers()[b]);
    const Vector g1 = k.apply(f);
    const Vector g2 = k.apply_sampled(fv);
    for (std::size_t m = 0; m < g1.size(); ++m) EXPECT_DOUBLE_EQ(g1[m], g2[m]);
    EXPECT_THROW(k.apply_sampled(Vector(3, 1.0)), std::invalid_argument);
}

TEST(BuildKernel, BasisMatrixConsistentWithApply) {
    // K alpha must equal apply(f_alpha) for any coefficients.
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Kernel_grid k = build_kernel(config, vm, linspace(0.0, 120.0, 5), small_options());
    const auto basis = Natural_spline_basis(8);
    const Matrix km = k.basis_matrix(basis);
    EXPECT_EQ(km.rows(), 5u);
    EXPECT_EQ(km.cols(), 8u);
    Vector alpha(8);
    for (std::size_t i = 0; i < 8; ++i) alpha[i] = 1.0 + std::sin(static_cast<double>(i));
    const Vector via_matrix = km * alpha;
    const Vector via_apply = k.apply([&](double phi) { return basis.expand(alpha, phi); });
    for (std::size_t m = 0; m < 5; ++m) EXPECT_NEAR(via_matrix[m], via_apply[m], 1e-10);
}

TEST(BuildKernel, DependsOnNoCellCountOrSeed) {
    // The kernel is computed, not sampled: repeated calls agree bit for
    // bit, and the Monte-Carlo controls (even zero cells) change nothing.
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Kernel_grid a = build_kernel(config, vm, {0.0, 90.0}, small_options());
    Kernel_build_options other = small_options();
    other.n_cells = 0;
    other.seed = 32;
    const Kernel_grid b = build_kernel(config, vm, {0.0, 90.0}, other);
    for (std::size_t m = 0; m < a.time_count(); ++m) {
        for (std::size_t c = 0; c < a.bin_count(); ++c) EXPECT_EQ(a.q()(m, c), b.q()(m, c));
    }
}

TEST(SimulateKernel, DeterministicGivenSeed) {
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Kernel_grid a = simulate_kernel(config, vm, {0.0, 90.0}, small_options());
    const Kernel_grid b = simulate_kernel(config, vm, {0.0, 90.0}, small_options());
    for (std::size_t m = 0; m < a.time_count(); ++m) {
        for (std::size_t c = 0; c < a.bin_count(); ++c) {
            EXPECT_DOUBLE_EQ(a.q()(m, c), b.q()(m, c));
        }
    }
}

TEST(BuildKernel, ValidationErrors) {
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    EXPECT_THROW(build_kernel(config, vm, {}, small_options()), std::invalid_argument);
    EXPECT_THROW(build_kernel(config, vm, {-1.0, 10.0}, small_options()),
                 std::invalid_argument);
    EXPECT_THROW(build_kernel(config, vm, {10.0, 5.0}, small_options()),
                 std::invalid_argument);
    Kernel_build_options bad = small_options();
    bad.n_bins = 0;
    EXPECT_THROW(build_kernel(config, vm, {0.0, 10.0}, bad), std::invalid_argument);
    Cell_cycle_config bad_config;
    bad_config.mean_cycle_minutes = 0.0;
    EXPECT_THROW(build_kernel(bad_config, vm, {0.0, 10.0}, small_options()),
                 std::invalid_argument);
}

TEST(SimulateKernel, ValidationErrors) {
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    EXPECT_THROW(simulate_kernel(config, vm, {}, small_options()), std::invalid_argument);
    EXPECT_THROW(simulate_kernel(config, vm, {-1.0, 10.0}, small_options()),
                 std::invalid_argument);
    EXPECT_THROW(simulate_kernel(config, vm, {10.0, 5.0}, small_options()),
                 std::invalid_argument);
    Kernel_build_options bad = small_options();
    bad.n_cells = 0;
    EXPECT_THROW(simulate_kernel(config, vm, {0.0, 10.0}, bad), std::invalid_argument);
    bad = small_options();
    bad.n_bins = 0;
    EXPECT_THROW(simulate_kernel(config, vm, {0.0, 10.0}, bad), std::invalid_argument);
}

using Kernel_function = Kernel_grid (*)(const Cell_cycle_config&, const Volume_model&,
                                        const Vector&, const Kernel_build_options&);

/// The std::invalid_argument message `build` throws for these inputs, or
/// "" if it throws none.
std::string rejection(Kernel_function build, const Vector& times,
                      const Kernel_build_options& options,
                      const Cell_cycle_config& config = {}) {
    try {
        build(config, Smooth_volume_model{}, times, options);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(BuildKernel, RejectsNonFiniteTimesNamingIndexAndValue) {
    // NaN passes a `t < 0` check, and the simulator then divided every
    // cell forever; +inf did the same. Both functions check first.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const Kernel_function build : {Kernel_function{build_kernel},
                                        Kernel_function{simulate_kernel}}) {
        EXPECT_NE(rejection(build, {nan}, small_options()).find("time 0 is nan"),
                  std::string::npos);
        EXPECT_NE(rejection(build, {inf}, small_options()).find("time 0 is inf"),
                  std::string::npos);
        EXPECT_NE(rejection(build, {0.0, 30.0, nan}, small_options()).find("time 2 is nan"),
                  std::string::npos);
        EXPECT_NE(rejection(build, {-inf, 0.0}, small_options()).find("time 0 is -inf"),
                  std::string::npos);
    }
}

TEST(BuildKernel, CapsTheTimeSpanInMeanCycles) {
    // The renewal grid has 1500 steps per mean cycle, so the span is
    // checked before anything is allocated; the message names the span,
    // the mean cycle time and the cap.
    const std::string message =
        rejection(build_kernel, {0.0, 1e300}, small_options());
    EXPECT_NE(message.find("time span 1e+300 min"), std::string::npos) << message;
    EXPECT_NE(message.find("mean cycles of 150 min"), std::string::npos) << message;
    EXPECT_NE(message.find("cap of 256 cycles"), std::string::npos) << message;
    Cell_cycle_config fast;
    fast.mean_cycle_minutes = 10.0;
    EXPECT_NE(rejection(build_kernel, {0.0, 2561.0}, small_options(), fast).find("cap of 256"),
              std::string::npos);
    // The cap counts mean cycles whatever the cycle-time spread. A narrow
    // spread keeps the renewal convolution's window over g short, and so
    // the build at the cap fast.
    Cell_cycle_config fast_narrow = fast;
    fast_narrow.cv_cycle = 0.03;
    EXPECT_EQ(rejection(build_kernel, {0.0, 2560.0}, small_options(), fast_narrow), "");
}

TEST(BuildKernel, LongSpanStaysNormalized) {
    // Twelve mean cycles: the population grows about 2^12-fold, which the
    // simulator had to hold cell by cell. The computed kernel keeps a
    // bounded, rescaled division rate, and its rows settle into the
    // asynchronous steady state: one cycle apart, the last two rows
    // differ far less than the first two.
    const Kernel_grid k = build_kernel(Cell_cycle_config{}, Smooth_volume_model{},
                                       linspace(0.0, 1800.0, 13), small_options());
    for (std::size_t m = 0; m < k.time_count(); ++m) {
        double mass = 0.0;
        for (std::size_t b = 0; b < k.bin_count(); ++b) {
            ASSERT_TRUE(std::isfinite(k.q()(m, b)));
            mass += k.q()(m, b) * k.bin_width();
        }
        EXPECT_NEAR(mass, 1.0, 1e-9);
    }
    const auto change = [&](std::size_t m) {
        double l1 = 0.0;
        for (std::size_t b = 0; b < k.bin_count(); ++b) {
            l1 += std::abs(k.q()(m + 1, b) - k.q()(m, b)) * k.bin_width();
        }
        return l1;
    };
    EXPECT_LT(change(k.time_count() - 2), 0.01 * change(0));
}

TEST(SimulateKernel, CapsCellsBeforeAllocating) {
    // Either count would allocate far beyond memory (or overflow the
    // simulator's reserve) if it got past the check.
    for (const std::size_t cells :
         {max_kernel_cells + 1, std::numeric_limits<std::size_t>::max()}) {
        Kernel_build_options options = small_options();
        options.n_cells = cells;
        const std::string message = rejection(simulate_kernel, {0.0, 30.0, 60.0}, options);
        EXPECT_NE(message.find("n_cells " + std::to_string(cells)), std::string::npos)
            << message;
    }
}

TEST(BuildKernel, CapsKernelValuesBeforeAllocating) {
    // 3 x (2^27 / 3 + 1) is just over the cap; the largest count would
    // overflow a times x bins product.
    for (const Kernel_function build : {Kernel_function{build_kernel},
                                        Kernel_function{simulate_kernel}}) {
        for (const std::size_t bins : {static_cast<std::size_t>(max_kernel_values / 3 + 1),
                                       std::numeric_limits<std::size_t>::max()}) {
            Kernel_build_options options = small_options();
            options.n_bins = bins;
            const std::string message = rejection(build, {0.0, 30.0, 60.0}, options);
            EXPECT_NE(message.find("n_bins " + std::to_string(bins) + " at 3 times"),
                      std::string::npos)
                << message;
        }
    }
}

/// Relative Frobenius distance ||a - b|| / ||b||.
double relative_distance(const Matrix& a, const Matrix& b) {
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) {
            num += (a(i, j) - b(i, j)) * (a(i, j) - b(i, j));
            den += b(i, j) * b(i, j);
        }
    }
    return std::sqrt(num / den);
}

TEST(BuildKernel, AgreesWithMonteCarloOracle) {
    // The computed kernel is the expectation the simulator samples. On the
    // production shape (13 times on 0..180 min, 200 bins, an 18-knot
    // kernel matrix) it must sit within the oracle's own noise of a
    // 200k-cell simulation. Each bound is 2x the worst distance over
    // oracle seeds 1..8; the computed kernel's own error is about 1e-3
    // (against a 32M-cell average), so the bounds are the oracle's noise.
    struct Case {
        const char* name;
        double cycle_minutes;
        double mu_sst;
        bool linear_volume;
        double bound;
    };
    const Case cases[] = {
        {"base", 150.0, 0.15, false, 8e-3},
        {"fast, linear volume", 120.0, 0.13, true, 8e-3},
    };
    const Vector times = linspace(0.0, 180.0, 13);
    const Natural_spline_basis basis(18);
    for (const Case& c : cases) {
        Cell_cycle_config config;
        config.mean_cycle_minutes = c.cycle_minutes;
        config.mu_sst = c.mu_sst;
        const Smooth_volume_model smooth;
        const Linear_volume_model linear;
        const Volume_model& volume =
            c.linear_volume ? static_cast<const Volume_model&>(linear) : smooth;
        Kernel_build_options oracle;
        oracle.n_cells = 200000;
        oracle.seed = 1;
        const double distance = relative_distance(
            build_kernel(config, volume, times).basis_matrix(basis),
            simulate_kernel(config, volume, times, oracle).basis_matrix(basis));
        EXPECT_LT(distance, c.bound) << c.name;
    }
}

TEST(BuildKernel, SynchronousPopulationMatchesSimulation) {
    // No spread in T or phi_sst, and phi_sst at the floor of its window:
    // the initial swarmers fill phase [0, 0.01), and each divides between
    // 148.5 and 150 min. The times are chosen so that every band of cells
    // lies inside whole bins of 0.02, so the simulation is exact with any
    // cell count: at 48.75 min every cell is in [0.325, 0.335), bin 16;
    // at 199.5 min, when every initial cell has divided and no daughter
    // has, the SW daughters fill [0.33, 0.34), bin 16, and the ST
    // daughters [0.34, 0.35), bin 17. The computed kernel must put each
    // band in its bin. It smooths a band edge over up to half a sub-cell,
    // so the times keep every band edge off the bin edges, but for phase
    // 0, below which there is nothing, and the edge the two daughter
    // bands share, where their spills nearly cancel.
    Cell_cycle_config config;
    config.mu_sst = phi_sst_min;
    config.cv_sst = 0.0;
    config.cv_cycle = 0.0;
    const Smooth_volume_model vm;
    const Vector times = {0.0, 48.75, 199.5};
    Kernel_build_options options = small_options();
    options.n_bins = 50;
    options.n_cells = 1000;
    const Kernel_grid computed = build_kernel(config, vm, times, options);
    const Kernel_grid simulated = simulate_kernel(config, vm, times, options);
    // Every row is one bin of density 50, or two bins that share it by
    // volume; the computed kernel weighs a bin by the volume at its
    // sub-cell centres, the simulation at the exact phase.
    for (std::size_t m = 0; m < times.size(); ++m) {
        for (std::size_t b = 0; b < computed.bin_count(); ++b) {
            EXPECT_NEAR(computed.q()(m, b), simulated.q()(m, b), 0.1)
                << "t " << times[m] << ", bin " << b;
        }
    }
    EXPECT_DOUBLE_EQ(simulated.q()(0, 0), 50.0);
    EXPECT_DOUBLE_EQ(simulated.q()(1, 16), 50.0);
    EXPECT_GT(simulated.q()(2, 16), 10.0);
    EXPECT_GT(simulated.q()(2, 17), 10.0);
}

TEST(BuildKernel, VolumeModelChangesKernel) {
    // The two models differ only on the swarmer stage [0, phi_sst), so
    // probe a time early enough that most cells are still swarmers.
    const Cell_cycle_config config;
    const Kernel_grid smooth =
        build_kernel(config, Smooth_volume_model{}, {6.0}, small_options());
    const Kernel_grid linear =
        build_kernel(config, Linear_volume_model{}, {6.0}, small_options());
    double diff = 0.0;
    for (std::size_t b = 0; b < smooth.bin_count(); ++b) {
        diff += std::abs(smooth.q()(0, b) - linear.q()(0, b)) * smooth.bin_width();
    }
    EXPECT_GT(diff, 1e-4);  // same cells, different volume weighting
}

}  // namespace
}  // namespace cellsync

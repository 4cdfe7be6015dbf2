#include "numerics/matrix.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "numerics/rng.h"

namespace cellsync {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Matrix, DefaultIsEmpty) {
    const Matrix m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(m.cols(), 0u);
}

TEST(Matrix, FillConstructor) {
    const Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
}

TEST(Matrix, InitializerListRowMajor) {
    const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
    EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, AtBoundsChecked) {
    Matrix m(2, 2);
    EXPECT_THROW(m.at(2, 0), std::out_of_range);
    EXPECT_THROW(m.at(0, 2), std::out_of_range);
    m.at(1, 1) = 9.0;
    EXPECT_DOUBLE_EQ(m(1, 1), 9.0);
}

TEST(Matrix, RowAndColExtraction) {
    const Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
    const Vector r = m.row(1);
    const Vector c = m.col(2);
    EXPECT_DOUBLE_EQ(r[0], 4.0);
    EXPECT_DOUBLE_EQ(c[0], 3.0);
    EXPECT_DOUBLE_EQ(c[1], 6.0);
    EXPECT_THROW(m.row(2), std::out_of_range);
    EXPECT_THROW(m.col(3), std::out_of_range);
}

TEST(Matrix, SetRowAndSetCol) {
    Matrix m(2, 2);
    m.set_row(0, {1.0, 2.0});
    m.set_col(1, {8.0, 9.0});
    EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(m(0, 1), 8.0);
    EXPECT_DOUBLE_EQ(m(1, 1), 9.0);
    EXPECT_THROW(m.set_row(0, {1.0}), std::invalid_argument);
}

TEST(Matrix, TransposedSwapsIndices) {
    const Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
    const Matrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, IdentityAndDiagonal) {
    const Matrix i = Matrix::identity(3);
    EXPECT_DOUBLE_EQ(i(1, 1), 1.0);
    EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
    const Matrix d = Matrix::diagonal({2.0, 3.0});
    EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
    EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(Matrix, FromRows) {
    const Matrix m = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_DOUBLE_EQ(m(2, 0), 5.0);
}

TEST(Matrix, AdditionSubtraction) {
    const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    const Matrix b{{10.0, 20.0}, {30.0, 40.0}};
    EXPECT_DOUBLE_EQ((a + b)(1, 1), 44.0);
    EXPECT_DOUBLE_EQ((b - a)(0, 0), 9.0);
    EXPECT_THROW(a + Matrix(1, 2), std::invalid_argument);
}

TEST(Matrix, ScalarMultiple) {
    const Matrix a{{1.0, -2.0}};
    EXPECT_DOUBLE_EQ((3.0 * a)(0, 1), -6.0);
}

TEST(Matrix, MatrixProduct) {
    const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
    const Matrix c = a * b;
    EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
    EXPECT_THROW(a * Matrix(3, 2), std::invalid_argument);
}

TEST(Matrix, MatrixVectorProduct) {
    const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    const Vector y = a * Vector{1.0, 1.0};
    EXPECT_DOUBLE_EQ(y[0], 3.0);
    EXPECT_DOUBLE_EQ(y[1], 7.0);
    EXPECT_THROW(a * Vector{1.0}, std::invalid_argument);
}

TEST(Matrix, TransposedTimesMatchesExplicitTranspose) {
    const Matrix a{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
    const Vector x{1.0, -1.0, 2.0};
    const Vector direct = transposed_times(a, x);
    const Vector explicit_t = a.transposed() * x;
    EXPECT_DOUBLE_EQ(direct[0], explicit_t[0]);
    EXPECT_DOUBLE_EQ(direct[1], explicit_t[1]);
}

TEST(Matrix, GramIsSymmetricAndCorrect) {
    const Matrix a{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
    const Matrix g = gram(a);
    EXPECT_DOUBLE_EQ(g(0, 0), 35.0);
    EXPECT_DOUBLE_EQ(g(0, 1), g(1, 0));
    EXPECT_DOUBLE_EQ(g(0, 1), 44.0);
}

TEST(Matrix, WeightedGramAppliesWeights) {
    const Matrix a{{1.0, 0.0}, {0.0, 1.0}};
    const Matrix g = weighted_gram(a, {2.0, 3.0});
    EXPECT_DOUBLE_EQ(g(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(g(1, 1), 3.0);
    EXPECT_THROW(weighted_gram(a, {1.0}), std::invalid_argument);
}

TEST(Matrix, AllFiniteAndNormInf) {
    Matrix m{{1.0, -5.0}, {2.0, 3.0}};
    EXPECT_TRUE(m.all_finite());
    EXPECT_DOUBLE_EQ(m.norm_inf(), 5.0);
    m(0, 0) = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(m.all_finite());
}

TEST(Matrix, ToStringRendersSomething) {
    const Matrix m{{1.0, 2.0}};
    EXPECT_NE(m.to_string().find("1"), std::string::npos);
}

// Non-finite policy (numerics/matrix.h): every product kernel follows IEEE
// semantics — a NaN or Inf paired with any value, including an exact zero,
// propagates. No kernel may skip terms based on runtime values.

TEST(Matrix, MatrixProductPropagatesNonFinite) {
    // NaN in A multiplied against a zero column of B: 0 * NaN = NaN.
    const Matrix a{{kNan, 1.0}, {2.0, 3.0}};
    const Matrix b{{0.0, 1.0}, {0.0, 1.0}};
    const Matrix c = a * b;
    EXPECT_TRUE(std::isnan(c(0, 0)));
    EXPECT_TRUE(std::isnan(c(0, 1)));
    EXPECT_DOUBLE_EQ(c(1, 0), 0.0);
}

TEST(Matrix, MatrixVectorProductPropagatesNonFinite) {
    const Matrix a{{1.0, kInf}, {kNan, 2.0}};
    const Vector y = a * Vector{1.0, 0.0};  // Inf * 0 = NaN, NaN * 1 = NaN
    EXPECT_TRUE(std::isnan(y[0]));
    EXPECT_TRUE(std::isnan(y[1]));
}

TEST(Matrix, TransposedTimesPropagatesNonFiniteAgainstZeroMultiplier) {
    // x[0] == 0 must NOT shortcut past the NaN row of a.
    const Matrix a{{kNan, 1.0}, {2.0, 3.0}};
    const Vector y = transposed_times(a, Vector{0.0, 1.0});
    EXPECT_TRUE(std::isnan(y[0]));
    EXPECT_DOUBLE_EQ(y[1], 3.0);

    // And a zero x entry against an Inf row: Inf * 0 = NaN.
    const Matrix b{{kInf, kInf}};
    const Vector z = transposed_times(b, Vector{0.0});
    EXPECT_TRUE(std::isnan(z[0]));
    EXPECT_TRUE(std::isnan(z[1]));
}

TEST(Matrix, WeightedGramPropagatesNonFinite) {
    const Matrix a{{kNan, 0.0}, {1.0, 1.0}};
    const Matrix g = weighted_gram(a, {1.0, 1.0});
    EXPECT_TRUE(std::isnan(g(0, 0)));
    EXPECT_TRUE(std::isnan(g(0, 1)));  // NaN * 0.0 = NaN
    EXPECT_TRUE(std::isnan(g(1, 0)));  // mirrored

    // A zero weight against a NaN row also propagates: w * NaN = NaN.
    const Matrix h = weighted_gram(a, {0.0, 1.0});
    EXPECT_TRUE(std::isnan(h(0, 0)));
}

// The chunked kernels must agree with the reference loops bit for bit:
// they only reorder work across independent output elements, never within
// one output's accumulation.

void expect_bits_eq(const Vector& a, const Vector& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]), std::bit_cast<std::uint64_t>(b[i]));
    }
}

void expect_bits_eq(const Matrix& a, const Matrix& b) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(a(i, j)),
                      std::bit_cast<std::uint64_t>(b(i, j)));
        }
    }
}

TEST(Matrix, CompiledKernelsMatchReferenceBitwise) {
    Rng rng(0xbead);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t rows = 1 + rng.index(33);  // odd sizes hit tail lanes
        const std::size_t cols = 1 + rng.index(19);
        Matrix a(rows, cols);
        for (std::size_t i = 0; i < rows; ++i) {
            for (std::size_t j = 0; j < cols; ++j) a(i, j) = rng.uniform(-2.0, 2.0);
        }
        Vector x(cols), z(rows), w(rows);
        for (double& v : x) v = rng.uniform(-3.0, 3.0);
        for (double& v : z) v = rng.uniform(-3.0, 3.0);
        for (double& v : w) v = rng.uniform(0.1, 2.0);

        expect_bits_eq(a * x, matvec_reference(a, x));
        expect_bits_eq(transposed_times(a, z), transposed_times_reference(a, z));
        expect_bits_eq(gram(a), gram_reference(a));
        expect_bits_eq(weighted_gram(a, w), weighted_gram_reference(a, w));
    }
}

// Row-subset kernels: bit-identical to copying the rows out and running
// the reference kernel on the copy.

/// Random matrix with exact zeros mixed in: whole zero rows, zero runs at
/// either end of a row (the shape of a locally supported design), and
/// scattered +/-0.0 entries.
Matrix random_with_zeros(Rng& rng, std::size_t rows, std::size_t cols) {
    Matrix a(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
        if (rng.index(6) == 0) continue;  // all-zero row
        const std::size_t begin = cols == 0 ? 0 : rng.index(cols);
        const std::size_t end = begin + (cols == begin ? 0 : 1 + rng.index(cols - begin));
        for (std::size_t j = begin; j < end; ++j) {
            const std::size_t kind = rng.index(8);
            a(i, j) = kind == 0 ? 0.0 : kind == 1 ? -0.0 : rng.uniform(-2.0, 2.0);
        }
    }
    return a;
}

Matrix copy_rows(const Matrix& a, const std::vector<std::size_t>& rows) {
    Matrix sub(rows.size(), a.cols());
    for (std::size_t r = 0; r < rows.size(); ++r) sub.set_row(r, a.row(rows[r]));
    return sub;
}

void expect_row_kernels_match_reference(const Matrix& a, const std::vector<std::size_t>& rows,
                                        const Vector& w, const Vector& x) {
    const Matrix sub = copy_rows(a, rows);
    expect_bits_eq(weighted_gram_rows(a, rows, w), weighted_gram_reference(sub, w));
    expect_bits_eq(weighted_transposed_times_rows(a, rows, w, x),
                   transposed_times_reference(sub, hadamard(w, x)));
}

TEST(Matrix, RowSubsetKernelsMatchCopyOutReferenceBitwise) {
    Rng rng(20260807);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t m = 1 + rng.index(24);
        const std::size_t n = 1 + rng.index(19);
        const Matrix a = random_with_zeros(rng, m, n);
        std::vector<std::size_t> rows(rng.index(2 * m + 1));  // may be empty
        for (std::size_t& r : rows) r = rng.index(m);         // duplicates allowed
        Vector w(rows.size()), x(rows.size());
        for (double& v : w) v = rng.uniform(0.1, 2.0);
        for (double& v : x) v = rng.index(5) == 0 ? 0.0 : rng.uniform(-3.0, 3.0);
        expect_row_kernels_match_reference(a, rows, w, x);

        Vector y(n);
        for (double& v : y) v = rng.uniform(-3.0, 3.0);
        const Vector ref = matvec_reference(a, y);
        for (std::size_t i = 0; i < m; ++i) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(row_dot(a, i, y)),
                      std::bit_cast<std::uint64_t>(ref[i]));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(row_dot(a, i, y)),
                      std::bit_cast<std::uint64_t>(dot(a.row(i), y)));
        }
    }
}

TEST(Matrix, RowSubsetKernelsDegenerateShapes) {
    const Matrix a{{1.0, 0.0, -2.0}, {0.0, 0.0, 0.0}, {3.5, -1.0, 0.25}};
    // A single row, repeated rows, an all-zero row, and the empty subset.
    expect_row_kernels_match_reference(a, {2}, Vector{1.5}, Vector{-0.5});
    expect_row_kernels_match_reference(a, {0, 0, 2, 0}, Vector{1.0, 2.0, 0.5, 4.0},
                                       Vector{1.0, -1.0, 3.0, 0.0});
    expect_row_kernels_match_reference(a, {1}, Vector{2.0}, Vector{7.0});
    expect_row_kernels_match_reference(a, {}, Vector{}, Vector{});
    expect_bits_eq(weighted_gram_rows(a, {}, Vector{}), Matrix(3, 3, 0.0));

    // n = 0: a matrix without columns gives empty products.
    const Matrix no_cols(4, 0);
    EXPECT_EQ(weighted_gram_rows(no_cols, {1, 3}, Vector{1.0, 1.0}).rows(), 0u);
    EXPECT_TRUE(weighted_transposed_times_rows(no_cols, {1, 3}, Vector{1.0, 1.0},
                                               Vector{2.0, 2.0})
                    .empty());
    EXPECT_EQ(row_dot(no_cols, 2, Vector{}), 0.0);
}

TEST(Matrix, RowSubsetKernelsPropagateNonFinite) {
    const Matrix a{{kNan, 0.0}, {1.0, 2.0}, {kInf, 0.0}};
    // A selected NaN entry reaches every output it feeds, through exact
    // zeros too (NaN * 0 = NaN).
    const Matrix g = weighted_gram_rows(a, {0, 1}, Vector{1.0, 1.0});
    EXPECT_TRUE(std::isnan(g(0, 0)));
    EXPECT_TRUE(std::isnan(g(0, 1)));
    EXPECT_TRUE(std::isnan(g(1, 0)));
    // An unselected one does not.
    const Matrix clean = weighted_gram_rows(a, {1}, Vector{1.0});
    EXPECT_TRUE(clean.all_finite());

    // Inf against a zero right-hand side: Inf * 0 = NaN; and an infinite
    // weight against the zero column: 0 * Inf = NaN.
    const Vector y = weighted_transposed_times_rows(a, {2}, Vector{1.0}, Vector{0.0});
    EXPECT_TRUE(std::isnan(y[0]));
    const Vector z = weighted_transposed_times_rows(a, {1, 2}, Vector{kInf, 1.0},
                                                    Vector{1.0, 1.0});
    EXPECT_TRUE(std::isinf(z[0]));
    EXPECT_TRUE(std::isinf(z[1]));
    const Vector u = weighted_transposed_times_rows(a, {0}, Vector{kInf}, Vector{1.0});
    EXPECT_TRUE(std::isnan(u[0]));
    EXPECT_TRUE(std::isnan(u[1]));

    EXPECT_TRUE(std::isnan(row_dot(a, 0, Vector{1.0, 1.0})));
    EXPECT_TRUE(std::isnan(row_dot(a, 2, Vector{0.0, 1.0})));  // Inf * 0
    EXPECT_TRUE(std::isnan(row_dot(a, 1, Vector{kNan, 0.0})));
}

TEST(Matrix, RowSubsetKernelsRejectBadArguments) {
    const Matrix a(3, 2, 1.0);
    EXPECT_THROW(weighted_gram_rows(a, {0}, Vector{1.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(weighted_gram_rows(a, {0, 3}, Vector{1.0, 1.0}), std::invalid_argument);
    EXPECT_THROW(weighted_transposed_times_rows(a, {0}, Vector{1.0, 2.0}, Vector{1.0}),
                 std::invalid_argument);
    EXPECT_THROW(weighted_transposed_times_rows(a, {0}, Vector{1.0}, Vector{1.0, 2.0}),
                 std::invalid_argument);
    EXPECT_THROW(weighted_transposed_times_rows(a, {9}, Vector{1.0}, Vector{1.0}),
                 std::invalid_argument);
    EXPECT_THROW(row_dot(a, 3, Vector{1.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(row_dot(a, 0, Vector{1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace cellsync

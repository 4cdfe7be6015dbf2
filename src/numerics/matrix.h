// Dense row-major matrix type used by every numerical routine in cellsync.
//
// The library deliberately owns its (small, dense) linear algebra rather
// than depending on an external package: problem sizes in the
// deconvolution pipeline are tiny (tens of basis functions, tens of
// measurements), so clarity and exact control over conditioning beats BLAS
// throughput.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "numerics/vector_ops.h"

namespace cellsync {

/// Dense row-major matrix of double.
///
/// Invariant: data_.size() == rows_ * cols_ at all times. A 0x0 matrix is
/// a valid empty state. Element access is bounds-checked in at() and
/// unchecked (assert-level contract) in operator().
class Matrix {
  public:
    /// Empty 0x0 matrix.
    Matrix() = default;

    /// rows x cols matrix, all entries `fill` (default 0).
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    /// Build from nested initializer list; all rows must have equal length.
    /// Throws std::invalid_argument on ragged input.
    Matrix(std::initializer_list<std::initializer_list<double>> rows);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return rows_ == 0 || cols_ == 0; }

    /// Unchecked element access (row i, column j).
    double& operator()(std::size_t i, std::size_t j) { return data_[i * cols_ + j]; }
    double operator()(std::size_t i, std::size_t j) const { return data_[i * cols_ + j]; }

    /// Bounds-checked element access; throws std::out_of_range.
    double& at(std::size_t i, std::size_t j);
    double at(std::size_t i, std::size_t j) const;

    /// Copy of row i as a vector. Throws std::out_of_range.
    Vector row(std::size_t i) const;

    /// Copy of column j as a vector. Throws std::out_of_range.
    Vector col(std::size_t j) const;

    /// Overwrite row i with v (v.size() must equal cols()).
    void set_row(std::size_t i, const Vector& v);

    /// Overwrite column j with v (v.size() must equal rows()).
    void set_col(std::size_t j, const Vector& v);

    /// Transposed copy.
    Matrix transposed() const;

    /// n x n identity.
    static Matrix identity(std::size_t n);

    /// n x n diagonal matrix from d.
    static Matrix diagonal(const Vector& d);

    /// Matrix whose rows are the given vectors (all equal length).
    static Matrix from_rows(const std::vector<Vector>& rows);

    /// Raw storage (row-major), useful for tests and serialization.
    const std::vector<double>& data() const { return data_; }

    /// True if every entry is finite.
    bool all_finite() const;

    /// Max absolute entry (0 for empty).
    double norm_inf() const;

    /// Human-readable rendering for diagnostics; not a serialization format.
    std::string to_string(int precision = 4) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// Matrix sum; throws std::invalid_argument on shape mismatch.
Matrix operator+(const Matrix& a, const Matrix& b);

/// Matrix difference; throws std::invalid_argument on shape mismatch.
Matrix operator-(const Matrix& a, const Matrix& b);

/// Scalar multiple.
Matrix operator*(double alpha, const Matrix& a);

/// Matrix product; throws std::invalid_argument on inner-dimension mismatch.
Matrix operator*(const Matrix& a, const Matrix& b);

// ---------------------------------------------------------------------------
// Dense product kernels.
//
// Non-finite policy (shared by every kernel below, chunked and reference
// alike): no operand value is ever inspected to skip work, so NaN and Inf
// propagate through every product exactly as IEEE arithmetic dictates,
// including against an exact zero.
//
// Accumulation order: every output element accumulates its terms in
// increasing row index (for reductions over rows) or increasing column
// index (for row-vector reductions). The chunked kernels vectorize across
// independent output elements only and keep that per-element order, so
// their results are bit-identical to the *_reference loops.
// ---------------------------------------------------------------------------

/// Matrix-vector product; throws std::invalid_argument on mismatch.
Vector operator*(const Matrix& a, const Vector& x);

/// a^T * x without forming the transpose.
Vector transposed_times(const Matrix& a, const Vector& x);

/// a^T * a (Gram matrix), exploiting symmetry of the result.
Matrix gram(const Matrix& a);

/// a^T * diag(w) * a with non-negative weights w (size = a.rows()).
Matrix weighted_gram(const Matrix& a, const Vector& w);

// Row-subset kernels: the per-gene normal equations and the CV folds run
// over a subset of the kernel rows. Each is bit-identical to copying the
// rows out into a submatrix (duplicates allowed, in the given order) and
// running the reference kernel on the copy, without the copy. Each throws
// std::invalid_argument on a length mismatch or an out-of-range row.

/// a(rows, :)^T diag(w) a(rows, :), with w[r] weighting row rows[r].
Matrix weighted_gram_rows(const Matrix& a, const std::vector<std::size_t>& rows,
                          const Vector& w);

/// a(rows, :)^T (w . x), forming each w[r] * x[r] on the fly: the K'WG
/// gather of the per-gene normal equations.
Vector weighted_transposed_times_rows(const Matrix& a, const std::vector<std::size_t>& rows,
                                      const Vector& w, const Vector& x);

/// <a.row(i), x> without the row copy; bit-identical to dot(a.row(i), x).
double row_dot(const Matrix& a, std::size_t i, const Vector& x);

// Reference kernels: the plain scalar loops, the bit-level ground truth the
// chunked kernels are property-tested against and the baseline the
// perf_deconvolve bench times them over.
Vector matvec_reference(const Matrix& a, const Vector& x);
Vector transposed_times_reference(const Matrix& a, const Vector& x);
Matrix gram_reference(const Matrix& a);
Matrix weighted_gram_reference(const Matrix& a, const Vector& w);

}  // namespace cellsync

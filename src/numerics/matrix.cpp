#include "numerics/matrix.h"

#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace cellsync {

namespace {

void require_shape(bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("Matrix: ") + what);
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
        if (r.size() != cols_) throw std::invalid_argument("Matrix: ragged initializer list");
        data_.insert(data_.end(), r.begin(), r.end());
    }
}

double& Matrix::at(std::size_t i, std::size_t j) {
    if (i >= rows_ || j >= cols_) throw std::out_of_range("Matrix::at: index out of range");
    return data_[i * cols_ + j];
}

double Matrix::at(std::size_t i, std::size_t j) const {
    if (i >= rows_ || j >= cols_) throw std::out_of_range("Matrix::at: index out of range");
    return data_[i * cols_ + j];
}

Vector Matrix::row(std::size_t i) const {
    if (i >= rows_) throw std::out_of_range("Matrix::row: index out of range");
    return Vector(data_.begin() + static_cast<std::ptrdiff_t>(i * cols_),
                  data_.begin() + static_cast<std::ptrdiff_t>((i + 1) * cols_));
}

Vector Matrix::col(std::size_t j) const {
    if (j >= cols_) throw std::out_of_range("Matrix::col: index out of range");
    Vector v(rows_);
    for (std::size_t i = 0; i < rows_; ++i) v[i] = (*this)(i, j);
    return v;
}

void Matrix::set_row(std::size_t i, const Vector& v) {
    if (i >= rows_) throw std::out_of_range("Matrix::set_row: index out of range");
    require_shape(v.size() == cols_, "set_row: length mismatch");
    for (std::size_t j = 0; j < cols_; ++j) (*this)(i, j) = v[j];
}

void Matrix::set_col(std::size_t j, const Vector& v) {
    if (j >= cols_) throw std::out_of_range("Matrix::set_col: index out of range");
    require_shape(v.size() == rows_, "set_col: length mismatch");
    for (std::size_t i = 0; i < rows_; ++i) (*this)(i, j) = v[i];
}

Matrix Matrix::transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
    return t;
}

Matrix Matrix::identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

Matrix Matrix::diagonal(const Vector& d) {
    Matrix m(d.size(), d.size());
    for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
    return m;
}

Matrix Matrix::from_rows(const std::vector<Vector>& rows) {
    if (rows.empty()) return Matrix();
    Matrix m(rows.size(), rows.front().size());
    for (std::size_t i = 0; i < rows.size(); ++i) m.set_row(i, rows[i]);
    return m;
}

bool Matrix::all_finite() const {
    for (double v : data_) {
        if (!std::isfinite(v)) return false;
    }
    return true;
}

double Matrix::norm_inf() const {
    double m = 0.0;
    for (double v : data_) m = std::max(m, std::abs(v));
    return m;
}

std::string Matrix::to_string(int precision) const {
    std::ostringstream os;
    os << std::setprecision(precision);
    for (std::size_t i = 0; i < rows_; ++i) {
        os << (i == 0 ? "[" : " ");
        for (std::size_t j = 0; j < cols_; ++j) os << (j ? " " : "") << (*this)(i, j);
        os << (i + 1 == rows_ ? "]" : "\n");
    }
    return os.str();
}

Matrix operator+(const Matrix& a, const Matrix& b) {
    require_shape(a.rows() == b.rows() && a.cols() == b.cols(), "operator+: shape mismatch");
    Matrix r(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j) r(i, j) = a(i, j) + b(i, j);
    return r;
}

Matrix operator-(const Matrix& a, const Matrix& b) {
    require_shape(a.rows() == b.rows() && a.cols() == b.cols(), "operator-: shape mismatch");
    Matrix r(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j) r(i, j) = a(i, j) - b(i, j);
    return r;
}

Matrix operator*(double alpha, const Matrix& a) {
    Matrix r(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j) r(i, j) = alpha * a(i, j);
    return r;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
    require_shape(a.cols() == b.rows(), "operator*: inner dimension mismatch");
    // k-outer / j-inner: every r(i, j) accumulates over k in increasing
    // order and the inner loop runs over independent outputs, so it
    // vectorizes without changing any element's accumulation order. No
    // value-based zero skip (see the non-finite policy in matrix.h).
    Matrix r(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const double aik = a(i, k);
            for (std::size_t j = 0; j < b.cols(); ++j) r(i, j) += aik * b(k, j);
        }
    }
    return r;
}

Vector matvec_reference(const Matrix& a, const Vector& x) {
    require_shape(a.cols() == x.size(), "operator*: matrix-vector dimension mismatch");
    Vector y(a.rows(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        double s = 0.0;
        for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * x[j];
        y[i] = s;
    }
    return y;
}

Vector transposed_times_reference(const Matrix& a, const Vector& x) {
    require_shape(a.rows() == x.size(), "transposed_times: dimension mismatch");
    Vector y(a.cols(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const double xi = x[i];
        for (std::size_t j = 0; j < a.cols(); ++j) y[j] += a(i, j) * xi;
    }
    return y;
}

Matrix gram_reference(const Matrix& a) {
    Matrix g(a.cols(), a.cols());
    for (std::size_t i = 0; i < a.cols(); ++i) {
        for (std::size_t j = i; j < a.cols(); ++j) {
            double s = 0.0;
            for (std::size_t k = 0; k < a.rows(); ++k) s += a(k, i) * a(k, j);
            g(i, j) = s;
            g(j, i) = s;
        }
    }
    return g;
}

Matrix weighted_gram_reference(const Matrix& a, const Vector& w) {
    require_shape(a.rows() == w.size(), "weighted_gram: weight length mismatch");
    Matrix g(a.cols(), a.cols());
    for (std::size_t i = 0; i < a.cols(); ++i) {
        for (std::size_t j = i; j < a.cols(); ++j) {
            double s = 0.0;
            for (std::size_t k = 0; k < a.rows(); ++k) s += w[k] * a(k, i) * a(k, j);
            g(i, j) = s;
            g(j, i) = s;
        }
    }
    return g;
}

// Chunked kernels: fixed-width blocks of `chunk` independent accumulator
// chains. Per output element the term order matches the reference loops
// exactly (increasing reduction index), so results are bit-identical to
// them — the win comes from breaking the loop-carried reduction
// dependency and from contiguous stores the autovectorizer can widen.

namespace {

/// Width of the explicit partial-sum chunks, in doubles.
constexpr std::size_t chunk = 4;

/// y[i] = sum_j a(i, j) x[j]; a is rows x cols row-major.
void matvec(const double* a, std::size_t rows, std::size_t cols, const double* x, double* y) {
    std::size_t i = 0;
    for (; i + chunk <= rows; i += chunk) {
        const double* r0 = a + (i + 0) * cols;
        const double* r1 = a + (i + 1) * cols;
        const double* r2 = a + (i + 2) * cols;
        const double* r3 = a + (i + 3) * cols;
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (std::size_t j = 0; j < cols; ++j) {
            const double xj = x[j];
            s0 += r0[j] * xj;
            s1 += r1[j] * xj;
            s2 += r2[j] * xj;
            s3 += r3[j] * xj;
        }
        y[i + 0] = s0;
        y[i + 1] = s1;
        y[i + 2] = s2;
        y[i + 3] = s3;
    }
    for (; i < rows; ++i) {
        const double* ri = a + i * cols;
        double s = 0.0;
        for (std::size_t j = 0; j < cols; ++j) s += ri[j] * x[j];
        y[i] = s;
    }
}

/// One row's share of a^T x: y[j] += ri[j] * xi for j in [0, cols).
void transposed_times_row(double* y, const double* ri, std::size_t cols, double xi) {
    std::size_t j = 0;
    for (; j + chunk <= cols; j += chunk) {
        y[j + 0] += ri[j + 0] * xi;
        y[j + 1] += ri[j + 1] * xi;
        y[j + 2] += ri[j + 2] * xi;
        y[j + 3] += ri[j + 3] * xi;
    }
    for (; j < cols; ++j) y[j] += ri[j] * xi;
}

/// Upper-triangle row i of the Gram accumulation: gi[j] = sum_k t[k] a(k, j)
/// for j in [i, n), with the left-factor column t hoisted by the caller.
/// a is m x n row-major.
void gram_row_blocked(double* gi, const double* a, const double* t, std::size_t m,
                      std::size_t n, std::size_t i) {
    std::size_t j = i;
    for (; j + chunk <= n; j += chunk) {
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (std::size_t k = 0; k < m; ++k) {
            const double tk = t[k];
            const double* rk = a + k * n + j;
            s0 += tk * rk[0];
            s1 += tk * rk[1];
            s2 += tk * rk[2];
            s3 += tk * rk[3];
        }
        gi[j + 0] = s0;
        gi[j + 1] = s1;
        gi[j + 2] = s2;
        gi[j + 3] = s3;
    }
    for (; j < n; ++j) {
        double s = 0.0;
        for (std::size_t k = 0; k < m; ++k) s += t[k] * a[k * n + j];
        gi[j] = s;
    }
}

/// Upper triangle of a(rows, :)' diag(w) a(rows, :) over an indirect row
/// subset of `m` rows, in the same j-blocked shape as gram_row_blocked.
/// g is n x n.
void gram_rows_blocked(double* g, const double* a, const std::size_t* rows, std::size_t m,
                       std::size_t n, const double* w) {
    Vector t(m);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t r = 0; r < m; ++r) t[r] = w[r] * a[rows[r] * n + i];
        double* gi = g + i * n;
        std::size_t j = i;
        for (; j + chunk <= n; j += chunk) {
            double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
            for (std::size_t r = 0; r < m; ++r) {
                const double tr = t[r];
                const double* rk = a + rows[r] * n + j;
                s0 += tr * rk[0];
                s1 += tr * rk[1];
                s2 += tr * rk[2];
                s3 += tr * rk[3];
            }
            gi[j + 0] = s0;
            gi[j + 1] = s1;
            gi[j + 2] = s2;
            gi[j + 3] = s3;
        }
        for (; j < n; ++j) {
            double s = 0.0;
            for (std::size_t r = 0; r < m; ++r) s += t[r] * a[rows[r] * n + j];
            gi[j] = s;
        }
    }
}

void mirror_upper(Matrix& g) {
    for (std::size_t i = 1; i < g.rows(); ++i) {
        for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
    }
}

void require_row(const Matrix& a, std::size_t k, const char* what) {
    if (k >= a.rows()) {
        throw std::invalid_argument(std::string("Matrix: ") + what + ": row index out of range");
    }
}

}  // namespace

Vector operator*(const Matrix& a, const Vector& x) {
    require_shape(a.cols() == x.size(), "operator*: matrix-vector dimension mismatch");
    Vector y(a.rows(), 0.0);
    matvec(a.data().data(), a.rows(), a.cols(), x.data(), y.data());
    return y;
}

Vector transposed_times(const Matrix& a, const Vector& x) {
    require_shape(a.rows() == x.size(), "transposed_times: dimension mismatch");
    const std::size_t cols = a.cols();
    Vector y(cols, 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        transposed_times_row(y.data(), a.data().data() + i * cols, cols, x[i]);
    }
    return y;
}

// The left factor column t[k] = w[k] * a(k, i) (or a(k, i) unweighted) is
// hoisted once per i; the ((w * a) * a) association matches the reference
// loops exactly.
Matrix gram(const Matrix& a) {
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    Matrix g(n, n);
    if (n == 0) return g;
    const double* ad = a.data().data();
    double* gd = &g(0, 0);
    Vector t(m);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < m; ++k) t[k] = ad[k * n + i];
        gram_row_blocked(gd + i * n, ad, t.data(), m, n, i);
    }
    mirror_upper(g);
    return g;
}

Matrix weighted_gram(const Matrix& a, const Vector& w) {
    require_shape(a.rows() == w.size(), "weighted_gram: weight length mismatch");
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    Matrix g(n, n);
    if (n == 0) return g;
    const double* ad = a.data().data();
    double* gd = &g(0, 0);
    Vector t(m);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < m; ++k) t[k] = w[k] * ad[k * n + i];
        gram_row_blocked(gd + i * n, ad, t.data(), m, n, i);
    }
    mirror_upper(g);
    return g;
}

Matrix weighted_gram_rows(const Matrix& a, const std::vector<std::size_t>& rows,
                          const Vector& w) {
    require_shape(rows.size() == w.size(), "weighted_gram_rows: weight length mismatch");
    for (const std::size_t k : rows) require_row(a, k, "weighted_gram_rows");
    const std::size_t n = a.cols();
    Matrix g(n, n);
    if (n == 0) return g;
    gram_rows_blocked(&g(0, 0), a.data().data(), rows.data(), rows.size(), n, w.data());
    mirror_upper(g);
    return g;
}

Vector weighted_transposed_times_rows(const Matrix& a, const std::vector<std::size_t>& rows,
                                      const Vector& w, const Vector& x) {
    require_shape(rows.size() == w.size() && rows.size() == x.size(),
                  "weighted_transposed_times_rows: length mismatch");
    const std::size_t cols = a.cols();
    Vector y(cols, 0.0);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        require_row(a, rows[r], "weighted_transposed_times_rows");
        transposed_times_row(y.data(), a.data().data() + rows[r] * cols, cols, w[r] * x[r]);
    }
    return y;
}

double row_dot(const Matrix& a, std::size_t i, const Vector& x) {
    require_shape(a.cols() == x.size(), "row_dot: dimension mismatch");
    require_row(a, i, "row_dot");
    const double* ri = a.data().data() + i * a.cols();
    double s = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j) s += ri[j] * x[j];
    return s;
}

}  // namespace cellsync

#include "numerics/linear_solve.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace cellsync {

namespace {

struct Lu_factors {
    Matrix lu;                     // packed L (unit diagonal, below) and U (on/above)
    std::vector<std::size_t> piv;  // row permutation
};

Lu_factors lu_factor(const Matrix& a) {
    if (a.rows() != a.cols()) throw std::invalid_argument("lu_factor: matrix must be square");
    const std::size_t n = a.rows();
    Lu_factors f{a, std::vector<std::size_t>(n)};
    std::iota(f.piv.begin(), f.piv.end(), std::size_t{0});

    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivot: largest magnitude in column k at or below the diagonal.
        std::size_t p = k;
        double best = std::abs(f.lu(k, k));
        for (std::size_t i = k + 1; i < n; ++i) {
            const double v = std::abs(f.lu(i, k));
            if (v > best) {
                best = v;
                p = i;
            }
        }
        if (best < 1e-13 * std::max(1.0, f.lu.norm_inf())) {
            throw std::runtime_error("lu_factor: matrix is singular to working precision");
        }
        if (p != k) {
            for (std::size_t j = 0; j < n; ++j) std::swap(f.lu(k, j), f.lu(p, j));
            std::swap(f.piv[k], f.piv[p]);
        }
        for (std::size_t i = k + 1; i < n; ++i) {
            f.lu(i, k) /= f.lu(k, k);
            const double lik = f.lu(i, k);
            if (lik == 0.0) continue;
            for (std::size_t j = k + 1; j < n; ++j) f.lu(i, j) -= lik * f.lu(k, j);
        }
    }
    return f;
}

Vector lu_apply(const Matrix& lu, const std::vector<std::size_t>& piv, const Vector& b) {
    const std::size_t n = lu.rows();
    Vector x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = b[piv[i]];
    // Forward substitution with unit-lower L.
    for (std::size_t i = 1; i < n; ++i) {
        double s = x[i];
        for (std::size_t j = 0; j < i; ++j) s -= lu(i, j) * x[j];
        x[i] = s;
    }
    // Back substitution with U.
    for (std::size_t ii = n; ii-- > 0;) {
        double s = x[ii];
        for (std::size_t j = ii + 1; j < n; ++j) s -= lu(ii, j) * x[j];
        x[ii] = s / lu(ii, ii);
    }
    return x;
}

Vector lu_apply(const Lu_factors& f, const Vector& b) { return lu_apply(f.lu, f.piv, b); }

}  // namespace

Vector lu_solve(const Matrix& a, const Vector& b) {
    if (a.rows() != b.size()) throw std::invalid_argument("lu_solve: rhs length mismatch");
    return lu_apply(lu_factor(a), b);
}

Matrix lu_solve(const Matrix& a, const Matrix& b) {
    if (a.rows() != b.rows()) throw std::invalid_argument("lu_solve: rhs rows mismatch");
    const Lu_factors f = lu_factor(a);
    Matrix x(a.cols(), b.cols());
    for (std::size_t j = 0; j < b.cols(); ++j) x.set_col(j, lu_apply(f, b.col(j)));
    return x;
}

Matrix cholesky(const Matrix& a) {
    if (a.rows() != a.cols()) throw std::invalid_argument("cholesky: matrix must be square");
    const std::size_t n = a.rows();
    Matrix l(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        double d = a(j, j);
        for (std::size_t k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
        if (d <= 0.0 || !std::isfinite(d)) {
            throw std::runtime_error("cholesky: matrix is not positive definite");
        }
        l(j, j) = std::sqrt(d);
        for (std::size_t i = j + 1; i < n; ++i) {
            double s = a(i, j);
            for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
            l(i, j) = s / l(j, j);
        }
    }
    return l;
}

Cholesky_factorization::Cholesky_factorization(const Matrix& a) : lower_(cholesky(a)) {}

Vector Cholesky_factorization::forward(const Vector& b) const {
    if (b.size() != lower_.rows()) {
        throw std::invalid_argument("Cholesky_factorization: rhs length mismatch");
    }
    const std::size_t n = lower_.rows();
    Vector y(n);
    for (std::size_t i = 0; i < n; ++i) {
        double s = b[i];
        for (std::size_t j = 0; j < i; ++j) s -= lower_(i, j) * y[j];
        y[i] = s / lower_(i, i);
    }
    return y;
}

Vector Cholesky_factorization::backward(const Vector& y) const {
    if (y.size() != lower_.rows()) {
        throw std::invalid_argument("Cholesky_factorization: rhs length mismatch");
    }
    const std::size_t n = lower_.rows();
    Vector x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        double s = y[ii];
        for (std::size_t j = ii + 1; j < n; ++j) s -= lower_(j, ii) * x[j];
        x[ii] = s / lower_(ii, ii);
    }
    return x;
}

Vector Cholesky_factorization::solve(const Vector& b) const { return backward(forward(b)); }

Vector cholesky_solve(const Matrix& a, const Vector& b) {
    if (a.rows() != b.size()) throw std::invalid_argument("cholesky_solve: rhs length mismatch");
    return Cholesky_factorization(a).solve(b);
}

Ldlt_factorization::Ldlt_factorization(const Matrix& a) {
    // Symmetric indefinite systems (KKT matrices) are solved by LU with
    // partial pivoting after symmetric equilibration. KKT blocks routinely
    // mix scales (Hessian entries ~1e7 from inverse-variance weights next
    // to O(1) constraint rows), and without equilibration the LU pivot
    // threshold — relative to the matrix norm — falsely rejects the small
    // but perfectly regular constraint pivots.
    if (a.rows() != a.cols()) {
        throw std::invalid_argument("Ldlt_factorization: matrix must be square");
    }
    const std::size_t n = a.rows();
    scale_.assign(n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
        double row_norm = 0.0;
        for (std::size_t j = 0; j < n; ++j) row_norm = std::max(row_norm, std::abs(a(i, j)));
        scale_[i] = row_norm > 0.0 ? 1.0 / std::sqrt(row_norm) : 1.0;
    }
    Matrix scaled(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) scaled(i, j) = a(i, j) * scale_[i] * scale_[j];
    }
    Lu_factors f = lu_factor(scaled);
    lu_ = std::move(f.lu);
    piv_ = std::move(f.piv);
}

Vector Ldlt_factorization::solve(const Vector& b) const {
    if (b.size() != lu_.rows()) {
        throw std::invalid_argument("Ldlt_factorization: rhs length mismatch");
    }
    const std::size_t n = lu_.rows();
    // A x = b  <=>  (S A S)(S^{-1} x) = S b.
    Vector rhs(n);
    for (std::size_t i = 0; i < n; ++i) rhs[i] = b[i] * scale_[i];
    Vector z = lu_apply(lu_, piv_, rhs);
    for (std::size_t i = 0; i < n; ++i) z[i] *= scale_[i];
    return z;
}

Vector ldlt_solve(const Matrix& a, const Vector& b) {
    if (a.rows() != b.size()) throw std::invalid_argument("ldlt_solve: rhs length mismatch");
    return Ldlt_factorization(a).solve(b);
}

Vector qr_least_squares(const Matrix& a, const Vector& b) {
    if (a.rows() != b.size()) throw std::invalid_argument("qr_least_squares: rhs length mismatch");
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    Matrix r = a;
    Vector qtb = b;
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), std::size_t{0});

    // Column norms for pivoting.
    Vector cn(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
        double s = 0.0;
        for (std::size_t i = 0; i < m; ++i) s += r(i, j) * r(i, j);
        cn[j] = s;
    }

    const std::size_t kmax = std::min(m, n);
    std::size_t rank = kmax;
    const double tol = 1e-12;
    double first_pivot = 0.0;

    for (std::size_t k = 0; k < kmax; ++k) {
        // Column pivot: move the column with the largest remaining norm to k.
        std::size_t p = k;
        for (std::size_t j = k + 1; j < n; ++j)
            if (cn[j] > cn[p]) p = j;
        if (p != k) {
            for (std::size_t i = 0; i < m; ++i) std::swap(r(i, k), r(i, p));
            std::swap(cn[k], cn[p]);
            std::swap(perm[k], perm[p]);
        }

        // Householder reflection for column k.
        double nrm = 0.0;
        for (std::size_t i = k; i < m; ++i) nrm += r(i, k) * r(i, k);
        nrm = std::sqrt(nrm);
        if (k == 0) first_pivot = nrm;
        if (nrm <= tol * std::max(1.0, first_pivot)) {
            rank = k;
            break;
        }
        if (r(k, k) > 0.0) nrm = -nrm;
        Vector v(m - k);
        for (std::size_t i = k; i < m; ++i) v[i - k] = r(i, k);
        v[0] -= nrm;
        const double vtv = dot(v, v);
        if (vtv > 0.0) {
            // Apply H = I - 2 v v^T / (v^T v) to trailing columns and rhs.
            for (std::size_t j = k; j < n; ++j) {
                double s = 0.0;
                for (std::size_t i = k; i < m; ++i) s += v[i - k] * r(i, j);
                const double f = 2.0 * s / vtv;
                for (std::size_t i = k; i < m; ++i) r(i, j) -= f * v[i - k];
            }
            double s = 0.0;
            for (std::size_t i = k; i < m; ++i) s += v[i - k] * qtb[i];
            const double f = 2.0 * s / vtv;
            for (std::size_t i = k; i < m; ++i) qtb[i] -= f * v[i - k];
        }
        r(k, k) = nrm;
        // Downdate remaining column norms.
        for (std::size_t j = k + 1; j < n; ++j) cn[j] -= r(k, j) * r(k, j);
    }

    // Back-substitute on the leading rank x rank triangle.
    Vector xp(n, 0.0);
    for (std::size_t ii = rank; ii-- > 0;) {
        double s = qtb[ii];
        for (std::size_t j = ii + 1; j < rank; ++j) s -= r(ii, j) * xp[j];
        xp[ii] = s / r(ii, ii);
    }
    Vector x(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) x[perm[j]] = xp[j];
    return x;
}

}  // namespace cellsync

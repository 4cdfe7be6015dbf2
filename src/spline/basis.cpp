#include "spline/basis.h"

#include <algorithm>
#include <stdexcept>

#include "numerics/quadrature.h"

namespace cellsync {

Matrix Basis::penalty_matrix() const {
    const std::size_t n = size();
    Matrix omega(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) {
            const double v = integrate_simpson(
                [&](double x) { return second_derivative(i, x) * second_derivative(j, x); },
                0.0, 1.0, 512);
            omega(i, j) = v;
            omega(j, i) = v;
        }
    }
    return omega;
}

Matrix Basis::design_matrix(const Vector& points) const {
    Matrix b(points.size(), size());
    for (std::size_t i = 0; i < size(); ++i) {
        const Basis_support sup = support(i);
        for (std::size_t p = 0; p < points.size(); ++p) {
            // Clamp first so out-of-range points keep their pre-support
            // behavior (value() clamps internally too).
            const double x = std::clamp(points[p], 0.0, 1.0);
            if (sup.contains(x)) b(p, i) = value(i, x);
            // else: exact structural zero — b was zero-initialized.
        }
    }
    return b;
}

Matrix Basis::derivative_matrix(const Vector& points) const {
    Matrix b(points.size(), size());
    for (std::size_t i = 0; i < size(); ++i) {
        const Basis_support sup = support(i);
        for (std::size_t p = 0; p < points.size(); ++p) {
            const double x = std::clamp(points[p], 0.0, 1.0);
            if (sup.contains(x)) b(p, i) = derivative(i, x);
        }
    }
    return b;
}

double Basis::expand(const Vector& alpha, double x) const {
    if (alpha.size() != size()) throw std::invalid_argument("Basis::expand: coefficient count");
    double s = 0.0;
    for (std::size_t i = 0; i < alpha.size(); ++i) s += alpha[i] * value(i, x);
    return s;
}

double Basis::expand_derivative(const Vector& alpha, double x) const {
    if (alpha.size() != size()) {
        throw std::invalid_argument("Basis::expand_derivative: coefficient count");
    }
    double s = 0.0;
    for (std::size_t i = 0; i < alpha.size(); ++i) s += alpha[i] * derivative(i, x);
    return s;
}

Vector Basis::expand_on(const Vector& alpha, const Vector& points) const {
    Vector y(points.size());
    for (std::size_t p = 0; p < points.size(); ++p) y[p] = expand(alpha, points[p]);
    return y;
}

}  // namespace cellsync

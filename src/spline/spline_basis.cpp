#include "spline/spline_basis.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace cellsync {

void Natural_spline_basis::validate_knot_count(std::size_t count) {
    if (count < min_knots) {
        throw std::invalid_argument("Natural_spline_basis: need at least " +
                                    std::to_string(min_knots) + " knots, got " +
                                    std::to_string(count));
    }
    if (count > max_knots) {
        throw std::invalid_argument("Natural_spline_basis: at most " +
                                    std::to_string(max_knots) + " knots, got " +
                                    std::to_string(count));
    }
}

Natural_spline_basis::Natural_spline_basis(std::size_t count) {
    validate_knot_count(count);
    knots_ = linspace(0.0, 1.0, count);
    build();
}

Natural_spline_basis::Natural_spline_basis(Vector knots) : knots_(std::move(knots)) {
    validate_knot_count(knots_.size());
    if (std::abs(knots_.front()) > 1e-12 || std::abs(knots_.back() - 1.0) > 1e-12) {
        throw std::invalid_argument("Natural_spline_basis: knots must span [0, 1]");
    }
    for (std::size_t i = 0; i + 1 < knots_.size(); ++i) {
        if (!(knots_[i] < knots_[i + 1])) {
            throw std::invalid_argument("Natural_spline_basis: knots must be strictly ascending");
        }
    }
    build();
}

void Natural_spline_basis::build() {
    cardinal_.reserve(knots_.size());
    for (std::size_t i = 0; i < knots_.size(); ++i) {
        Vector unit(knots_.size(), 0.0);
        unit[i] = 1.0;
        cardinal_.emplace_back(knots_, unit);
    }
}

double Natural_spline_basis::value(std::size_t i, double x) const {
    if (i >= cardinal_.size()) throw std::out_of_range("Natural_spline_basis::value: bad index");
    return cardinal_[i](x);
}

double Natural_spline_basis::derivative(std::size_t i, double x) const {
    if (i >= cardinal_.size()) {
        throw std::out_of_range("Natural_spline_basis::derivative: bad index");
    }
    return cardinal_[i].derivative(x);
}

double Natural_spline_basis::second_derivative(std::size_t i, double x) const {
    if (i >= cardinal_.size()) {
        throw std::out_of_range("Natural_spline_basis::second_derivative: bad index");
    }
    return cardinal_[i].second_derivative(x);
}

Matrix Natural_spline_basis::design_matrix(const Vector& points) const {
    Matrix b(points.size(), size());
    for (std::size_t i = 0; i < size(); ++i) {
        for (std::size_t p = 0; p < points.size(); ++p) {
            b(p, i) = value(i, std::clamp(points[p], 0.0, 1.0));
        }
    }
    return b;
}

double Natural_spline_basis::expand(const Vector& alpha, double x) const {
    if (alpha.size() != size()) {
        throw std::invalid_argument("Natural_spline_basis::expand: coefficient count");
    }
    double s = 0.0;
    for (std::size_t i = 0; i < alpha.size(); ++i) s += alpha[i] * value(i, x);
    return s;
}

double Natural_spline_basis::expand_derivative(const Vector& alpha, double x) const {
    if (alpha.size() != size()) {
        throw std::invalid_argument("Natural_spline_basis::expand_derivative: coefficient count");
    }
    double s = 0.0;
    for (std::size_t i = 0; i < alpha.size(); ++i) s += alpha[i] * derivative(i, x);
    return s;
}

Vector Natural_spline_basis::expand_on(const Vector& alpha, const Vector& points) const {
    Vector y(points.size());
    for (std::size_t p = 0; p < points.size(); ++p) y[p] = expand(alpha, points[p]);
    return y;
}

Matrix Natural_spline_basis::penalty_matrix() const {
    // psi_i'' is piecewise linear between knot values m_i[k]. On segment
    // [x_k, x_{k+1}] with endpoint values (a0, a1) and (b0, b1),
    //   integral(psi_i'' psi_j'') = h/6 * (2 a0 b0 + a0 b1 + a1 b0 + 2 a1 b1).
    const std::size_t n = knots_.size();
    Matrix omega(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        const Vector& mi = cardinal_[i].knot_second_derivatives();
        for (std::size_t j = i; j < n; ++j) {
            const Vector& mj = cardinal_[j].knot_second_derivatives();
            double s = 0.0;
            for (std::size_t k = 0; k + 1 < n; ++k) {
                const double h = knots_[k + 1] - knots_[k];
                const double a0 = mi[k], a1 = mi[k + 1];
                const double b0 = mj[k], b1 = mj[k + 1];
                s += h / 6.0 * (2.0 * a0 * b0 + a0 * b1 + a1 * b0 + 2.0 * a1 * b1);
            }
            omega(i, j) = s;
            omega(j, i) = s;
        }
    }
    return omega;
}

}  // namespace cellsync

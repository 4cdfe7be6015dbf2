// Abstract function basis on [0, 1].
//
// The single-cell expression is expanded as f_alpha(phi) =
// sum_i alpha_i psi_i(phi) (paper Eq 4). The deconvolution core is written
// against this interface so the natural-spline basis of the paper and the
// B-spline ablation alternative are interchangeable.
#pragma once

#include <memory>

#include "numerics/matrix.h"
#include "numerics/vector_ops.h"

namespace cellsync {

/// Closed sub-interval of [0, 1] outside which a basis function is
/// identically zero. A global basis reports {0, 1}.
struct Basis_support {
    double lo = 0.0;
    double hi = 1.0;

    bool contains(double x) const { return x >= lo && x <= hi; }
    bool is_global() const { return lo <= 0.0 && hi >= 1.0; }
};

/// A finite family of C2 basis functions {psi_i} on the phase interval
/// [0, 1].
class Basis {
  public:
    virtual ~Basis() = default;

    /// Number of basis functions Nc.
    virtual std::size_t size() const = 0;

    /// psi_i(x). i must be < size(); x is clamped to [0,1] by callers.
    virtual double value(std::size_t i, double x) const = 0;

    /// psi_i'(x).
    virtual double derivative(std::size_t i, double x) const = 0;

    /// psi_i''(x).
    virtual double second_derivative(std::size_t i, double x) const = 0;

    /// Support of psi_i: value/derivative/second_derivative are exactly
    /// 0.0 outside it. The default is the whole interval (correct for any
    /// basis); locally supported bases (B-splines) override it, which lets
    /// design_matrix() skip the out-of-support evaluations entirely.
    virtual Basis_support support(std::size_t i) const {
        (void)i;
        return {0.0, 1.0};
    }

    /// Second-derivative penalty Gram matrix
    /// Omega_ij = integral_0^1 psi_i''(x) psi_j''(x) dx (paper Eq 5's
    /// regularizer in coefficient space). The default implementation uses
    /// high-order quadrature; subclasses with piecewise-polynomial second
    /// derivatives override it with exact formulas.
    virtual Matrix penalty_matrix() const;

    /// Design matrix B with B(p, i) = psi_i(points[p]). Entries outside a
    /// basis function's support are exact zeros written without evaluating
    /// the function.
    Matrix design_matrix(const Vector& points) const;

    /// Derivative design matrix B' with B'(p, i) = psi_i'(points[p]).
    Matrix derivative_matrix(const Vector& points) const;

    /// Evaluate the expansion sum_i alpha_i psi_i at x.
    /// Throws std::invalid_argument if alpha.size() != size().
    double expand(const Vector& alpha, double x) const;

    /// Evaluate the expansion derivative at x.
    double expand_derivative(const Vector& alpha, double x) const;

    /// Sample the expansion on a grid of points.
    Vector expand_on(const Vector& alpha, const Vector& points) const;
};

}  // namespace cellsync

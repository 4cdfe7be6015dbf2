// Cardinal natural cubic spline basis on [0, 1] — the basis of paper Eq 4.
//
// The single-cell expression is expanded as f_alpha(phi) =
// sum_i alpha_i psi_i(phi). psi_i is the natural cubic spline interpolating
// the i-th unit vector on the knot grid, so the coefficient alpha_i equals
// the expansion's value at knot i. That makes positivity constraints and
// results directly readable in expression units.
#pragma once

#include <vector>

#include "numerics/matrix.h"
#include "numerics/vector_ops.h"
#include "spline/cubic_spline.h"

namespace cellsync {

/// Cardinal natural-spline basis with Nc knots: a family of C2 basis
/// functions {psi_i} on the phase interval [0, 1].
class Natural_spline_basis {
  public:
    /// Fewest knots either constructor accepts.
    static constexpr std::size_t min_knots = 4;
    /// Most knots either constructor accepts: the basis holds one O(n)
    /// cardinal spline per knot and its penalty costs O(n^3), so larger
    /// counts are rejected before anything is allocated.
    static constexpr std::size_t max_knots = 512;

    /// Throws std::invalid_argument unless min_knots <= count <= max_knots.
    static void validate_knot_count(std::size_t count);

    /// Uniform knot grid of min_knots..max_knots knots on [0, 1].
    /// Throws std::invalid_argument for other counts.
    explicit Natural_spline_basis(std::size_t count);

    /// Arbitrary strictly ascending knots spanning [0, 1] (first knot 0,
    /// last knot 1), min_knots..max_knots of them. Throws
    /// std::invalid_argument otherwise.
    explicit Natural_spline_basis(Vector knots);

    /// Number of basis functions Nc.
    std::size_t size() const { return knots_.size(); }

    /// psi_i(x). Throws std::out_of_range unless i < size().
    double value(std::size_t i, double x) const;

    /// psi_i'(x).
    double derivative(std::size_t i, double x) const;

    /// psi_i''(x).
    double second_derivative(std::size_t i, double x) const;

    /// Second-derivative penalty Gram matrix
    /// Omega_ij = integral_0^1 psi_i''(x) psi_j''(x) dx (paper Eq 5's
    /// regularizer in coefficient space). Natural-spline second
    /// derivatives are piecewise linear, so each product integrates in
    /// closed form.
    Matrix penalty_matrix() const;

    /// Design matrix B with B(p, i) = psi_i(points[p]), points clamped to
    /// [0, 1].
    Matrix design_matrix(const Vector& points) const;

    /// Evaluate the expansion sum_i alpha_i psi_i at x.
    /// Throws std::invalid_argument if alpha.size() != size().
    double expand(const Vector& alpha, double x) const;

    /// Evaluate the expansion derivative at x.
    double expand_derivative(const Vector& alpha, double x) const;

    /// Sample the expansion on a grid of points.
    Vector expand_on(const Vector& alpha, const Vector& points) const;

    const Vector& knots() const { return knots_; }

  private:
    void build();

    Vector knots_;
    std::vector<Cubic_spline> cardinal_;  // one spline per basis function
};

}  // namespace cellsync

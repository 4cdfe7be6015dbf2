// Cardinal natural cubic spline basis on [0, 1] — the basis of paper Eq 4.
//
// psi_i is the natural cubic spline interpolating the i-th unit vector on
// the knot grid, so the coefficient alpha_i equals the expansion's value at
// knot i. That makes positivity constraints and results directly readable
// in expression units.
#pragma once

#include <vector>

#include "spline/basis.h"
#include "spline/cubic_spline.h"

namespace cellsync {

/// Cardinal natural-spline basis with Nc knots.
class Natural_spline_basis final : public Basis {
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

    std::size_t size() const override { return knots_.size(); }
    double value(std::size_t i, double x) const override;
    double derivative(std::size_t i, double x) const override;
    double second_derivative(std::size_t i, double x) const override;

    /// Exact penalty matrix: natural-spline second derivatives are
    /// piecewise linear, so each product integrates in closed form.
    Matrix penalty_matrix() const override;

    const Vector& knots() const { return knots_; }

  private:
    void build();

    Vector knots_;
    std::vector<Cubic_spline> cardinal_;  // one spline per basis function
};

}  // namespace cellsync

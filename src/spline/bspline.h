// Clamped cubic B-spline basis on [0, 1].
//
// An alternative to the paper's natural-spline basis, used by the
// basis-choice ablation bench. B-splines have local support (each psi_i is
// nonzero on at most 4 knot spans), which makes the positivity constraint
// exactly representable as alpha_i >= 0.
#pragma once

#include "spline/basis.h"

namespace cellsync {

/// Cubic (degree 3) B-spline basis with clamped uniform knots on [0, 1].
class Bspline_basis final : public Basis {
  public:
    /// `count` basis functions; needs count >= 4.
    /// Throws std::invalid_argument otherwise.
    explicit Bspline_basis(std::size_t count);

    std::size_t size() const override { return count_; }
    double value(std::size_t i, double x) const override;
    double derivative(std::size_t i, double x) const override;
    double second_derivative(std::size_t i, double x) const override;

    /// psi_i lives on [knots_[i], knots_[i + degree + 1]] — at most 4 knot
    /// spans for the cubic basis, so design_matrix() evaluates it only at
    /// points inside them.
    Basis_support support(std::size_t i) const override;

    /// Full (padded) knot vector, length count + 4 + ... (clamped ends).
    const Vector& knot_vector() const { return knots_; }

  private:
    double basis_value(std::size_t i, std::size_t degree, double x) const;

    std::size_t count_ = 0;
    Vector knots_;
};

}  // namespace cellsync

#include "numerics/kkt_factorization.h"

#include <stdexcept>

namespace cellsync {

Kkt_factorization::Kkt_factorization(Matrix h_base, Matrix h_lambda)
    : h_base_(std::move(h_base)), h_lambda_(std::move(h_lambda)) {
    const std::size_t n = h_base_.rows();
    if (h_base_.cols() != n) {
        throw std::invalid_argument("Kkt_factorization: base Hessian must be square");
    }
    if (!h_lambda_.empty() && (h_lambda_.rows() != n || h_lambda_.cols() != n)) {
        throw std::invalid_argument("Kkt_factorization: lambda block shape mismatch");
    }
    assembled_ = Matrix(n, n);
}

void Kkt_factorization::factorize(double lambda, double ridge) {
    if (lambda < 0.0) throw std::invalid_argument("Kkt_factorization: lambda must be >= 0");
    if (is_factorized() && lambda == lambda_ && ridge == ridge_) return;  // cache hit

    const std::size_t n = h_base_.rows();
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double h = h_base_(i, j);
            if (!h_lambda_.empty()) h += lambda * h_lambda_(i, j);
            assembled_(i, j) = h;
        }
        assembled_(i, i) += ridge;
    }

    chol_.reset();
    ldlt_.reset();
    try {
        chol_.emplace(assembled_);
    } catch (const std::runtime_error&) {
        // Semi-definite corner: fall through to the pivoted solver.
    }
    if (!chol_.has_value()) ldlt_.emplace(assembled_);
    lambda_ = lambda;
    ridge_ = ridge;
    ++factorization_count_;
}

Vector Kkt_factorization::solve(const Vector& gradient) const {
    if (!is_factorized()) {
        throw std::logic_error("Kkt_factorization: factorize() before solve");
    }
    if (gradient.size() != unknowns()) {
        throw std::invalid_argument("Kkt_factorization: gradient length mismatch");
    }
    const Vector rhs = scaled(gradient, -1.0);
    return chol_.has_value() ? chol_->solve(rhs) : ldlt_->solve(rhs);
}

}  // namespace cellsync

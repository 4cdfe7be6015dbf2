// Assembly of the physical constraints on the single-cell estimate
// (paper Secs 2.3 and 3.2) in basis-coefficient space.
//
// With f(phi) = sum_i alpha_i psi_i(phi), every constraint becomes linear
// in alpha:
//
//  * positivity         —  B alpha >= 0 for a design matrix B on a phase grid
//  * RNA conservation   —  integral(w(phi) f(phi)) = 0 with
//                          w = delta(1-phi) - 0.4 delta(phi) - 0.6 p(phi)
//                          (concentration balance across the 40/60 division)
//  * rate continuity    —  integral(w1 f) = integral(w2 f') with w1, w2 of
//                          paper Eqs 18-19 (the 2011 update: transcript
//                          production rate continuous across division)
//
// p(phi) is the Gaussian density of the SW->ST transition phase.
#pragma once

#include "biology/cell_cycle.h"
#include "numerics/matrix.h"
#include "spline/spline_basis.h"

namespace cellsync {

/// Which constraints to enforce (all on by default, as in the paper).
struct Constraint_options {
    bool positivity = true;
    bool conservation = true;      ///< RNA conservation across division
    bool rate_continuity = true;   ///< 2011 transcription-rate smoothness update
    std::size_t positivity_points = 101;  ///< uniform grid resolution for f >= 0

    /// Same geometry? Lets cached constraint blocks be reused per design.
    friend bool operator==(const Constraint_options& a, const Constraint_options& b) {
        return a.positivity == b.positivity && a.conservation == b.conservation &&
               a.rate_continuity == b.rate_continuity &&
               (!a.positivity || a.positivity_points == b.positivity_points);
    }
    friend bool operator!=(const Constraint_options& a, const Constraint_options& b) {
        return !(a == b);
    }
};

/// Linear constraint blocks for the QP: equality rows (A alpha = 0) and
/// inequality rows (C alpha >= 0).
struct Constraint_set {
    Matrix equality;    // rows: one per active equality constraint
    Matrix inequality;  // rows: positivity grid
    Vector equality_rhs;   // zeros (kept explicit for the QP interface)
    Vector inequality_rhs; // zeros
};

/// RNA-conservation row: a_i = psi_i(1) - 0.4 psi_i(0)
/// - 0.6 integral(p(phi) psi_i(phi) dphi).
Vector conservation_row(const Natural_spline_basis& basis, const Cell_cycle_config& config);

/// Transcription-rate-continuity row (paper Eqs 17-19):
/// r_i = beta0 psi_i(1) - beta0 psi_i(0) - integral(beta p psi_i)
///     - 0.4 psi_i'(0) - 0.6 integral(p psi_i') + psi_i'(1).
Vector rate_continuity_row(const Natural_spline_basis& basis, const Cell_cycle_config& config);

/// beta0 = integral(beta(phi) p(phi) dphi) with beta(phi) = 0.4/(1-phi)
/// (paper Eq 14).
double beta0(const Cell_cycle_config& config);

/// Assemble the full constraint set for a basis and cell-cycle model.
Constraint_set build_constraints(const Natural_spline_basis& basis,
                                 const Cell_cycle_config& config,
                                 const Constraint_options& options = {});

}  // namespace cellsync

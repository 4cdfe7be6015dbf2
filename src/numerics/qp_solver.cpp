#include "numerics/qp_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/telemetry.h"
#include "core/trace.h"
#include "numerics/linear_solve.h"

namespace cellsync {

namespace {

// Solver tolerances. Every caller solves the same well-scaled
// deconvolution QP family, so these are constants, not options.
constexpr std::size_t max_iterations = 1000;
/// Feasibility tolerance; also the per-step violation allowance of the
/// primal's relaxed ratio test.
constexpr double constraint_tol = 1e-9;
constexpr double multiplier_tol = 1e-9;  ///< dual feasibility tolerance
constexpr double step_tol = 1e-12;       ///< ||p|| below which a primal step is "zero"
/// Ridge per unit of max(1, trace(H)/n): the primal's fallback on a
/// singular KKT solve and the dual's strict-convexity term.
constexpr double ridge_factor = 1e-10;

double scaled_ridge(const Matrix& hessian) {
    const std::size_t n = hessian.rows();
    double trace = 0.0;
    for (std::size_t i = 0; i < n; ++i) trace += hessian(i, i);
    return ridge_factor * std::max(1.0, trace / static_cast<double>(n));
}

/// H + scaled_ridge(H) I: the dual iteration's strict-convexity ridge. A
/// non-finite H or g is rejected here: NaN fails every comparison the
/// iterations make, so it would otherwise come back as a "converged" NaN
/// optimum.
Matrix ridged_hessian(const Matrix& hessian, const Vector& gradient) {
    if (!all_finite(hessian.data()) || !all_finite(gradient)) {
        throw std::runtime_error("solve_qp_dual: non-finite Hessian or gradient");
    }
    Matrix hr = hessian;
    const double ridge = scaled_ridge(hessian);
    for (std::size_t i = 0; i < hr.rows(); ++i) hr(i, i) += ridge;
    return hr;
}

void validate(const Qp_problem& p) {
    const std::size_t n = p.hessian.rows();
    if (p.hessian.cols() != n) throw std::invalid_argument("solve_qp: Hessian must be square");
    if (p.gradient.size() != n) throw std::invalid_argument("solve_qp: gradient length mismatch");
    if (p.eq_matrix.rows() != p.eq_rhs.size()) {
        throw std::invalid_argument("solve_qp: equality rhs length mismatch");
    }
    if (p.eq_matrix.rows() > 0 && p.eq_matrix.cols() != n) {
        throw std::invalid_argument("solve_qp: equality matrix width mismatch");
    }
    if (p.ineq_matrix.rows() != p.ineq_rhs.size()) {
        throw std::invalid_argument("solve_qp: inequality rhs length mismatch");
    }
    if (p.ineq_matrix.rows() > 0 && p.ineq_matrix.cols() != n) {
        throw std::invalid_argument("solve_qp: inequality matrix width mismatch");
    }
}

double eq_violation(const Qp_problem& p, const Vector& x) {
    if (p.eq_matrix.rows() == 0) return 0.0;
    const Vector r = p.eq_matrix * x - p.eq_rhs;
    return norm_inf(r);
}

double ineq_violation(const Qp_problem& p, const Vector& x) {
    double worst = 0.0;
    for (std::size_t i = 0; i < p.ineq_matrix.rows(); ++i) {
        const double slack = dot(p.ineq_matrix.row(i), x) - p.ineq_rhs[i];
        worst = std::max(worst, -slack);
    }
    return worst;
}

bool is_feasible(const Qp_problem& p, const Vector& x, double tol) {
    return eq_violation(p, x) <= tol && ineq_violation(p, x) <= tol;
}

Vector find_feasible_start(const Qp_problem& p, double tol) {
    const std::size_t n = p.hessian.rows();
    const Vector zero(n, 0.0);
    if (is_feasible(p, zero, tol)) return zero;
    if (p.eq_matrix.rows() > 0) {
        const Vector x = qr_least_squares(p.eq_matrix, p.eq_rhs);
        if (is_feasible(p, x, tol)) return x;
    }
    throw std::runtime_error(
        "solve_qp: neither 0 nor the least-squares equality solution is a feasible start");
}

// Assemble and solve the KKT system for the step p and multipliers, given
// the working set of inequality indices. Returns {p, multipliers-for-W}.
struct Kkt_step {
    Vector p;
    Vector eq_multipliers;
    Vector w_multipliers;
};

Kkt_step solve_kkt(const Qp_problem& prob, const Vector& x,
                   const std::vector<std::size_t>& working, double ridge) {
    const std::size_t n = prob.hessian.rows();
    const std::size_t me = prob.eq_matrix.rows();
    const std::size_t mw = working.size();
    const std::size_t dim = n + me + mw;

    Matrix kkt(dim, dim);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) kkt(i, j) = prob.hessian(i, j);
        kkt(i, i) += ridge;
    }
    for (std::size_t r = 0; r < me; ++r) {
        for (std::size_t j = 0; j < n; ++j) {
            kkt(n + r, j) = prob.eq_matrix(r, j);
            kkt(j, n + r) = prob.eq_matrix(r, j);
        }
    }
    for (std::size_t r = 0; r < mw; ++r) {
        for (std::size_t j = 0; j < n; ++j) {
            kkt(n + me + r, j) = prob.ineq_matrix(working[r], j);
            kkt(j, n + me + r) = prob.ineq_matrix(working[r], j);
        }
    }

    Vector rhs(dim, 0.0);
    const Vector hx = prob.hessian * x;
    for (std::size_t i = 0; i < n; ++i) rhs[i] = -(hx[i] + prob.gradient[i]);
    // Constraint rows carry the current residuals so each step *restores*
    // exact feasibility on the working manifold instead of freezing in any
    // drift the relaxed ratio test allowed: A(x+p) = b, C_W(x+p) = d_W.
    for (std::size_t r = 0; r < me; ++r) {
        rhs[n + r] = prob.eq_rhs[r] - dot(prob.eq_matrix.row(r), x);
    }
    for (std::size_t r = 0; r < mw; ++r) {
        rhs[n + me + r] =
            prob.ineq_rhs[working[r]] - dot(prob.ineq_matrix.row(working[r]), x);
    }

    const Vector sol = ldlt_solve(kkt, rhs);
    Kkt_step step;
    step.p.assign(sol.begin(), sol.begin() + static_cast<std::ptrdiff_t>(n));
    step.eq_multipliers.assign(sol.begin() + static_cast<std::ptrdiff_t>(n),
                               sol.begin() + static_cast<std::ptrdiff_t>(n + me));
    step.w_multipliers.assign(sol.begin() + static_cast<std::ptrdiff_t>(n + me), sol.end());
    return step;
}

}  // namespace

Qp_result solve_qp(const Qp_problem& problem) {
    validate(problem);
    const std::size_t mi = problem.ineq_matrix.rows();

    Vector x = find_feasible_start(problem, constraint_tol);
    const double ridge_unit = scaled_ridge(problem.hessian);  // singular-KKT recovery

    std::vector<std::size_t> working;  // active inequality indices
    std::vector<char> in_working(mi, 0);
    // Anti-cycling state: a constraint dropped at a stationary point that
    // immediately re-blocks with a zero-length step is "pinned" — kept in
    // the working set with its (numerically) negative multiplier tolerated
    // until a real step is taken. This breaks the degenerate drop/re-add
    // loops that dense positivity grids (many nearly dependent rows)
    // otherwise produce.
    std::vector<char> pinned(mi, 0);
    std::size_t last_dropped = mi;

    Qp_result result;
    for (std::size_t iter = 0; iter < max_iterations; ++iter) {
        result.iterations = iter + 1;

        Kkt_step step;
        bool solved = false;
        double ridge = 0.0;
        for (int attempt = 0; attempt < 3 && !solved; ++attempt) {
            try {
                step = solve_kkt(problem, x, working, ridge);
                solved = true;
            } catch (const std::runtime_error&) {
                // Singular KKT: first add a ridge, then as a last resort drop
                // the most recently added working constraint (degenerate set).
                if (attempt == 0) {
                    ridge = ridge_unit;
                } else if (!working.empty()) {
                    in_working[working.back()] = 0;
                    working.pop_back();
                    ridge = 0.0;
                }
            }
        }
        if (!solved) throw std::runtime_error("solve_qp: KKT system unsolvable");

        if (norm_inf(step.p) < step_tol) {
            // Stationary on the working set: check dual feasibility. The
            // KKT block solve returns y with Hx + g = -C_W' y, so the
            // Lagrange multipliers of the >= constraints are mu = -y.
            if (working.empty()) {
                result.converged = true;
                break;
            }
            std::size_t drop_pos = working.size();
            double most_negative = -multiplier_tol;
            for (std::size_t k = 0; k < working.size(); ++k) {
                if (pinned[working[k]]) continue;
                const double mu = -step.w_multipliers[k];
                if (mu < most_negative) {
                    most_negative = mu;
                    drop_pos = k;
                }
            }
            if (drop_pos == working.size()) {
                result.converged = true;
                break;
            }
            last_dropped = working[drop_pos];
            in_working[last_dropped] = 0;
            working.erase(working.begin() + static_cast<std::ptrdiff_t>(drop_pos));
            continue;
        }

        // Relaxed ratio test: the largest alpha in (0, 1] keeping every
        // inactive inequality within the feasibility tolerance. Allowing a
        // `constraint_tol` violation makes every step strictly positive,
        // which is what prevents cycling at degenerate vertices (e.g. a
        // dense positivity grid whose rows all have zero slack at x = 0
        // and infinitesimally negative directional derivatives).
        double alpha = 1.0;
        std::size_t blocking = mi;  // sentinel: none
        for (std::size_t i = 0; i < mi; ++i) {
            if (in_working[i]) continue;
            const double cp = dot(problem.ineq_matrix.row(i), step.p);
            if (cp >= -1e-14) continue;  // moving away from or along the boundary
            const double slack = dot(problem.ineq_matrix.row(i), x) - problem.ineq_rhs[i];
            const double a = (std::max(slack, 0.0) + constraint_tol) / (-cp);
            if (a < alpha) {
                alpha = a;
                blocking = i;
            }
        }

        axpy(alpha, step.p, x);
        if (alpha > 1e-10) {
            // Real progress: degeneracy bookkeeping resets.
            std::fill(pinned.begin(), pinned.end(), char{0});
            last_dropped = mi;
        }
        if (blocking != mi) {
            if (blocking == last_dropped && alpha <= 1e-10) pinned[blocking] = 1;
            working.push_back(blocking);
            in_working[blocking] = 1;
        }
    }

    if (!result.converged) {
        throw std::runtime_error("solve_qp: iteration limit exceeded (possible cycling)");
    }

    result.x = x;
    result.objective = 0.5 * dot(x, problem.hessian * x) + dot(problem.gradient, x);
    result.active_set = working;
    std::sort(result.active_set.begin(), result.active_set.end());
    return result;
}

namespace {

// Orthonormal basis of the null space of `a` (rows x n, rows < n) by
// modified Gram-Schmidt with reorthogonalization: orthonormalize the rows,
// then sweep the standard basis, keeping directions with significant
// residual. Small dense sizes only.
std::vector<Vector> null_space_basis(const Matrix& a) {
    const std::size_t n = a.cols();
    std::vector<Vector> range;  // orthonormalized rows of a
    for (std::size_t r = 0; r < a.rows(); ++r) {
        Vector v = a.row(r);
        for (int pass = 0; pass < 2; ++pass) {
            for (const Vector& q : range) axpy(-dot(q, v), q, v);
        }
        const double nv = norm2(v);
        if (nv > 1e-12 * std::max(1.0, norm_inf(a.row(r)))) {
            range.push_back(scaled(v, 1.0 / nv));
        }
    }
    std::vector<Vector> null_basis;
    for (std::size_t i = 0; i < n && null_basis.size() < n - range.size(); ++i) {
        Vector v(n, 0.0);
        v[i] = 1.0;
        for (int pass = 0; pass < 2; ++pass) {
            for (const Vector& q : range) axpy(-dot(q, v), q, v);
            for (const Vector& q : null_basis) axpy(-dot(q, v), q, v);
        }
        const double nv = norm2(v);
        if (nv > 1e-8) null_basis.push_back(scaled(v, 1.0 / nv));
    }
    return null_basis;
}

/// Givens rotation taking (a, b) to (rho, 0): c a + s b = rho, c b - s a = 0.
struct Givens {
    double c;
    double s;
    double rho;
};

Givens givens(double a, double b) {
    const double rho = std::hypot(a, b);
    return {a / rho, b / rho, rho};
}

/// Apply g to two rows of length n: (x, y) <- (c x + s y, c y - s x).
void rotate_rows(double* x, double* y, std::size_t n, const Givens& g) {
    for (std::size_t k = 0; k < n; ++k) {
        const double xk = x[k];
        const double yk = y[k];
        x[k] = g.c * xk + g.s * yk;
        y[k] = g.c * yk - g.s * xk;
    }
}

}  // namespace

Qp_constraint_prep::Qp_constraint_prep(std::size_t n, const Matrix& eq_matrix,
                                       const Vector& eq_rhs, const Matrix& ineq_matrix,
                                       const Vector& ineq_rhs)
    : n_(n) {
    const std::size_t me = eq_matrix.rows();
    const std::size_t mi = ineq_matrix.rows();
    if (me != eq_rhs.size() || (me > 0 && eq_matrix.cols() != n)) {
        throw std::invalid_argument("Qp_constraint_prep: equality block shape mismatch");
    }
    if (mi != ineq_rhs.size() || (mi > 0 && ineq_matrix.cols() != n)) {
        throw std::invalid_argument("Qp_constraint_prep: inequality block shape mismatch");
    }

    // Null-space reduction of the equality constraints: x = x0 + Z y.
    x_particular_.assign(n, 0.0);
    if (me > 0) {
        x_particular_ = qr_least_squares(eq_matrix, eq_rhs);
        if (norm_inf(eq_matrix * x_particular_ - eq_rhs) >
            1e-8 * std::max(1.0, norm_inf(eq_rhs))) {
            throw std::runtime_error("Qp_constraint_prep: equality constraints are inconsistent");
        }
        const std::vector<Vector> basis = null_space_basis(eq_matrix);
        z_basis_ = Matrix(n, basis.size());
        for (std::size_t c = 0; c < basis.size(); ++c) z_basis_.set_col(c, basis[c]);
    } else {
        z_basis_ = Matrix::identity(n);
    }

    z_transposed_ = z_basis_.transposed();

    // Reduced inequality block: Cr = C Z, dr = d - C x0.
    const std::size_t nz = z_basis_.cols();
    reduced_ineq_ = Matrix(mi, nz);
    reduced_rhs_.assign(mi, 0.0);
    for (std::size_t r = 0; r < mi; ++r) {
        const Vector row = ineq_matrix.row(r);
        reduced_ineq_.set_row(r, transposed_times(z_basis_, row));
        reduced_rhs_[r] = ineq_rhs[r] - dot(row, x_particular_);
    }
}

Reduced_objective Qp_constraint_prep::reduce_objective(const Matrix& hessian,
                                                       const Vector& gradient) const {
    if (hessian.rows() != n_ || hessian.cols() != n_ || gradient.size() != n_) {
        throw std::invalid_argument("Qp_constraint_prep: Hessian/gradient shape mismatch");
    }
    Reduced_objective out;
    // Z'(HZ): each entry sums over k from 0.0 in increasing order (the
    // k-outer / j-inner product kernel), reading Z' contiguously.
    out.hessian = z_transposed_ * (hessian * z_basis_);
    out.gradient = transposed_times(z_basis_, hessian * x_particular_ + gradient);
    return out;
}

Qp_result solve_qp_dual_reduced(const Matrix& hessian, const Vector& gradient,
                                const Matrix& ineq_matrix, const Vector& ineq_rhs) {
    const std::size_t nz = hessian.rows();
    const std::size_t mi = ineq_matrix.rows();
    if (hessian.cols() != nz || gradient.size() != nz) {
        throw std::invalid_argument("solve_qp_dual_reduced: Hessian/gradient shape mismatch");
    }
    if (ineq_rhs.size() != mi || (mi > 0 && ineq_matrix.cols() != nz)) {
        throw std::invalid_argument("solve_qp_dual_reduced: inequality block shape mismatch");
    }
    const Matrix& cr = ineq_matrix;
    const Vector& dr = ineq_rhs;

    // The Goldfarb-Idnani core is the per-gene hot path; the span is one
    // atomic load when tracing is off, and the counters/histogram are
    // recorded at the single successful exit below.
    const telemetry::Trace_span solve_span("qp.active_set.solve", "qp");
    static telemetry::Counter& cold_solves = telemetry::counter("qp.active_set.solves");
    static telemetry::Histogram& iteration_histogram =
        telemetry::histogram("qp.active_set.iterations");

    // --- Goldfarb-Idnani in factor form. ---
    // H = L L' is factored once (throws if H is not PD even with the
    // ridge). J = L^{-T} Q and the upper-triangular R of the active rows N
    // satisfy J'N = [R; 0]. For a row c, d = J'c gives the dual step
    // r = R^{-1} d1 and the primal step z = J2 d2; adding or dropping a row
    // updates J and R with Givens rotations instead of refactoring. J is
    // kept transposed (row k of jt is column k of J, and jt starts as
    // L^{-1}), so d is one mat-vec and every rotation runs along rows.
    // J and R are built at the first violated row: a solve whose
    // unconstrained optimum is feasible never needs them.
    const Cholesky_factorization hl(ridged_hessian(hessian, gradient));
    Matrix jt;
    Matrix rr;  // R in the leading q x q block, q = active.size()

    Vector y = scaled(hl.solve(gradient), -1.0);  // unconstrained optimum
    std::vector<std::size_t> active;
    std::vector<char> is_active(mi, 0);
    Vector u;  // multipliers of active constraints
    Vector z(nz);
    Vector r_dir(nz);
    Vector cy;
    std::size_t iterations = 0;
    bool feasible = false;
    const std::size_t max_outer = max_iterations + 10 * (mi + 1);

    for (std::size_t outer = 0; outer < max_outer; ++outer) {
        // Most violated inactive constraint. One mat-vec sums each row's
        // <c_r, y> from 0.0 in increasing column order, as dot() does.
        cy = mi > 0 ? cr * y : Vector();
        double worst = -constraint_tol;
        std::size_t j = mi;
        for (std::size_t r = 0; r < mi; ++r) {
            if (is_active[r]) continue;
            const double slack = cy[r] - dr[r];
            if (slack < worst) {
                worst = slack;
                j = r;
            }
        }
        if (j == mi) {  // primal feasible: done
            feasible = true;
            break;
        }
        if (jt.empty()) {
            const Matrix& l = hl.lower();
            jt = Matrix(nz, nz);
            for (std::size_t c = 0; c < nz; ++c) {
                jt(c, c) = 1.0 / l(c, c);
                for (std::size_t i = c + 1; i < nz; ++i) {
                    double s = 0.0;
                    for (std::size_t k = c; k < i; ++k) s -= l(i, k) * jt(k, c);
                    jt(i, c) = s / l(i, i);
                }
            }
            rr = Matrix(nz, nz);
        }

        const Vector cj = cr.row(j);
        double uj = 0.0;

        // Inner loop: take (partial) steps toward constraint j's boundary,
        // shedding dual-blocking constraints along the way.
        for (std::size_t inner = 0; inner <= mi + 1; ++inner) {
            ++iterations;
            const std::size_t q = active.size();
            Vector d = jt * cj;
            for (std::size_t k = q; k-- > 0;) {
                double s = d[k];
                for (std::size_t i = k + 1; i < q; ++i) s -= rr(k, i) * r_dir[i];
                r_dir[k] = s / rr(k, k);
            }
            std::fill(z.begin(), z.end(), 0.0);
            for (std::size_t k = q; k < nz; ++k) {
                for (std::size_t i = 0; i < nz; ++i) z[i] += d[k] * jt(k, i);
            }

            const double ztc = dot(z, cj);
            // Dual blocking step t1.
            double t1 = std::numeric_limits<double>::infinity();
            std::size_t drop = q;
            for (std::size_t k = 0; k < q; ++k) {
                if (r_dir[k] > multiplier_tol) {
                    const double cand = u[k] / r_dir[k];
                    if (cand < t1) {
                        t1 = cand;
                        drop = k;
                    }
                }
            }
            // Full primal step t2.
            const double slack = dot(cj, y) - dr[j];
            const double t2 = ztc > 1e-14 ? -slack / ztc : std::numeric_limits<double>::infinity();
            const double t = std::min(t1, t2);
            if (!std::isfinite(t)) {
                throw std::runtime_error("solve_qp_dual: constraints are infeasible");
            }

            if (std::isfinite(t2)) axpy(t, z, y);
            for (std::size_t k = 0; k < q; ++k) u[k] -= t * r_dir[k];
            uj += t;
            if (t == t2) {
                // Add j: rotate d2 into d[q], carrying J along, and append
                // d[0..q] to R as its new last column.
                for (std::size_t k = nz; k-- > q + 1;) {
                    if (d[k] == 0.0) continue;
                    const Givens g = givens(d[k - 1], d[k]);
                    d[k - 1] = g.rho;
                    d[k] = 0.0;
                    rotate_rows(&jt(k - 1, 0), &jt(k, 0), nz, g);
                }
                for (std::size_t i = 0; i <= q; ++i) rr(i, q) = d[i];
                active.push_back(j);
                is_active[j] = 1;
                u.push_back(uj);
                break;
            }
            // Dual step only: drop the blocking constraint, delete its
            // column of R and rotate the Hessenberg rest back to upper
            // triangular, carrying J along, then retry.
            for (std::size_t k = drop; k + 1 < q; ++k) {
                for (std::size_t i = 0; i <= k + 1; ++i) rr(i, k) = rr(i, k + 1);
            }
            for (std::size_t k = drop; k + 1 < q; ++k) {
                if (rr(k + 1, k) == 0.0) continue;
                const Givens g = givens(rr(k, k), rr(k + 1, k));
                rr(k, k) = g.rho;
                rr(k + 1, k) = 0.0;
                rotate_rows(&rr(k, k + 1), &rr(k + 1, k + 1), q - k - 2, g);
                rotate_rows(&jt(k, 0), &jt(k + 1, 0), nz, g);
            }
            is_active[active[drop]] = 0;
            active.erase(active.begin() + static_cast<std::ptrdiff_t>(drop));
            u.erase(u.begin() + static_cast<std::ptrdiff_t>(drop));
        }
    }

    // A finite y can still overflow the objective (H ~ I, g ~ -1e160):
    // neither is returned.
    const double objective = 0.5 * dot(y, hessian * y) + dot(gradient, y);
    if (!all_finite(y) || !std::isfinite(objective)) {
        throw std::runtime_error("solve_qp_dual: non-finite optimum");
    }
    // The dual method terminates at primal feasibility; verify it rather
    // than trusting the loop bound. The last scan's mat-vec already holds
    // C y unless the loop ran out.
    if (!feasible && mi > 0) cy = cr * y;
    double violation = 0.0;
    for (std::size_t r = 0; r < mi; ++r) violation = std::max(violation, dr[r] - cy[r]);
    if (violation > 100.0 * constraint_tol) {
        throw std::runtime_error("solve_qp_dual: failed to reach primal feasibility");
    }
    Qp_result result;
    result.x = std::move(y);
    result.objective = objective;
    result.iterations = iterations == 0 ? 1 : iterations;
    result.active_set = std::move(active);
    std::sort(result.active_set.begin(), result.active_set.end());
    result.converged = true;
    cold_solves.add();
    iteration_histogram.record(static_cast<double>(result.iterations));
    return result;
}

Qp_result solve_qp_dual_prepared(const Reduced_objective& reduced,
                                 const Qp_constraint_prep& prep) {
    if (prep.fully_determined()) {
        // The equalities alone pin x.
        Qp_result result;
        result.x = prep.x_particular();
        result.iterations = 1;
        result.converged = true;
        return result;
    }
    // Reduced problem: min 0.5 y'Hr y + gr'y  s.t.  Cr y >= dr.
    Qp_result result = solve_qp_dual_reduced(reduced.hessian, reduced.gradient,
                                             prep.reduced_inequality(), prep.reduced_ineq_rhs());
    result.x = prep.z_basis() * result.x + prep.x_particular();
    return result;
}

Qp_result solve_qp_dual_prepared(const Matrix& hessian, const Vector& gradient,
                                 const Qp_constraint_prep& prep) {
    const std::size_t n = prep.unknowns();
    if (hessian.rows() != n || hessian.cols() != n || gradient.size() != n) {
        throw std::invalid_argument("solve_qp_dual_prepared: Hessian/gradient shape mismatch");
    }
    Qp_result result = solve_qp_dual_prepared(prep.reduce_objective(hessian, gradient), prep);
    result.objective = 0.5 * dot(result.x, hessian * result.x) + dot(gradient, result.x);
    return result;
}

Qp_result solve_qp_dual(const Qp_problem& problem) {
    validate(problem);
    const Qp_constraint_prep prep(problem.hessian.rows(), problem.eq_matrix, problem.eq_rhs,
                                  problem.ineq_matrix, problem.ineq_rhs);
    return solve_qp_dual_prepared(problem.hessian, problem.gradient, prep);
}

double kkt_violation(const Qp_problem& problem, const Qp_result& result) {
    validate(problem);
    const Vector& x = result.x;
    const std::size_t n = problem.hessian.rows();
    const std::size_t me = problem.eq_matrix.rows();
    const std::size_t mw = result.active_set.size();

    double worst = std::max(eq_violation(problem, x), ineq_violation(problem, x));

    // Stationarity: Hx + g = A' lambda + C_W' mu with mu >= 0. Recover the
    // multipliers by least squares against the active constraint gradients.
    Vector resid = problem.hessian * x + problem.gradient;
    if (me + mw == 0) return std::max(worst, norm_inf(resid));

    Matrix jt(n, me + mw);  // columns are constraint gradients
    for (std::size_t r = 0; r < me; ++r) {
        for (std::size_t j = 0; j < n; ++j) jt(j, r) = problem.eq_matrix(r, j);
    }
    for (std::size_t k = 0; k < mw; ++k) {
        for (std::size_t j = 0; j < n; ++j) {
            jt(j, me + k) = problem.ineq_matrix(result.active_set[k], j);
        }
    }
    const Vector multipliers = qr_least_squares(jt, resid);
    const Vector stat = resid - jt * multipliers;
    worst = std::max(worst, norm_inf(stat));
    for (std::size_t k = 0; k < mw; ++k) {
        worst = std::max(worst, -multipliers[me + k]);  // dual feasibility
    }
    // Complementary slackness on the reported active set.
    for (std::size_t k = 0; k < mw; ++k) {
        const std::size_t i = result.active_set[k];
        const double slack = dot(problem.ineq_matrix.row(i), x) - problem.ineq_rhs[i];
        worst = std::max(worst, std::abs(slack * multipliers[me + k]));
    }
    return worst;
}

}  // namespace cellsync

// Restarted block GMRES(m) for dense or matrix-free complex linear systems.
//
// The matrix-free BEM solver path needs a Krylov method that only touches
// the operator through y = A x applications: the FFT-accelerated
// block-Toeplitz interaction operators never materialize A. block_gmres is
// the standard right-preconditioned restarted GMRES of Saad & Schultz, run
// over one or more right-hand sides against a shared Arnoldi basis (a single
// column is simply a block of one):
//
//   * Arnoldi with modified Gram-Schmidt (serial inner products, so results
//     are bitwise independent of thread count);
//   * complex Givens rotations maintain the QR factorization of the
//     Hessenberg matrix, giving a cheap running residual estimate;
//   * right preconditioning (solve A M^{-1} u = b, x = M^{-1} u) keeps the
//     monitored residual equal to the true residual of the original system;
//   * at the end of every cycle each column's true residual is recomputed
//     from x — the Givens estimate can drift below what the arithmetic
//     actually achieved.
#pragma once

#include <functional>

#include "numeric/matrix.hpp"

namespace pgsi {

/// A linear operator y = A x on complex vectors (y is pre-sized to x.size()).
using LinearOpC = std::function<void(const VectorC& x, VectorC& y)>;

struct GmresOptions {
    std::size_t restart = 120;         ///< Krylov dimension per cycle
    std::size_t max_iterations = 4000; ///< total inner-iteration budget
    double tol = 1e-11;                ///< target relative residual |b-Ax|/|b|
};

/// Telemetry of one block (multi-RHS) GMRES solve.
struct BlockGmresResult {
    bool converged = false;      ///< every column reached opt.tol
    std::size_t iterations = 0;  ///< Arnoldi steps summed over all cycles
    std::size_t matvecs = 0;     ///< operator applications (shared basis +
                                 ///< per-column true-residual verifications)
    std::size_t cycles = 0;      ///< seed cycles (block analogue of restarts)
    std::size_t deflated = 0;    ///< columns retired before the last cycle
    /// Cycles where a column's shared-basis estimate claimed convergence but
    /// the recomputed true residual disagreed; the column stays active with
    /// a tightened per-column estimate target.
    std::size_t estimate_retries = 0;
    std::vector<double> residuals; ///< final true relative residual per column
    double worst_residual = 0;     ///< max over `residuals`
};

/// Solve A X = B for several right-hand sides against one shared Arnoldi
/// basis (the sweep engine's per-frequency block solve). Each cycle seeds
/// the basis with the worst column's residual; every other active column's
/// least-squares problem rides the same basis and the same Givens rotations,
/// so its residual estimate costs one inner product per Arnoldi step instead
/// of its own operator applications. Columns whose verified true residual
/// reaches opt.tol are deflated (dropped from later cycles). Correlated
/// right-hand sides — port columns of one operator, warm-started residuals
/// of adjacent frequency points — converge in far fewer total matvecs than
/// column-by-column solves; worst case (orthogonal residuals) degrades to
/// roughly the per-column cost plus the cheap projection dots.
///
/// `x` carries the per-column initial guesses and the solutions on return.
/// An identically-zero guess skips that column's initial residual matvec:
/// there r = b and the relative residual is exactly 1. `precond`, when
/// non-null, applies z = M^{-1} v (right preconditioning); it must be a fixed
/// linear operator for the duration of the solve.
/// All inner products are serial, so results are bitwise independent of the
/// thread count. Counters: gmres.block_solves (one per call), gmres.solves
/// (one per right-hand side column) plus the shared gmres.iterations /
/// gmres.matvecs / gmres.restarts. With streams on, the gmres.residual
/// stream records the seed column's running estimate per Arnoldi step (its
/// first point is at iteration 1), cycle / deflate / estimate_retry marks,
/// and finally the worst true residual.
BlockGmresResult block_gmres(const LinearOpC& a, const std::vector<VectorC>& b,
                             std::vector<VectorC>& x,
                             const GmresOptions& opt = {},
                             const LinearOpC& precond = nullptr);

} // namespace pgsi

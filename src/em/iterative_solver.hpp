// Matrix-free frequency-domain solution of the discretized MPIE system.
//
// The direct path factors the M×M branch impedance and inverts Ppot, which
// is O(M³) per frequency. This backend never forms a dense system: the
// branch currents solve
//
//     A(ω) I = b,   A = Zs·len/w + jωL + (1/jω) P Ppot Pᵀ,
//                   b = (1/jω) P Ppot J
//
// (the nodal unknowns V = Ppot·Q eliminated through charge conservation
// Q = (J − PᵀI)/jω), and L / Ppot act through the PlaneBem's
// InteractionOperators: FFT-accelerated block-Toeplitz on a uniform lattice,
// ACA/H-matrix (em/hmatrix.hpp) otherwise — O(M log M) per application
// either way. Solvers on one PlaneBem share its operators. The Krylov solver is restarted GMRES, right-preconditioned
// by block-Jacobi over geometric tiles of current cells. A tile spans both
// branch directions, so the local plaquette loop currents — the nullspace
// of the nodal term P Ppot Pᵀ, where A reduces to the off-diagonally
// dominated jωL and a diagonal preconditioner sees nothing — are captured
// by the tile's dense factorization.
//
// The port columns of one frequency solve as a single block GMRES against a
// shared Arnoldi basis (one port is a block of one column). A multi-point
// sweep_impedance runs the sweep engine: frequencies solve sequentially in a
// bisection order and each warm-starts from a recycled subspace of earlier
// solutions (see sweep_impedance).
//
// Port impedances follow from V = (1/jω) Ppot (J − Pᵀ I). Results agree
// with DirectSolver to the GMRES tolerance. A frequency whose true relative
// residual exceeds 1e-8 is recomputed by the dense DirectSolver under
// RecoveryPolicy::Recover, or throws under Strict; it never returns a
// silently inaccurate Z.
#pragma once

#include <mutex>
#include <vector>

#include "em/solver.hpp"

namespace pgsi {

/// Cumulative work counts of an IterativeSolver across every frequency
/// point it has processed. Wall time is in the em.iterative.setup,
/// em.hmatrix.build and em.solve.* spans.
struct IterativeSolverStats {
    std::size_t frequencies = 0; ///< port_impedance evaluations
    /// Column solves attempted: |ports| per frequency, dense fallbacks
    /// included (their GMRES work happened before the fallback).
    std::size_t solves = 0;
    /// Block GMRES calls: one per frequency.
    std::size_t block_solves = 0;
    std::size_t iterations = 0;  ///< total inner GMRES iterations
    std::size_t matvecs = 0;     ///< total operator applications
    std::size_t restarts = 0;    ///< total restart / seed cycles
    /// Always 0; removed together with the em.precond_escalations ledger entry.
    std::size_t precond_escalations = 0;
    /// Frequency points recovered by falling back to the dense solver.
    std::size_t dense_fallbacks = 0;
    /// Sweep-engine telemetry. sweep_points counts frequencies routed
    /// through the engine; warm_starts counts frequencies seeded from prior
    /// work; recycle_hits counts columns whose recycled-subspace projection
    /// reduced the initial residual; recycle_applies counts operator
    /// applications spent caching new recycled basis vectors (included in
    /// `matvecs`); saved_iterations estimates iterations avoided versus the
    /// sweep's own first (cold) frequency point.
    std::size_t sweep_points = 0;
    std::size_t warm_starts = 0;
    std::size_t recycle_hits = 0;
    std::size_t recycle_applies = 0;
    std::size_t saved_iterations = 0;
    /// H-matrix operator-path telemetry, aggregated over the P part and both
    /// L direction parts. `hmatrix` is true when the PlaneBem's operators
    /// are compressed; the counts mirror HmatrixStats of their build.
    bool hmatrix = false;
    std::size_t aca_blocks = 0;          ///< low-rank (ACA) blocks kept
    std::size_t aca_dense_blocks = 0;    ///< near-field + far blocks kept dense
    /// Aggregate stored-coefficients / Σ n² over the parts (<1 = compressed).
    double hmatrix_compression = 1.0;
    double worst_residual = 0;   ///< largest final true relative residual
};

/// FFT/GMRES sweep solver over an assembled PlaneBem.
class IterativeSolver : public PlaneSolver {
public:
    IterativeSolver(const PlaneBem& bem, SurfaceImpedance zs,
                    SolverOptions options = {});

    const char* backend_name() const override { return "iterative"; }

    MatrixC port_impedance(
        double freq_hz,
        const std::vector<std::size_t>& port_nodes) const override;

    /// Sweep engine. A single frequency is one port_impedance call. Two or
    /// more run sequentially in a multilevel (bisection) frequency order so
    /// each point can reuse Krylov work from its predecessors: every new
    /// frequency warm-starts from a recycled subspace spanning the solutions
    /// at already-solved frequencies. Because the bisection order brackets
    /// every later point between solved neighbors, the warm-start
    /// least-squares projection interpolates the analytic solution manifold
    /// x(ω) instead of extrapolating it, and A(ω) is affine in jω so the
    /// subspace re-projects at any frequency with no operator applications
    /// (the frequency-independent component products are cached). All
    /// cross-frequency decisions are made serially, so sweep results stay
    /// bitwise independent of the thread count; the FFT/tile kernels inside
    /// each point still use the shared pool.
    std::vector<MatrixC> sweep_impedance(
        const VectorD& freqs_hz,
        const std::vector<std::size_t>& port_nodes) const override;

    const SolverOptions& options() const { return options_; }

    /// Telemetry accumulated over every call on this solver so far. Do not
    /// read while a sweep is in flight.
    const IterativeSolverStats& stats() const { return stats_; }

    /// Recoveries performed so far (dense fallbacks of stalled frequencies).
    /// Do not read while a sweep is in flight.
    const robust::RecoveryReport& recovery_report() const { return report_; }

private:
    /// Cross-frequency state threaded through one multi-point
    /// sweep_impedance call. Owned by the (sequential) sweep loop — never
    /// shared between threads.
    struct SweepState {
        /// Frequency-independent part of each port column's right-hand side
        /// (P Ppot e_port differences); the per-frequency rhs is 1/jω times
        /// this, so repeat frequencies skip the potential-operator apply.
        std::vector<VectorC> rhs_base;
        /// Recycled subspace: orthonormal basis u with the operator
        /// component products cached per vector (d = len/w scaling, l = L·u,
        /// s = P Ppot Pᵀ u), so A(ω)·u recombines at any ω without matvecs.
        std::vector<VectorC> basis_u, basis_d, basis_l, basis_s;
        /// Iterations the sweep's first (cold) frequency point needed — the
        /// baseline for the saved-iterations estimate.
        std::size_t cold_iterations = 0;
        bool have_cold = false;
    };

    /// Runs setup() exactly once, even under concurrent port_impedance
    /// calls.
    void ensure_setup() const;
    void setup() const;
    MatrixC solve_ports(double freq_hz,
                        const std::vector<std::size_t>& port_nodes,
                        SweepState* sweep) const;
    const DirectSolver& dense_solver() const;

    const PlaneBem& bem_;
    SurfaceImpedance zs_;
    SolverOptions options_;

    mutable std::once_flag setup_once_;
    mutable std::vector<double> zs_scale_;              ///< len/width per branch
    mutable std::vector<std::vector<std::size_t>> tiles_; ///< branch ids per tile
    /// Frequency-independent preconditioner entries, cached at setup from
    /// the operators' exact entries (Toeplitz or H-matrix): per-tile L and
    /// S = PᵀPpotP blocks. A(ω) tiles reassemble as jωL + S/jω + Zs
    /// without re-sampling a single kernel entry.
    mutable std::vector<MatrixD> tile_l_, tile_s_;
    mutable std::mutex stats_mu_; // concurrent port_impedance calls
    mutable IterativeSolverStats stats_;
    mutable robust::RecoveryReport report_;
    mutable std::mutex dense_mu_; // lazy dense fallback construction
    mutable std::unique_ptr<DirectSolver> dense_;
};

} // namespace pgsi

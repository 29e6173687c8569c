// Direct frequency-domain solution of the discretized MPIE system (§3.2).
//
// At each frequency the full coupled system
//     (Zs(ω) + jωL) I = P V,    Pᵀ I + jω C V = J,    C = Ppot⁻¹
// is solved without the equivalent-circuit reduction of §4: the only
// approximation retained is the quasi-static (non-retarded) Green's function.
// This is the in-house reference against which the extracted RLC macromodel
// is validated (the role the measurement and full-wave data play in §6.1).
//
// Both backends eliminate the node potentials, V = Ppot (J − Pᵀ I)/jω, and
// solve the M×M branch system (the loop/branch-space form of Zhu et al.)
//     (Zs + jωL + P Ppot Pᵀ/jω) I = P Ppot J/jω
// with one right-hand side per port: DirectSolver with one dense complex
// LU per frequency, IterativeSolver matrix-free with block GMRES over the
// PlaneBem's Toeplitz or H-matrix operators. make_solver's Auto picks
// between them by mesh size alone. Neither forms C;
// DirectSolver::nodal_admittance stays as the node-space oracle.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "common/robust.hpp"
#include "em/bem_plane.hpp"
#include "numeric/gmres.hpp"

namespace pgsi {

/// Which frequency-domain solver implementation runs a sweep.
enum class SolverBackend {
    Auto,     ///< Iterative at or above 400 mesh nodes unless assembly is
              ///< Direct (Toeplitz operators on uniform lattices,
              ///< ACA/H-matrix otherwise); Direct below
    Direct,   ///< dense branch-system LU per frequency (reference path)
    Iterative ///< matrix-free block GMRES (FFT or H-matrix operators),
              ///< swept by the cross-frequency sweep engine
};

/// Backend selection and iterative-path tuning knobs.
struct SolverOptions {
    SolverBackend backend = SolverBackend::Auto;
    GmresOptions gmres; ///< restart / iteration budget / target residual
    /// Recovery policy of the iterative backend. Under Recover (default) a
    /// frequency whose GMRES solve stalls (true relative residual above
    /// 1e-8) is recomputed by the dense direct solver; Strict throws
    /// NumericalError instead.
    robust::RecoveryOptions recovery;
};

/// Common interface of the frequency-domain plane solvers: Z-parameters at
/// chosen mesh nodes, one frequency at a time or swept over a grid.
class PlaneSolver {
public:
    virtual ~PlaneSolver() = default;

    /// Short stable identifier ("direct" / "iterative") for logs and JSON.
    virtual const char* backend_name() const = 0;

    /// Impedance matrix seen at the given mesh nodes (all other nodes open).
    virtual MatrixC port_impedance(
        double freq_hz, const std::vector<std::size_t>& port_nodes) const = 0;

    /// Z(f) for each frequency. DirectSolver solves the points
    /// independently in parallel; IterativeSolver runs them through its
    /// sequential sweep engine, reusing Krylov work across frequencies.
    virtual std::vector<MatrixC> sweep_impedance(
        const VectorD& freqs_hz,
        const std::vector<std::size_t>& port_nodes) const = 0;
};

/// Construct the backend selected by `options` (resolving Auto against the
/// mesh size and lattice structure). The PlaneBem and SurfaceImpedance must
/// outlive the returned solver.
std::unique_ptr<PlaneSolver> make_solver(const PlaneBem& bem,
                                         SurfaceImpedance zs,
                                         const SolverOptions& options = {});

/// Cumulative work counts of a DirectSolver across every port_impedance
/// call (sweep points included). Each frequency costs one factorization and
/// |ports| solves. Wall time is in the em.solve.* spans.
struct DirectSolverStats {
    std::size_t frequencies = 0;      ///< port_impedance evaluations
    std::size_t factorizations = 0;   ///< dense M×M branch-system LUs
    std::size_t solves = 0;           ///< triangular solves (one per column)
};

/// Direct sweep solver over an assembled PlaneBem: one dense LU of the
/// M×M branch system per frequency. Reads L and Ppot; never fills the
/// Maxwell capacitance.
class DirectSolver : public PlaneSolver {
public:
    /// zs: frequency-dependent surface impedance applied to all branches
    /// (scaled by each branch's length/width). Pass a default-constructed
    /// SurfaceImpedance for the lossless case. `recovery` carries the
    /// cooperative CancelToken (polled once per frequency point); the dense
    /// path has no numerical ladder of its own.
    DirectSolver(const PlaneBem& bem, SurfaceImpedance zs,
                 robust::RecoveryOptions recovery = {});

    const char* backend_name() const override { return "direct"; }

    /// Full N×N nodal admittance matrix Y(ω) = jωC + Pᵀ(Zs+jωL)⁻¹P. The
    /// node-space oracle for port_impedance (tests, passivity checks); it
    /// fills the Maxwell capacitance and is not counted in stats().
    MatrixC nodal_admittance(double freq_hz) const;

    /// Impedance matrix seen at the given mesh nodes (all other nodes open):
    /// solves A X = B with A = Zs + jωL + S/jω, S = P Ppot Pᵀ, and
    /// B = P Ppot E_ports (|ports| right-hand sides), then returns
    /// Z = (Ppot[ports, ports] − BᵀX/jω)/jω. Equals the port block of
    /// nodal_admittance(f)⁻¹ in exact arithmetic, and stays passive at low
    /// frequencies where the node form loses the resistive part to
    /// cancellation.
    MatrixC port_impedance(
        double freq_hz,
        const std::vector<std::size_t>& port_nodes) const override;

    /// Sweep: Z(f) for each frequency in freqs_hz. Frequency points are
    /// independent solves and run in parallel on the shared pgsi::par pool
    /// (L and Ppot are assembled up front). Results are bit-identical at
    /// any thread count.
    std::vector<MatrixC> sweep_impedance(
        const VectorD& freqs_hz,
        const std::vector<std::size_t>& port_nodes) const override;

    /// Telemetry accumulated over every call on this solver so far. Do not
    /// read while a sweep is in flight.
    const DirectSolverStats& stats() const { return stats_; }

private:
    const PlaneBem& bem_;
    SurfaceImpedance zs_;
    robust::RecoveryOptions recovery_;
    mutable std::mutex stats_mu_; // sweeps update stats_ from pool workers
    mutable DirectSolverStats stats_;
};

} // namespace pgsi

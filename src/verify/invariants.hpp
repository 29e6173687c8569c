// Registry of physics-invariant checkers for the verification harness.
//
// Each invariant is a property any correct solver output must satisfy —
// reciprocity and passivity of the port impedance matrix, the DC capacitive
// and resistive asymptotes, transient energy balance, and agreement between
// the independent solver backends (direct LU, cached assembly, FFT/GMRES,
// analytic cavity). Tolerances live in one calibrated ladder so a future
// change that degrades agreement shows up as drift against the committed
// campaign manifest, the same way BENCH_scaling.json tracks perf drift.
#pragma once

#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "em/bem_plane.hpp"
#include "em/solver.hpp"
#include "extract/equivalent_circuit.hpp"
#include "verify/scenario.hpp"

namespace pgsi::verify {

/// Outcome of one invariant check.
struct CheckResult {
    std::string invariant;
    bool pass = true;
    bool skipped = false;  ///< invariant does not apply to this scenario
    double error = 0;      ///< measured metric (definition per invariant)
    double tolerance = 0;  ///< bound the metric was held to
    std::string detail;    ///< human-readable context / failure description
};

/// Calibrated tolerance ladder of the cross-checks, loosest physics first.
/// Values follow the conventions already proven in tests/ and bench/golden:
/// bitwise-class agreement for the displacement cache, solver-residual-class
/// agreement for the iterative backend, modeling-class agreement vs cavity.
struct ToleranceLadder {
    double reciprocity = 1e-9;    ///< rel asymmetry of Z (direct backend)
    double passivity = 1e-10;     ///< -eigmin(Herm Z)/max|Z| floor
    double dc_capacitance = 0.02; ///< rel error of imag Zii vs -1/(w Ceff)
    double dc_resistance = 0.02;  ///< rel error of loop R vs DC Laplacian
    double assembly = 1e-11;      ///< cached vs direct P/L fill, rel
    double backend_z = 1e-6;      ///< direct vs iterative Z, rel
    double hmatrix = 1e-8;        ///< dense vs ACA/H-matrix Z, rel
    double extraction = 1e-10;    ///< cycle-basis vs dense reduced Γ/C/G, rel
    double cavity = 0.25;         ///< BEM vs analytic cavity |Z|, rel
    double energy = 0.03;         ///< transient energy-balance residual, rel
    double recovery = 0.05;       ///< faulted vs golden waveform, rel of peak
};

// --- matrix-level checkers (pure functions, unit-testable) -----------------

/// Z must equal its transpose: error = max |Zij - Zji| / max |Z|.
CheckResult check_reciprocity(const MatrixC& z, double tol);

/// The Hermitian part of Z must be positive semidefinite:
/// error = max(0, -eigmin((Z + Z^H)/2)) / max |Z|.
CheckResult check_passivity(const MatrixC& z, double tol);

/// Entrywise relative difference, scaled by max |a|.
double relative_diff(const MatrixC& a, const MatrixC& b);
double relative_diff(const MatrixD& a, const MatrixD& b);

// --- reduction helpers for the DC limits -----------------------------------

/// Effective capacitance seen from one mesh component against the reference
/// plane with every other component floating (zero net charge): the Schur
/// complement of the component-block-summed Maxwell capacitance matrix.
double effective_capacitance(const PlaneBem& bem, std::size_t component);

/// DC spreading resistance between two nodes of one component, from the
/// sheet-resistance conductance Laplacian.
double dc_path_resistance(const PlaneBem& bem, std::size_t n1, std::size_t n2);

/// The dense reduction the cycle-basis extractor replaces, kept as its
/// oracle: the all-node Γ (PlaneBem::gamma) Kron-reduced, the all-node
/// Maxwell capacitance projected by W = [I; −Γ_ee⁻¹ Γ_ek], and (when
/// `lossy`) schur_reduce of the all-node DC conductance. O(n³).
ReducedMatrices dense_reduction(const PlaneBem& bem,
                                const std::vector<std::size_t>& keep, bool lossy);

// --- netlist invariants -----------------------------------------------------

/// Transient energy balance: absorbed source energy + dissipation (resistors,
/// driver pull-up/pull-down conductances, table conductances) + change of
/// stored energy (C incl. driver output capacitors, L incl. mutual) must
/// vanish.
CheckResult check_energy_balance(const Netlist& nl, double dt, double tstop,
                                 double tol);

/// Recovery equivalence: a run with an injected transient.newton fault must
/// reproduce the unfaulted golden waveforms within tolerance (the PR 4
/// recovery ladder may not change the answer, only the path to it).
CheckResult check_fault_recovery(const Netlist& nl, double dt, double tstop,
                                 double tol);

// --- plane-invariant registry ----------------------------------------------

/// Everything a plane invariant needs, built once per scenario.
struct InvariantContext {
    const PlaneScenario& scenario;
    const PlaneBem& bem;  ///< AssemblyMode::Auto build
    const DirectSolver& direct;
    const std::vector<std::size_t>& ports;
    double f10;  ///< estimated first resonance
    const ToleranceLadder& tol;
};

/// One registered plane invariant.
struct PlaneInvariant {
    const char* name;   ///< stable id ("reciprocity", "backend_cavity", ...)
    const char* suite;  ///< suite tag ("reciprocity", "backends", ...)
    CheckResult (*fn)(const InvariantContext&);
};

/// The registry, in evaluation order.
const std::vector<PlaneInvariant>& plane_invariants();

/// Rebuild the context for `scenario` and run the named invariant (the
/// shrinker's predicate and emitted repro snippets enter here).
/// Throws InvalidArgument for an unknown invariant name.
CheckResult run_plane_invariant(const PlaneScenario& scenario,
                                const std::string& invariant,
                                const ToleranceLadder& tol);

} // namespace pgsi::verify

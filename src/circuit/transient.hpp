// Time-domain solution of the linear(ized) system G x + C x' = w (§5.1).
//
// Fixed time step ("combined with uniform time step for the linear circuit
// portion, this approach gives us very efficient simulation time"), with
// first-order (backward Euler) and second-order (trapezoidal) integration —
// the two methods the paper cites for stability and accuracy.
//
// The whole MNA matrix is factored by one sparse LU (numeric/sparse_lu.hpp).
// Its pattern is fixed by the netlist, so the fill-reducing ordering is
// computed once per stepper. For each (dt, integrator) pair the stepper
// assembles the time-invariant values (span transient.lti_setup); when a
// driver or table conductance moves it adds those few stamps to a copy of
// them and runs one numeric refactor on the same ordering (span
// transient.factor). A step is then one sparse forward/back solve, O(nnz of
// the factor). A netlist without drivers or tables is factored exactly once
// per (dt, integrator).
//
// The engine is exposed both as a one-shot analysis (transient_analyze) and
// as a resumable TransientStepper. The stepper reads source values from the
// netlist on every step, so a caller may retarget sources between steps —
// that is exactly the hook the partitioned co-simulation of §5.2 uses to
// exchange pin currents and supply-noise voltages between the device and
// power/ground subsystems.
#pragma once

#include <memory>

#include "circuit/mna.hpp"
#include "common/robust.hpp"

namespace pgsi {

/// Integration method for the transient engine.
enum class Integrator {
    Trapezoidal,  ///< second order; default
    BackwardEuler ///< first order, maximally damped
};

/// Transient run configuration.
struct TransientOptions {
    double dt = 0;     ///< uniform time step [s]
    double tstop = 0;  ///< final time [s]
    Integrator method = Integrator::Trapezoidal;
    /// Nodes to record; empty records every node.
    std::vector<NodeId> probes;
    /// Numerical-recovery policy (timestep cutting, DC continuation).
    robust::RecoveryOptions recovery;
};

/// Work counts of a transient run / stepper (wall time is in the
/// transient.* spans).
struct TransientStats {
    std::size_t steps = 0;             ///< time steps advanced
    std::size_t newton_iterations = 0; ///< Newton passes over table elements
    std::size_t step_rejections = 0;   ///< trapezoidal steps redone with BE
    std::size_t timestep_cuts = 0;     ///< steps re-advanced with a cut dt
    std::size_t lu_factorizations = 0; ///< numeric factors of the MNA matrix
    std::size_t lu_solves = 0;         ///< MNA system solves
    std::size_t lu_nnz = 0;            ///< nnz(L) + nnz(U) of the latest factor
    std::size_t factor_flops = 0;      ///< multiply-adds of all numeric factors
};

/// Recorded waveforms of a transient run.
struct TransientResult {
    VectorD time;                 ///< sample times (t = 0 is the DC point)
    std::vector<NodeId> probes;   ///< recorded nodes, in recording order
    std::vector<VectorD> samples; ///< samples[s][k] = V(probes[k]) at time[s]
    TransientStats stats;         ///< solver telemetry of the run
    robust::RecoveryReport recovery; ///< recoveries performed during the run

    /// Waveform of one recorded node across all samples.
    VectorD waveform(NodeId node) const;
    /// Largest |v| over the run at one node.
    double peak_abs(NodeId node) const;
    /// Largest |v - v(0)| (noise excursion from the DC level) at one node.
    double peak_excursion(NodeId node) const;
};

/// Resumable fixed-step transient engine over a netlist. The netlist is held
/// by reference and its *source values* are re-read every step; topology and
/// element values must not change after construction.
class TransientStepper {
public:
    /// Initializes at the DC operating point (time 0).
    TransientStepper(const Netlist& nl, double dt,
                     Integrator method = Integrator::Trapezoidal,
                     const robust::RecoveryOptions& recovery = {});
    ~TransientStepper();
    TransientStepper(const TransientStepper&) = delete;
    TransientStepper& operator=(const TransientStepper&) = delete;

    /// Advance one time step. The first step always uses backward Euler.
    void step();

    /// Current simulation time [s].
    double time() const;

    /// Node voltage at the current time.
    double node_voltage(NodeId n) const;

    /// Branch current of voltage source k at the current time (defined
    /// flowing from the + node through the source to the − node).
    double vsource_current(std::size_t k) const;

    /// Branch current of inductor k at the current time.
    double inductor_current(std::size_t k) const;

    /// Telemetry accumulated since construction.
    const TransientStats& stats() const;

    /// Recoveries performed since construction (timestep cuts, DC
    /// continuation). Empty under RecoveryPolicy::Strict.
    const robust::RecoveryReport& recovery_report() const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Run a transient analysis. The initial condition is the DC operating
/// point; the first step always uses backward Euler to avoid trapezoidal
/// ringing on inconsistent initial derivatives.
TransientResult transient_analyze(const Netlist& nl, const TransientOptions& opt);

} // namespace pgsi

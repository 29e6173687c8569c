// 2-D FDTD solver for parallel-plane pairs (§6.1: "time domain simulations
// using both the equivalent RLC circuit and 2-D FDTD are carried out on this
// test structure", Fig. 8).
//
// A plane pair of separation d filled with dielectric εr behaves as a 2-D
// transmission plane: voltage V(x,y) between the planes and surface current
// density J(x,y) [A/m] obey
//
//     Ls ∂J/∂t = −∇V − Rs·J,       Ls = μ0·d      [H per square]
//     Ca ∂V/∂t = −∇·J + i_inj/ΔA,  Ca = ε0 εr / d [F per area]
//
// (wave speed 1/sqrt(Ls·Ca) = c0/sqrt(εr) as required). The solver uses the
// standard staggered leapfrog grid — V at cell centers, Jx/Jy on cell edges —
// with open (magnetic-wall) boundaries at the plane edge, sheet loss Rs from
// both conductor planes, and lumped resistive ports handled semi-implicitly
// for unconditional port stability.
#pragma once

#include <vector>

#include "circuit/sources.hpp"
#include "geometry/point2.hpp"
#include "numeric/matrix.hpp"

namespace pgsi {

/// Configuration of a rectangular plane pair.
struct PlaneFdtdOptions {
    double lx = 0;           ///< plane extent in x [m]
    double ly = 0;           ///< plane extent in y [m]
    double separation = 0;   ///< dielectric thickness d [m]
    double eps_r = 1.0;      ///< relative permittivity
    double sheet_resistance = 0; ///< combined Rs of both planes [ohm/sq]
    std::size_t nx = 0;      ///< cells in x
    std::size_t ny = 0;      ///< cells in y
    double dt = 0;           ///< time step [s]; 0 = 0.9 × CFL limit
};

/// Work telemetry of an FDTD run (its wall time is the fdtd.run span).
struct PlaneFdtdStats {
    std::size_t steps = 0;           ///< leapfrog steps executed
    std::size_t cells = 0;           ///< nx × ny voltage cells
};

/// Recorded port waveforms of an FDTD run.
struct PlaneFdtdResult {
    VectorD time;
    std::vector<VectorD> port_voltage; ///< per port, one sample per step
    PlaneFdtdStats stats;              ///< work telemetry
};

/// Leapfrog simulator for one plane pair with lumped resistive ports.
class PlaneFdtd {
public:
    explicit PlaneFdtd(const PlaneFdtdOptions& options);

    /// Attach a port at board position p: a series resistance r to an ideal
    /// source (set a 0 V DC source for a pure termination). Returns the port
    /// index.
    std::size_t add_port(Point2 p, double r, Source src);

    /// Run for tstop seconds, recording all port voltages.
    PlaneFdtdResult run(double tstop);

    /// The actual time step in use.
    double dt() const { return dt_; }

private:
    PlaneFdtdOptions opt_;
    double dx_, dy_, dt_;
    double ls_, ca_;

    struct FdtdPort {
        std::size_t ix = 0, iy = 0;
        double r = 0;
        Source src;
    };
    std::vector<FdtdPort> ports_;
};

} // namespace pgsi

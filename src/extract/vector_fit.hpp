// Rational macromodeling by vector fitting (§2: the tool must "provide good
// macro models over extended frequency bands").
//
// The quasi-static equivalent circuit is one macromodel; this module
// provides the complementary broadband one: fit sampled frequency-domain
// impedance data Z(jω) — from the direct MPIE sweep, a Touchstone file, or
// a measurement — with a rational function
//
//     Z(s) ≈ Σ_k  r_k / (s − p_k)  +  d  +  s·e
//
// using the Gustavsen–Semlyen vector-fitting pole-relocation iteration, and
// synthesize the result as a Foster-form RLC netlist:
//
//   * real pole      r/(s−p)            → series R–L branch
//                                          (R = −r/p, L = 1/... see .cpp)
//   * complex pair                      → series R–L–C (+ shunt) branch
//   * d              constant           → series R
//   * s·e            linear             → series L
//
// so a frequency-tabulated port can be dropped into the time-domain
// co-simulation as ordinary circuit elements.
#pragma once

#include "circuit/netlist.hpp"
#include "numeric/matrix.hpp"

namespace pgsi {

/// Result of a rational fit. Poles/residues come in conjugate pairs for
/// complex entries.
struct RationalFit {
    VectorC poles;
    VectorC residues;
    double d = 0; ///< constant term
    double e = 0; ///< linear (s·e) term

    /// Evaluate the fit at frequency f [Hz].
    Complex evaluate(double freq_hz) const;

    /// Worst-case relative error against samples.
    double max_relative_error(const VectorD& freqs_hz, const VectorC& h) const;
};

/// Controls for the fit. The fit always includes the s·e term (inductive
/// data needs it), flips unstable relocated poles into the left half plane,
/// and weights each sample by 1/|h| so it targets *relative* accuracy —
/// essential for impedance data spanning decades across resonances.
struct VectorFitOptions {
    int n_poles = 8;       ///< fit order (pairs count as two)
    int iterations = 12;   ///< pole-relocation passes
};

/// Fit sampled data h(jω_i) at freqs_hz with the vector-fitting iteration.
/// Throws NumericalError if the least-squares systems degenerate.
RationalFit vector_fit(const VectorD& freqs_hz, const VectorC& h,
                       const VectorFitOptions& options = {});

/// Synthesize the fitted impedance as a two-terminal Foster network between
/// nodes a and b. Requires every pole stable and the synthesized element
/// values to come out positive enough to realize (small negative residues of
/// a good fit are clamped); throws InvalidArgument otherwise. Element names
/// are prefixed by `name`.
void stamp_foster_impedance(Netlist& nl, const std::string& name, NodeId a,
                            NodeId b, const RationalFit& fit);

} // namespace pgsi

// Modified nodal analysis layout shared by the DC, AC and transient engines
// (§5.1, eq (28): G x + C x' = w).
//
// Unknown ordering: node voltages for every non-ground node, then one branch
// current per inductor (so zero-resistance inductive paths and mutual
// coupling are handled exactly), then one branch current per voltage source.
// "Special formulation of the system equations eliminates the unnecessary
// internal inductance nodes" (§5.1): inductors contribute currents, not
// internal nodes.
#pragma once

#include <limits>

#include "circuit/netlist.hpp"
#include "common/robust.hpp"
#include "numeric/matrix.hpp"

namespace pgsi {

/// Conductance used to short transmission-line conductors end-to-end at DC
/// (a lossless line is a DC short; see dc_operating_point).
inline constexpr double kTlineDcShort = 1e6;

/// Index map from netlist entities to MNA unknowns.
class MnaLayout {
public:
    explicit MnaLayout(const Netlist& nl);

    /// Total number of unknowns.
    std::size_t dim() const { return dim_; }

    /// Marker for the eliminated ground row/column.
    static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

    /// Unknown index of a node voltage (npos for ground).
    std::size_t node(NodeId n) const { return n == 0 ? npos : n - 1; }

    /// Unknown index of inductor k's branch current.
    std::size_t inductor_current(std::size_t k) const { return nn_ + k; }

    /// Unknown index of voltage source k's branch current.
    std::size_t vsource_current(std::size_t k) const { return nn_ + nl_ + k; }

private:
    std::size_t nn_ = 0, nl_ = 0, dim_ = 0;
};

// The stamp helpers write through a sink, add(i, j, v) adding v to entry
// (i, j), so the dense AC matrix and the sparse DC / transient assemblies
// share one stamp path.

/// Stamp a conductance g between nodes a and b of the netlist (ground rows
/// and columns are skipped).
template <class Add, class T>
void stamp_conductance(Add&& add, const MnaLayout& lay, NodeId a, NodeId b,
                       T g) {
    const std::size_t ia = lay.node(a), ib = lay.node(b);
    if (ia != MnaLayout::npos) add(ia, ia, g);
    if (ib != MnaLayout::npos) add(ib, ib, g);
    if (ia != MnaLayout::npos && ib != MnaLayout::npos) {
        add(ia, ib, -g);
        add(ib, ia, -g);
    }
}

/// Add a current injection `i` *into* node a (KCL right-hand side).
template <class T>
void stamp_current(std::vector<T>& rhs, const MnaLayout& lay, NodeId a, T i) {
    const std::size_t ia = lay.node(a);
    if (ia != MnaLayout::npos) rhs[ia] += i;
}

/// Couple a branch-current unknown at column `cur` into the KCL rows of its
/// terminal nodes (+ at a, − at b: positive branch current flows a → b) and
/// write the matching ±1 voltage coefficients into the branch equation row.
template <class Add>
void stamp_branch_incidence(Add&& add, const MnaLayout& lay, NodeId a,
                            NodeId b, std::size_t cur) {
    const std::size_t ia = lay.node(a), ib = lay.node(b);
    if (ia != MnaLayout::npos) {
        add(ia, cur, 1.0);
        add(cur, ia, 1.0);
    }
    if (ib != MnaLayout::npos) {
        add(ib, cur, -1.0);
        add(cur, ib, -1.0);
    }
}

/// DC operating point of a netlist.
struct DcSolution {
    VectorD node_voltage;     ///< indexed by NodeId (entry 0 = ground = 0 V)
    VectorD inductor_current; ///< per netlist inductor
    VectorD vsource_current;  ///< per netlist voltage source

    double v(NodeId n) const { return node_voltage[n]; }
};

/// Compute the DC operating point. Capacitors are open, inductors are
/// shorts (their currents are solved), transmission lines are DC-shorted
/// conductor-to-conductor, drivers use their t = 0 conductances.
DcSolution dc_operating_point(const Netlist& nl);

/// DC operating point with an explicit recovery policy. Under
/// RecoveryPolicy::Recover a failed plain Newton solve is retried with gmin
/// stepping (a shunt conductance on every node, shrunk toward zero) and then
/// source ramping (all sources scaled up from a fraction of their value);
/// recoveries are appended to `report` when non-null. Under Strict this is
/// identical to the one-argument overload.
DcSolution dc_operating_point(const Netlist& nl,
                              const robust::RecoveryOptions& opt,
                              robust::RecoveryReport* report = nullptr);

} // namespace pgsi

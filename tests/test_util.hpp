// Shared helpers for the test suite.
#pragma once

#include <cstddef>

#include "circuit/netlist.hpp"
#include "common/parallel.hpp"
#include "si/cosim.hpp"

namespace pgsi::test {

// Pins the pool thread count for the lifetime of the guard and restores the
// automatic default on destruction. Exception-safe: a failing ASSERT or a
// throw inside the pinned region can no longer leak a pinned count into
// later tests in the same binary.
class ScopedThreadCount {
public:
    explicit ScopedThreadCount(std::size_t n) { par::set_thread_count(n); }
    ~ScopedThreadCount() { par::set_thread_count(0); }

    ScopedThreadCount(const ScopedThreadCount&) = delete;
    ScopedThreadCount& operator=(const ScopedThreadCount&) = delete;

    // Re-pin within the same guarded region.
    void repin(std::size_t n) { par::set_thread_count(n); }
};

// Diode clamp driven by a 5 V pulse through 100 ohm: node "d" carries a
// piecewise-linear table conductance to ground that conducts above 0.6 V,
// so every step runs the Newton relaxation over it.
inline Netlist diode_clamp_netlist() {
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId d = nl.node("d");
    nl.add_vsource("V1", in, nl.ground(),
                   Source::pulse(0.0, 5.0, 0.0, 1e-10, 1e-10, 1e-9, 2e-9));
    nl.add_resistor("R1", in, d, 100.0);
    VectorD v, i;
    for (double x = -5.0; x <= 0.6; x += 0.2) {
        v.push_back(x);
        i.push_back(0.0);
    }
    for (double x = 0.8; x <= 6.0; x += 0.2) {
        v.push_back(x);
        i.push_back((x - 0.6) * 0.1);
    }
    nl.add_table_conductance("D1", d, nl.ground(), std::move(v), std::move(i));
    return nl;
}

// Reduced SSN model settings that keep a board's extraction to milliseconds.
inline SsnModelOptions coarse_ssn() {
    SsnModelOptions o;
    o.mesh_pitch = 25e-3;
    o.interior_nodes = 6;
    o.prune_rel_tol = 0.05;
    return o;
}

} // namespace pgsi::test

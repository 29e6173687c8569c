// Shared helpers for the test suite.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "circuit/netlist.hpp"
#include "common/parallel.hpp"
#include "geometry/rectmesh.hpp"
#include "numeric/matrix.hpp"
#include "si/cosim.hpp"

namespace pgsi::test {

// Bitwise equality (tells -0 from +0, unlike operator==).
inline bool same_bits(const Complex& a, const Complex& b) {
    return std::memcmp(&a, &b, sizeof(Complex)) == 0;
}

// FNV-1a over the %.17g rendering of every real and imaginary part: a
// compact record of a complex result that any change of one bit moves.
inline std::uint64_t digest(const std::vector<Complex>& v) {
    std::uint64_t h = 1469598103934665603ull;
    char buf[64];
    for (const Complex& z : v) {
        const int len = std::snprintf(buf, sizeof buf, "%.17g,%.17g;",
                                      z.real(), z.imag());
        for (int i = 0; i < len; ++i) {
            h ^= static_cast<unsigned char>(buf[i]);
            h *= 1099511628211ull;
        }
    }
    return h;
}

// The same digest over a real matrix, row-major, each entry as (x, 0).
inline std::uint64_t digest(const MatrixD& m) {
    std::vector<Complex> v;
    v.reserve(m.rows() * m.cols());
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j) v.emplace_back(m(i, j), 0.0);
    return digest(v);
}

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

// A w × h [m] rectangle with its lower-left corner at (x0, 0).
inline ConductorShape plate_shape(double x0, double w, double h) {
    ConductorShape s;
    s.outline = Polygon::rectangle(x0, 0, x0 + w, h);
    s.z = 0.4e-3;
    s.sheet_resistance = 1e-3;
    return s;
}

// A plate of nx × ny cells at a 1 mm pitch: a uniform lattice of nx·ny
// nodes.
inline RectMesh plate_mesh(int nx, int ny) {
    return RectMesh({plate_shape(0, nx * 1e-3, ny * 1e-3)}, 0.001);
}

// The same plate beside a 9.3 mm square, whose 10 × 10 cells are narrower
// than the pitch: no common lattice, nx·ny + 100 nodes.
inline RectMesh plate_pair_mesh(int nx, int ny) {
    return RectMesh({plate_shape(0, nx * 1e-3, ny * 1e-3),
                     plate_shape((nx + 5) * 1e-3, 0.0093, 0.0093)},
                    0.001);
}

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

// Two drivers on a package-fed supply. Both terminals of Vsense (out, clamp)
// and of the zero-impedance jumper Ljmp (vcc, vcc2) are driver or table
// nodes, and both branch rows have zero diagonals, so the factor must pivot.
inline Netlist border_vsource_netlist() {
    Netlist nl;
    const NodeId vdd = nl.node("vdd");
    const NodeId vcc = nl.node("vcc");
    const NodeId vcc2 = nl.node("vcc2");
    const NodeId out = nl.node("out");
    const NodeId out2 = nl.node("out2");
    const NodeId clamp = nl.node("clamp");
    nl.add_vsource("Vdd", vdd, nl.ground(), Source::dc(3.3));
    nl.add_inductor("Lpkg", vdd, vcc, 2e-9, 0.1);
    nl.add_capacitor("Cdie", vcc, nl.ground(), 50e-12);
    nl.add_inductor("Ljmp", vcc, vcc2, 0.0);
    DriverParams p1;
    p1.input = Source::pulse(0.0, 1.0, 0.5e-9, 0.3e-9, 0.3e-9, 1.5e-9);
    p1.c_out = 2e-12;
    nl.add_driver("D1", out, vcc, nl.ground(), p1);
    DriverParams p2 = p1;
    p2.input = Source::pulse(1.0, 0.0, 0.8e-9, 0.3e-9, 0.3e-9, 1.5e-9);
    nl.add_driver("D2", out2, vcc2, nl.ground(), p2);
    nl.add_capacitor("Cload", out, nl.ground(), 10e-12);
    nl.add_resistor("Rload2", out2, nl.ground(), 100.0);
    nl.add_vsource("Vsense", out, clamp, Source::dc(0.0));
    VectorD v, i;
    for (double x = -1.0; x <= 3.0; x += 0.25) {
        v.push_back(x);
        i.push_back(0.0);
    }
    for (double x = 3.25; x <= 6.0; x += 0.25) {
        v.push_back(x);
        i.push_back((x - 3.0) * 0.05);
    }
    nl.add_table_conductance("Dclamp", clamp, nl.ground(), std::move(v),
                             std::move(i));
    return nl;
}

// Two drivers fed from ideal supplies through zero-impedance chains that run
// through a node no driver touches: Vdd (gnd → n1) then a 0 V ammeter
// Vsense (n1 → vcc), and Vdd2 (gnd → n2) then a jumper Ljmp with L = R = 0
// (n2 → vcc2). Every branch row of the chains has a zero diagonal.
inline Netlist supply_chain_netlist() {
    Netlist nl;
    const NodeId n1 = nl.node("n1");
    const NodeId vcc = nl.node("vcc");
    const NodeId n2 = nl.node("n2");
    const NodeId vcc2 = nl.node("vcc2");
    const NodeId out = nl.node("out");
    const NodeId out2 = nl.node("out2");
    const NodeId far = nl.node("far");
    const NodeId far2 = nl.node("far2");
    nl.add_vsource("Vdd", n1, nl.ground(), Source::dc(3.3));
    nl.add_vsource("Vsense", n1, vcc, Source::dc(0.0));
    nl.add_vsource("Vdd2", n2, nl.ground(), Source::dc(2.5));
    nl.add_inductor("Ljmp", n2, vcc2, 0.0);
    DriverParams p1;
    p1.input = Source::pulse(0.0, 1.0, 0.5e-9, 0.3e-9, 0.3e-9, 1.5e-9);
    p1.c_out = 2e-12;
    nl.add_driver("D1", out, vcc, nl.ground(), p1);
    DriverParams p2 = p1;
    p2.input = Source::pulse(1.0, 0.0, 0.8e-9, 0.3e-9, 0.3e-9, 1.5e-9);
    nl.add_driver("D2", out2, vcc2, nl.ground(), p2);
    nl.add_resistor("Rs", out, far, 25.0);
    nl.add_capacitor("Cfar", far, nl.ground(), 5e-12);
    nl.add_resistor("Rs2", out2, far2, 50.0);
    nl.add_capacitor("Cfar2", far2, nl.ground(), 3e-12);
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

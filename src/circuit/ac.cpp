#include "circuit/ac.hpp"

#include <cmath>

#include <algorithm>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "numeric/lu.hpp"
#include "obs/trace.hpp"

namespace pgsi {

namespace {

// Stamp a full admittance block between terminal (node, ref) pairs:
// I_into(term_j) = sum_k Y(j,k) * (V(node_k) - V(ref_k)).
void stamp_terminal_block(MatrixC& m, const MnaLayout& lay,
                          const std::vector<NodeId>& nodes,
                          const std::vector<NodeId>& refs, const MatrixC& y) {
    const std::size_t n = nodes.size();
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t rj = lay.node(nodes[j]);
        const std::size_t rrj = lay.node(refs[j]);
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t ck = lay.node(nodes[k]);
            const std::size_t crk = lay.node(refs[k]);
            const Complex g = y(j, k);
            if (rj != MnaLayout::npos && ck != MnaLayout::npos) m(rj, ck) += g;
            if (rj != MnaLayout::npos && crk != MnaLayout::npos) m(rj, crk) -= g;
            if (rrj != MnaLayout::npos && ck != MnaLayout::npos) m(rrj, ck) -= g;
            if (rrj != MnaLayout::npos && crk != MnaLayout::npos) m(rrj, crk) += g;
        }
    }
}

// Linear interpolation of the tabulated S matrix at freq (clamped at the
// sample ends), converted to the admittance Y = (1/z0)(I+S)^{-1}(I-S).
MatrixC sparam_block_admittance(const SParamBlock& blk, double freq) {
    const TouchstoneData& d = *blk.data;
    const std::size_t n = d.s.front().rows();
    MatrixC s(n, n);
    if (freq <= d.freqs_hz.front()) {
        s = d.s.front();
    } else if (freq >= d.freqs_hz.back()) {
        s = d.s.back();
    } else {
        const auto it =
            std::upper_bound(d.freqs_hz.begin(), d.freqs_hz.end(), freq);
        const std::size_t i = static_cast<std::size_t>(it - d.freqs_hz.begin());
        const double f0 = d.freqs_hz[i - 1], f1 = d.freqs_hz[i];
        const double w = (freq - f0) / (f1 - f0);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                s(r, c) = (1.0 - w) * d.s[i - 1](r, c) + w * d.s[i](r, c);
    }
    MatrixC a(n, n), b(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c) {
            const Complex delta = (r == c) ? Complex(1, 0) : Complex(0, 0);
            a(r, c) = delta - s(r, c);
            b(r, c) = delta + s(r, c);
        }
    MatrixC y = Lu<Complex>(std::move(b)).solve(a);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c) y(r, c) /= d.z0;
    return y;
}

} // namespace

AcSolution ac_analyze(const Netlist& nl, double freq_hz) {
    PGSI_REQUIRE(freq_hz > 0, "ac_analyze: frequency must be positive");
    PGSI_TRACE_SCOPE("ac.analyze");
    const double omega = 2.0 * pi * freq_hz;
    const Complex jw(0.0, omega);
    const MnaLayout lay(nl);
    MatrixC m(lay.dim(), lay.dim());
    VectorC b(lay.dim(), Complex{});
    const auto add = [&m](std::size_t i, std::size_t j, Complex v) {
        m(i, j) += v;
    };

    for (const Resistor& r : nl.resistors())
        stamp_conductance(add, lay, r.a, r.b, Complex(1.0 / r.r, 0.0));

    if (nl.nonlinear()) {
        const DcSolution dc = dc_operating_point(nl);
        for (const TableConductance& tc : nl.table_conductances()) {
            const double v = dc.v(tc.a) - dc.v(tc.b);
            stamp_conductance(add, lay, tc.a, tc.b,
                              Complex(tc.iv.slope(v), 0.0));
        }
    }

    for (const DriverInstance& d : nl.drivers()) {
        stamp_conductance(add, lay, d.out, d.vcc, Complex(d.params.g_up(0.0), 0.0));
        stamp_conductance(add, lay, d.out, d.gnd, Complex(d.params.g_dn(0.0), 0.0));
        if (d.params.c_out > 0)
            stamp_conductance(add, lay, d.out, d.gnd, jw * d.params.c_out);
    }

    for (const Capacitor& c : nl.capacitors())
        stamp_conductance(add, lay, c.a, c.b, jw * c.c);

    // Inductors: V_a - V_b - (R + jωL) I - Σ jωM I_other = 0.
    for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
        const Inductor& l = nl.inductors()[k];
        const std::size_t cur = lay.inductor_current(k);
        stamp_branch_incidence(add, lay, l.a, l.b, cur);
        m(cur, cur) -= jw * l.l + l.r;
    }
    for (const MutualCoupling& mu : nl.mutuals()) {
        const double mval = mu.k * std::sqrt(std::abs(nl.inductors()[mu.l1].l) *
                                             std::abs(nl.inductors()[mu.l2].l));
        const std::size_t c1 = lay.inductor_current(mu.l1);
        const std::size_t c2 = lay.inductor_current(mu.l2);
        m(c1, c2) -= jw * mval;
        m(c2, c1) -= jw * mval;
    }

    for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
        const VSource& v = nl.vsources()[k];
        const std::size_t cur = lay.vsource_current(k);
        stamp_branch_incidence(add, lay, v.a, v.b, cur);
        b[cur] += v.src.ac_phasor();
    }

    for (const ISource& i : nl.isources()) {
        stamp_current(b, lay, i.a, -i.src.ac_phasor());
        stamp_current(b, lay, i.b, +i.src.ac_phasor());
    }

    for (const TlineInstance& t : nl.tlines()) {
        const std::size_t n = t.near.size();
        std::vector<NodeId> nodes(2 * n), refs(2 * n);
        for (std::size_t c = 0; c < n; ++c) {
            nodes[c] = t.near[c];
            nodes[n + c] = t.far[c];
            refs[c] = t.near_ref;
            refs[n + c] = t.far_ref;
        }
        stamp_terminal_block(m, lay, nodes, refs, t.model->ac_admittance(omega));
    }

    for (const SParamBlock& blk : nl.sparam_blocks()) {
        const std::vector<NodeId> refs(blk.nodes.size(), blk.ref);
        stamp_terminal_block(m, lay, blk.nodes, refs,
                             sparam_block_admittance(blk, freq_hz));
    }

    VectorC x;
    try {
        x = Lu<Complex>(std::move(m)).solve(b);
    } catch (Error& e) {
        e.with_context("while solving the AC MNA system at f = " +
                       std::to_string(freq_hz) + " Hz");
        throw;
    }

    AcSolution sol;
    sol.freq_hz = freq_hz;
    sol.node_voltage.assign(nl.node_count(), Complex{});
    for (NodeId n = 1; n < nl.node_count(); ++n) sol.node_voltage[n] = x[lay.node(n)];
    sol.vsource_current.resize(nl.vsources().size());
    for (std::size_t k = 0; k < nl.vsources().size(); ++k)
        sol.vsource_current[k] = x[lay.vsource_current(k)];
    return sol;
}

std::vector<AcSolution> ac_sweep(const Netlist& nl, const VectorD& freqs_hz) {
    PGSI_TRACE_SCOPE("ac.sweep");
    std::vector<AcSolution> out;
    out.reserve(freqs_hz.size());
    for (double f : freqs_hz) out.push_back(ac_analyze(nl, f));
    return out;
}

VectorD log_space(double f_start, double f_stop, int points_per_decade) {
    PGSI_REQUIRE(f_start > 0 && f_stop > f_start, "log_space: bad range");
    PGSI_REQUIRE(points_per_decade >= 1, "log_space: bad density");
    VectorD f;
    const double decades = std::log10(f_stop / f_start);
    const int n = static_cast<int>(std::ceil(decades * points_per_decade)) + 1;
    for (int i = 0; i < n; ++i)
        f.push_back(f_start * std::pow(10.0, decades * i / (n - 1)));
    return f;
}

VectorD lin_space(double a, double b, int n) {
    PGSI_REQUIRE(n >= 2 && b > a, "lin_space: bad range");
    VectorD f(n);
    for (int i = 0; i < n; ++i) f[i] = a + (b - a) * i / (n - 1);
    return f;
}

} // namespace pgsi

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "circuit/mna.hpp"
#include "common/robust.hpp"
#include "numeric/sparse_lu.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/stream.hpp"

namespace pgsi {

namespace {

// One linear(ized) DC solve: table elements are stamped at the linearization
// voltages in `table_v` (Newton companion: g = di/dv, ieq = i(v) - g·v).
// `gmin` adds a shunt conductance from every node to ground (continuation
// regularization), `srcscale` scales every independent source (source
// ramping); gmin = 0, srcscale = 1 is the physical system. The shunt is
// stamped even at gmin = 0, so every solve of a netlist has one pattern and
// `lu` keeps the ordering its first factor computed.
VectorD dc_solve_linearized(const Netlist& nl, const MnaLayout& lay,
                            std::optional<SparseLu>& lu,
                            const VectorD& table_v, double gmin,
                            double srcscale) {
    std::vector<SparseEntry> entries;
    const auto add = [&](std::size_t i, std::size_t j, double v) {
        entries.push_back({i, j, v});
    };
    VectorD b(lay.dim(), 0.0);

    for (const Resistor& r : nl.resistors())
        stamp_conductance(add, lay, r.a, r.b, 1.0 / r.r);

    for (const DriverInstance& d : nl.drivers()) {
        stamp_conductance(add, lay, d.out, d.vcc, d.params.g_up(0.0));
        stamp_conductance(add, lay, d.out, d.gnd, d.params.g_dn(0.0));
    }

    for (std::size_t k = 0; k < nl.table_conductances().size(); ++k) {
        const TableConductance& tc = nl.table_conductances()[k];
        const double v = table_v[k];
        const double g = tc.iv.slope(v);
        const double ieq = tc.iv(v) - g * v;
        stamp_conductance(add, lay, tc.a, tc.b, g);
        stamp_current(b, lay, tc.a, -ieq);
        stamp_current(b, lay, tc.b, +ieq);
    }

    // Inductors: branch current unknown, branch equation V_a - V_b = R·I.
    // A loop of *ideal* inductors makes the DC system structurally singular
    // (the circulating current is undetermined), and extracted plane models
    // are full of such loops — including mutual-coupling branches between
    // galvanically separate planes, which must NOT become DC shorts. The
    // regularization resistance is therefore taken *proportional to the
    // branch inductance* (r = L/τ, τ = 1 s): the resulting DC conductance
    // network is exactly τ·Γ, which preserves the inductive network's
    // per-component current conservation, so no spurious inter-plane DC path
    // appears while every loop current is pinned. Voltages move by < nV.
    constexpr double kDcLoopRegPerSecond = 1.0; // r = L · this
    for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
        const Inductor& l = nl.inductors()[k];
        const std::size_t cur = lay.inductor_current(k);
        stamp_branch_incidence(add, lay, l.a, l.b, cur);
        add(cur, cur, -(l.r > 0 ? l.r : l.l * kDcLoopRegPerSecond));
    }

    // Voltage sources: branch equation V_a - V_b = value.
    for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
        const VSource& v = nl.vsources()[k];
        const std::size_t cur = lay.vsource_current(k);
        stamp_branch_incidence(add, lay, v.a, v.b, cur);
        b[cur] += srcscale * v.src.dc_value();
    }

    for (const ISource& i : nl.isources()) {
        // Positive source current flows a -> b through the source, i.e. it is
        // extracted from node a and injected into node b.
        stamp_current(b, lay, i.a, -srcscale * i.src.dc_value());
        stamp_current(b, lay, i.b, +srcscale * i.src.dc_value());
    }

    for (const TlineInstance& t : nl.tlines())
        for (std::size_t c = 0; c < t.near.size(); ++c)
            stamp_conductance(add, lay, t.near[c], t.far[c], kTlineDcShort);

    for (NodeId n = 1; n < nl.node_count(); ++n)
        add(lay.node(n), lay.node(n), gmin);

    const CscMatrix m = CscMatrix::from_entries(lay.dim(), entries);
    if (lu)
        lu->refactor(m);
    else
        lu.emplace(m);
    return lu->solve(b);
}

// The damped Newton relaxation over the table elements at one continuation
// point. `table_v` carries the linearization state in and out (warm start
// between continuation levels). Throws NumericalError on non-convergence,
// singular factorization, or non-finite arithmetic.
VectorD dc_newton(const Netlist& nl, const MnaLayout& lay,
                  std::optional<SparseLu>& lu, VectorD& table_v, double gmin,
                  double srcscale) {
    if (robust::FaultInjector::should_fire("dcop.diverge"))
        throw NumericalError(
            "dc_operating_point: Newton iteration did not converge "
            "(injected divergence, fault site dcop.diverge)");
    const std::size_t ntab = nl.table_conductances().size();
    PGSI_ALLOC_SCOPE("circuit.dcop");
    // Convergence stream: the worst table-voltage residual per Newton
    // iteration; one series per dc_newton call (continuation levels each
    // get their own). Linear netlists iterate zero times and record none.
    const std::size_t sid = ntab > 0 && obs::streams_enabled()
                                ? obs::stream_open("dcop.newton")
                                : obs::kStreamNone;
    VectorD x;
    constexpr int kMaxNewton = 60;
    for (int iter = 0;; ++iter) {
        x = dc_solve_linearized(nl, lay, lu, table_v, gmin, srcscale);
        robust::require_finite(x, "dc operating point solution");
        if (ntab == 0) break;
        auto node_v = [&](NodeId n) {
            const std::size_t i = lay.node(n);
            return i == MnaLayout::npos ? 0.0 : x[i];
        };
        double worst = 0;
        for (std::size_t k = 0; k < ntab; ++k) {
            const TableConductance& tc = nl.table_conductances()[k];
            const double v = node_v(tc.a) - node_v(tc.b);
            worst = std::max(worst, std::abs(v - table_v[k]));
            // Damped update improves robustness across table breakpoints.
            table_v[k] += 0.8 * (v - table_v[k]);
        }
        if (sid != obs::kStreamNone)
            obs::stream_append(sid, static_cast<double>(iter), worst);
        if (worst < 1e-9) break;
        if (iter >= kMaxNewton)
            throw NumericalError(
                "dc_operating_point: Newton iteration did not converge");
    }
    return x;
}

// A loop of zero-impedance inductor branches (R = 0 and L = 0) leaves the
// circulating DC current undetermined — the r = L/τ regularization above
// vanishes with L, so the MNA matrix is structurally singular. Returns the
// node cycle when one exists (closing branch's endpoints first), empty
// otherwise.
std::vector<NodeId> find_ideal_inductor_loop(const Netlist& nl) {
    const std::size_t nn = nl.node_count();
    std::vector<NodeId> parent(nn);
    for (NodeId n = 0; n < nn; ++n) parent[n] = n;
    auto find = [&](NodeId n) {
        while (parent[n] != n) {
            parent[n] = parent[parent[n]];
            n = parent[n];
        }
        return n;
    };
    std::vector<std::vector<NodeId>> adj(nn); // zero-impedance edges added
    for (const Inductor& l : nl.inductors()) {
        if (l.r > 0 || l.l > 0) continue;
        if (l.a == l.b) return {l.a}; // self loop
        const NodeId ra = find(l.a), rb = find(l.b);
        if (ra != rb) {
            parent[ra] = rb;
            adj[l.a].push_back(l.b);
            adj[l.b].push_back(l.a);
            continue;
        }
        // This branch closes a cycle: recover the existing a..b path with a
        // BFS over the zero-impedance edges added so far.
        std::vector<NodeId> prev(nn, static_cast<NodeId>(nn));
        std::vector<NodeId> queue{l.a};
        prev[l.a] = l.a;
        for (std::size_t q = 0; q < queue.size(); ++q) {
            const NodeId u = queue[q];
            if (u == l.b) break;
            for (NodeId w : adj[u])
                if (prev[w] == nn) {
                    prev[w] = u;
                    queue.push_back(w);
                }
        }
        std::vector<NodeId> loop;
        for (NodeId n = l.b; n != l.a; n = prev[n]) loop.push_back(n);
        loop.push_back(l.a);
        std::reverse(loop.begin(), loop.end());
        return loop;
    }
    return {};
}

DcSolution pack_solution(const Netlist& nl, const MnaLayout& lay,
                         const VectorD& x) {
    DcSolution sol;
    sol.node_voltage.assign(nl.node_count(), 0.0);
    for (NodeId n = 1; n < nl.node_count(); ++n)
        sol.node_voltage[n] = x[lay.node(n)];
    sol.inductor_current.resize(nl.inductors().size());
    for (std::size_t k = 0; k < nl.inductors().size(); ++k)
        sol.inductor_current[k] = x[lay.inductor_current(k)];
    sol.vsource_current.resize(nl.vsources().size());
    for (std::size_t k = 0; k < nl.vsources().size(); ++k)
        sol.vsource_current[k] = x[lay.vsource_current(k)];
    return sol;
}

} // namespace

DcSolution dc_operating_point(const Netlist& nl) {
    return dc_operating_point(nl, robust::RecoveryOptions{}, nullptr);
}

DcSolution dc_operating_point(const Netlist& nl,
                              const robust::RecoveryOptions& opt,
                              robust::RecoveryReport* report) {
    // Cancellation point: before the plain attempt and (below) before each
    // continuation family, so a cancelled batch job never grinds through
    // gmin stepping it no longer needs.
    if (opt.cancel != nullptr) opt.cancel->poll("dcop.solve");
    const MnaLayout lay(nl);
    std::optional<SparseLu> lu; // one ordering for every solve below
    const std::size_t ntab = nl.table_conductances().size();
    VectorD table_v(ntab, 0.0);
    VectorD x;
    try {
        x = dc_newton(nl, lay, lu, table_v, 0.0, 1.0);
        return pack_solution(nl, lay, x);
    } catch (const NumericalError&) {
        // Structural diagnosis first: a loop of zero-impedance inductors is
        // a modeling error no continuation can fix — name the loop instead
        // of retrying.
        const std::vector<NodeId> loop = find_ideal_inductor_loop(nl);
        if (!loop.empty()) {
            std::string msg =
                "dc_operating_point: loop of ideal (R = 0, L = 0) inductors "
                "through node(s)";
            for (NodeId n : loop) msg += " '" + nl.node_name(n) + "'";
            msg += "; the circulating DC current is undetermined — give one "
                   "branch a nonzero series resistance or inductance";
            throw InvalidArgument(msg);
        }
        if (opt.policy == robust::RecoveryPolicy::Strict) throw;
    }

    // Gmin stepping: solve with a shunt conductance on every node, shrinking
    // it 10× per level (each level warm-starts the next through table_v),
    // then remove it entirely for the final solve.
    {
        table_v.assign(ntab, 0.0);
        double gmin = opt.gmin_start;
        bool ok = true;
        try {
            for (int s = 0; s < opt.gmin_steps; ++s, gmin *= 0.1) {
                if (opt.cancel != nullptr) opt.cancel->poll("dcop.gmin");
                x = dc_newton(nl, lay, lu, table_v, gmin, 1.0);
            }
            x = dc_newton(nl, lay, lu, table_v, 0.0, 1.0);
        } catch (const NumericalError&) {
            ok = false;
        }
        if (ok) {
            robust::note_recovery(report, "dcop.gmin",
                                  "DC operating point recovered by gmin "
                                  "stepping (" +
                                      std::to_string(opt.gmin_steps) +
                                      " levels from " +
                                      std::to_string(opt.gmin_start) + " S)");
            return pack_solution(nl, lay, x);
        }
    }

    // Source ramping: scale every independent source up from a fraction of
    // its value, warm-starting each rung from the previous solution.
    {
        table_v.assign(ntab, 0.0);
        bool ok = true;
        try {
            for (int s = 1; s <= opt.source_steps; ++s) {
                if (opt.cancel != nullptr) opt.cancel->poll("dcop.source_ramp");
                x = dc_newton(nl, lay, lu, table_v, 0.0,
                              static_cast<double>(s) /
                                  static_cast<double>(opt.source_steps));
            }
        } catch (const NumericalError&) {
            ok = false;
        }
        if (ok) {
            robust::note_recovery(report, "dcop.source_ramp",
                                  "DC operating point recovered by ramping "
                                  "sources over " +
                                      std::to_string(opt.source_steps) +
                                      " steps");
            return pack_solution(nl, lay, x);
        }
    }

    // Re-run the plain solve so the caller sees the original failure, with
    // the recovery attempts recorded in the context chain.
    try {
        table_v.assign(ntab, 0.0);
        x = dc_newton(nl, lay, lu, table_v, 0.0, 1.0);
    } catch (NumericalError& e) {
        e.with_context(
            "after gmin stepping and source ramping both failed to recover");
        throw;
    }
    return pack_solution(nl, lay, x);
}

} // namespace pgsi

#include "circuit/transient.hpp"

#include <cmath>
#include <map>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/robust.hpp"
#include "numeric/sparse_lu.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"

namespace pgsi {

VectorD TransientResult::waveform(NodeId node) const {
    for (std::size_t k = 0; k < probes.size(); ++k) {
        if (probes[k] != node) continue;
        VectorD w(samples.size());
        for (std::size_t s = 0; s < samples.size(); ++s) w[s] = samples[s][k];
        return w;
    }
    throw InvalidArgument("TransientResult: node was not recorded");
}

double TransientResult::peak_abs(NodeId node) const {
    const VectorD w = waveform(node);
    return max_abs(w);
}

double TransientResult::peak_excursion(NodeId node) const {
    const VectorD w = waveform(node);
    double m = 0;
    for (double v : w) m = std::max(m, std::abs(v - w.front()));
    return m;
}

namespace {

// Timestep-cut ladder: a failed step is re-advanced with kCutFactor^L
// backward-Euler substeps, L = 1 .. kMaxCuts.
constexpr int kMaxCuts = 3;
constexpr std::size_t kCutFactor = 8;

// Internal capacitor bookkeeping (netlist capacitors + driver output caps).
struct CapState {
    NodeId a = 0, b = 0;
    double c = 0;
    double v_prev = 0; // v(a) - v(b)
    double i_prev = 0;
};

} // namespace

struct TransientStepper::Impl {
    const Netlist& nl;
    double dt;
    Integrator method;
    robust::RecoveryOptions ropt;
    robust::RecoveryReport report;
    MnaLayout lay;

    std::vector<CapState> caps;
    // Inductor coupling by rows: (j, L_kj) for inductor k's self term and
    // every mutual, ascending in j.
    std::vector<std::vector<std::pair<std::size_t, double>>> lcoup;
    std::vector<std::unique_ptr<TlineState>> tstates;
    VectorD ind_i_prev, ind_v_prev;
    VectorD driver_gu, driver_gd;
    VectorD table_v;       // table linearization voltages (per element)
    VectorD table_g_last;  // conductances stamped in the current factor

    // The MNA matrix on its fixed pattern (every stamp position, drivers and
    // tables included), the time-invariant values of (dt, core_method), and
    // the sparse factor of the latest full matrix. The factor's ordering is
    // computed once, by its first factorization.
    CscMatrix a;
    VectorD lti_values;
    Integrator core_method = Integrator::BackwardEuler;
    bool core_valid = false;
    std::optional<SparseLu> lu;
    bool lu_valid = false;

    std::size_t step_count = 0;

    // Convergence streams (kStreamNone while recording is off; the opened_
    // flag keeps a capped-out recorder from re-opening every step).
    std::size_t newton_sid = obs::kStreamNone;   // Newton iterations per step
    std::size_t residual_sid = obs::kStreamNone; // final Newton residual
    std::size_t dt_sid = obs::kStreamNone;       // effective step size
    bool streams_opened = false;
    double last_newton_worst = 0;     // residual at Newton termination
    std::size_t last_step_substeps = 1; // > 1 when recover_step cut the step
    VectorD x;           // last MNA solution
    VectorD node_v_now;  // indexed by NodeId
    TransientStats stats;

    Impl(const Netlist& netlist, double dt_in, Integrator method_in,
         const robust::RecoveryOptions& ropt_in)
        : nl(netlist), dt(dt_in), method(method_in), ropt(ropt_in),
          lay(netlist) {
        PGSI_ALLOC_SCOPE("circuit.transient");
        PGSI_REQUIRE(dt > 0, "TransientStepper: dt must be positive");
        PGSI_REQUIRE(nl.sparam_blocks().empty(),
                     "TransientStepper: S-parameter blocks are AC-only; fit "
                     "them with vector_fit + stamp_foster_impedance first");
        for (const Capacitor& c : nl.capacitors())
            caps.push_back({c.a, c.b, c.c, 0, 0});
        for (const DriverInstance& d : nl.drivers())
            if (d.params.c_out > 0)
                caps.push_back({d.out, d.gnd, d.params.c_out, 0, 0});

        const std::size_t ni = nl.inductors().size();
        std::vector<std::map<std::size_t, double>> coupling(ni);
        for (std::size_t k = 0; k < ni; ++k)
            coupling[k][k] = nl.inductors()[k].l;
        for (const MutualCoupling& mu : nl.mutuals()) {
            const double m = mu.k * std::sqrt(std::abs(nl.inductors()[mu.l1].l) *
                                              std::abs(nl.inductors()[mu.l2].l));
            coupling[mu.l1][mu.l2] += m;
            coupling[mu.l2][mu.l1] += m;
        }
        for (const auto& row : coupling)
            lcoup.emplace_back(row.begin(), row.end());
        ind_i_prev.assign(ni, 0.0);
        ind_v_prev.assign(ni, 0.0);
        driver_gu.assign(nl.drivers().size(), -1.0);
        driver_gd.assign(nl.drivers().size(), -1.0);
        table_v.assign(nl.table_conductances().size(), 0.0);
        table_g_last.assign(nl.table_conductances().size(), -1.0);

        initialize_dc();
    }

    void initialize_dc() {
        PGSI_TRACE_SCOPE("transient.dcop");
        const DcSolution dc = dc_operating_point(nl, ropt, &report);
        node_v_now = dc.node_voltage;
        for (std::size_t k = 0; k < nl.table_conductances().size(); ++k) {
            const TableConductance& tc = nl.table_conductances()[k];
            table_v[k] = dc.v(tc.a) - dc.v(tc.b);
        }
        x.assign(lay.dim(), 0.0);
        for (NodeId n = 1; n < nl.node_count(); ++n) x[lay.node(n)] = dc.v(n);
        for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
            x[lay.inductor_current(k)] = dc.inductor_current[k];
            ind_i_prev[k] = dc.inductor_current[k];
            ind_v_prev[k] = 0.0;
        }
        for (std::size_t k = 0; k < nl.vsources().size(); ++k)
            x[lay.vsource_current(k)] = dc.vsource_current[k];
        for (CapState& c : caps) {
            c.v_prev = dc.v(c.a) - dc.v(c.b);
            c.i_prev = 0.0;
        }
        tstates.clear();
        for (const TlineInstance& t : nl.tlines()) {
            auto st = std::make_unique<TlineState>(*t.model, dt);
            const std::size_t n = t.near.size();
            VectorD vn(n), vf(n), in(n), inf(n);
            for (std::size_t c = 0; c < n; ++c) {
                vn[c] = dc.v(t.near[c]) - dc.v(t.near_ref);
                vf[c] = dc.v(t.far[c]) - dc.v(t.far_ref);
                const double i = kTlineDcShort * (dc.v(t.near[c]) - dc.v(t.far[c]));
                in[c] = i;
                inf[c] = -i;
            }
            st->initialize_dc(vn, in, vf, inf);
            tstates.push_back(std::move(st));
        }
    }

    double companion_scale(Integrator m) const {
        return m == Integrator::Trapezoidal ? 2.0 / dt : 1.0 / dt;
    }

    // Stamp the time-invariant MNA matrix of integrator m: everything but
    // the driver and table conductances.
    template <class Add>
    void stamp_lti(Add&& add, Integrator m) const {
        const double s = companion_scale(m);
        for (const Resistor& r : nl.resistors())
            stamp_conductance(add, lay, r.a, r.b, 1.0 / r.r);
        for (const CapState& c : caps)
            stamp_conductance(add, lay, c.a, c.b, s * c.c);

        for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
            const Inductor& l = nl.inductors()[k];
            const std::size_t cur = lay.inductor_current(k);
            stamp_branch_incidence(add, lay, l.a, l.b, cur);
            add(cur, cur, -l.r);
            for (const auto& [j, lkj] : lcoup[k])
                add(cur, lay.inductor_current(j), -(s * lkj));
        }

        for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
            const VSource& v = nl.vsources()[k];
            stamp_branch_incidence(add, lay, v.a, v.b, lay.vsource_current(k));
        }

        for (const TlineInstance& t : nl.tlines()) {
            const MatrixD& yc = t.model->characteristic_admittance();
            const std::size_t n = t.near.size();
            auto stamp_end = [&](const std::vector<NodeId>& nodes, NodeId ref) {
                const std::size_t rr = lay.node(ref);
                for (std::size_t j = 0; j < n; ++j)
                    for (std::size_t k = 0; k < n; ++k) {
                        const double g = yc(j, k);
                        const std::size_t rj = lay.node(nodes[j]);
                        const std::size_t ck = lay.node(nodes[k]);
                        if (rj != MnaLayout::npos && ck != MnaLayout::npos)
                            add(rj, ck, g);
                        if (rj != MnaLayout::npos && rr != MnaLayout::npos)
                            add(rj, rr, -g);
                        if (rr != MnaLayout::npos && ck != MnaLayout::npos)
                            add(rr, ck, -g);
                        if (rr != MnaLayout::npos) add(rr, rr, g);
                    }
            };
            stamp_end(t.near, t.near_ref);
            stamp_end(t.far, t.far_ref);
        }
    }

    // Stamp the driver conductances at their current values and the table
    // conductances `table_g`.
    template <class Add>
    void stamp_switching(Add&& add, const VectorD& table_g) const {
        for (std::size_t d = 0; d < nl.drivers().size(); ++d) {
            const DriverInstance& dr = nl.drivers()[d];
            stamp_conductance(add, lay, dr.out, dr.vcc, driver_gu[d]);
            stamp_conductance(add, lay, dr.out, dr.gnd, driver_gd[d]);
        }
        for (std::size_t k = 0; k < table_g.size(); ++k) {
            const TableConductance& tc = nl.table_conductances()[k];
            stamp_conductance(add, lay, tc.a, tc.b, table_g[k]);
        }
    }

    // Assemble the time-invariant values of integrator m. Driver and table
    // positions join the pattern with zero values; refresh_factor adds their
    // conductances.
    void build_core(Integrator m) {
        PGSI_TRACE_SCOPE("transient.lti_setup");
        core_valid = false;
        lu_valid = false;
        std::vector<SparseEntry> entries;
        stamp_lti([&](std::size_t i, std::size_t j,
                      double v) { entries.push_back({i, j, v}); },
                  m);
        stamp_switching([&](std::size_t i, std::size_t j,
                            double) { entries.push_back({i, j, 0.0}); },
                        table_g_last);
        a = CscMatrix::from_entries(lay.dim(), entries);
        lti_values = a.values;
        core_method = m;
        core_valid = true;
    }

    // Bring the factor up to date for integrator m at time t: reassemble the
    // time-invariant values on a (dt, integrator) change, and refactor the
    // whole matrix whenever that or a driver or table conductance moves.
    void refresh_factor(Integrator m, double t, const VectorD& table_g) {
        bool drivers_moved = false;
        for (std::size_t d = 0; d < nl.drivers().size(); ++d) {
            const double gu = nl.drivers()[d].params.g_up(t);
            const double gd = nl.drivers()[d].params.g_dn(t);
            if (std::abs(gu - driver_gu[d]) > 1e-12 * (std::abs(gu) + 1e-12) ||
                std::abs(gd - driver_gd[d]) > 1e-12 * (std::abs(gd) + 1e-12))
                drivers_moved = true;
            driver_gu[d] = gu;
            driver_gd[d] = gd;
        }
        bool tables_moved = false;
        for (std::size_t k = 0; k < table_g.size(); ++k)
            if (std::abs(table_g[k] - table_g_last[k]) >
                1e-12 * (std::abs(table_g[k]) + 1e-12))
                tables_moved = true;
        table_g_last = table_g;
        const bool core_current = core_valid && core_method == m;
        if (core_current && lu_valid && !drivers_moved && !tables_moved) return;
        if (!core_current) build_core(m);
        PGSI_TRACE_SCOPE("transient.factor");
        lu_valid = false;
        a.values = lti_values;
        stamp_switching([&](std::size_t i, std::size_t j,
                            double v) { a.add(i, j, v); },
                        table_g);
        if (lu)
            lu->refactor(a);
        else
            lu.emplace(a);
        ++stats.lu_factorizations;
        stats.factor_flops += lu->flops();
        stats.lu_nnz = lu->nnz();
        // The estimator costs a handful of solves, so spot-check the first
        // factor and every 64th thereafter rather than every refactor.
        if (stats.lu_factorizations == 1 || stats.lu_factorizations % 64 == 0)
            robust::check_condition(lu->condition_estimate(),
                                    "transient MNA matrix", &report);
        lu_valid = true;
    }

    double node_v(const VectorD& sol, NodeId n) const {
        const std::size_t i = lay.node(n);
        return i == MnaLayout::npos ? 0.0 : sol[i];
    }

    // Everything try_step mutates, captured so a failed step (or a failed
    // cut-timestep re-advance) can be rolled back and retried.
    struct Snapshot {
        std::vector<CapState> caps;
        VectorD ind_i_prev, ind_v_prev;
        VectorD driver_gu, driver_gd;
        VectorD table_v, table_g_last;
        VectorD x, node_v_now;
    };

    Snapshot take_snapshot() const {
        return {caps,      ind_i_prev, ind_v_prev, driver_gu, driver_gd,
                table_v,   table_g_last, x,        node_v_now};
    }

    void restore(const Snapshot& s) {
        caps = s.caps;
        ind_i_prev = s.ind_i_prev;
        ind_v_prev = s.ind_v_prev;
        driver_gu = s.driver_gu;
        driver_gd = s.driver_gd;
        table_v = s.table_v;
        table_g_last = s.table_g_last;
        x = s.x;
        node_v_now = s.node_v_now;
    }

    // Change the step size, invalidating every dt-dependent cache.
    void set_dt(double new_dt) {
        if (new_dt == dt) return;
        dt = new_dt;
        core_valid = false;
        lu_valid = false;
    }

    // try_step plus the robustness envelope: the deterministic fault site
    // and, under Recover, conversion of a NumericalError (singular factor,
    // non-finite arithmetic) into a recoverable step failure.
    bool attempt(double t, Integrator m) {
        if (robust::FaultInjector::should_fire("transient.newton"))
            return false;
        try {
            return try_step(t, m);
        } catch (const NumericalError&) {
            if (ropt.policy == robust::RecoveryPolicy::Strict) throw;
            lu_valid = false; // the cached factor may be the one that failed
            return false;
        }
    }

    // Re-advance the failed step [t - dt, t] with a cut timestep: restore
    // the pre-step state and split the interval into kCutFactor^L
    // backward-Euler substeps, deepening L up to kMaxCuts levels.
    // History values (capacitor/inductor voltages and currents) are physical
    // quantities at the substep times, so the step-size change is consistent.
    bool recover_step(const Snapshot& snap) {
        const double dt_full = dt;
        const double t0 = (step_count - 1) * dt_full;
        std::size_t nsub = 1;
        for (int level = 1; level <= kMaxCuts; ++level) {
            nsub *= kCutFactor;
            restore(snap);
            set_dt(dt_full / static_cast<double>(nsub));
            bool ok = true;
            for (std::size_t i = 1; i <= nsub && ok; ++i)
                ok = attempt(t0 + dt_full * (static_cast<double>(i) /
                                             static_cast<double>(nsub)),
                             Integrator::BackwardEuler);
            if (ok) {
                set_dt(dt_full);
                ++stats.timestep_cuts;
                last_step_substeps = nsub;
                static obs::Counter& cuts =
                    obs::counter("transient.timestep_cuts");
                ++cuts;
                if (newton_sid != obs::kStreamNone)
                    obs::stream_mark(newton_sid, step_count * dt_full,
                                     "timestep_cut:" + std::to_string(nsub));
                robust::note_recovery(
                    &report, "transient.timestep_cut",
                    "step to t = " + std::to_string(step_count * dt_full) +
                        " s re-advanced with " + std::to_string(nsub) +
                        " backward-Euler substeps");
                return true;
            }
        }
        restore(snap);
        set_dt(dt_full);
        return false;
    }

    void advance() {
        // Cancellation point: one poll per time step, before any state of
        // this step is touched, so a cancelled run stops on a consistent
        // previous-step state.
        if (ropt.cancel != nullptr) ropt.cancel->poll("transient.step");
        PGSI_ALLOC_SCOPE("circuit.transient");
        if (!streams_opened && obs::streams_enabled()) {
            streams_opened = true;
            newton_sid = obs::stream_open("transient.newton");
            residual_sid = obs::stream_open("transient.residual");
            dt_sid = obs::stream_open("transient.dt");
        }
        const std::size_t newton0 = stats.newton_iterations;
        last_step_substeps = 1;
        ++step_count;
        const double t = step_count * dt;
        const Integrator m = (step_count == 1) ? Integrator::BackwardEuler : method;
        // Timestep cutting needs a rollback point, and is off for netlists
        // with transmission lines: their delay-line history is sampled at
        // the construction dt and cannot be re-gridded mid-run.
        const bool can_cut = ropt.policy == robust::RecoveryPolicy::Recover &&
                             tstates.empty();
        Snapshot snap;
        if (can_cut) snap = take_snapshot();
        if (!attempt(t, m)) {
            // Newton failure on a trapezoidal step: reject it and redo the
            // step with the maximally damped backward Euler companion before
            // cutting the timestep (the damped model is far less prone to
            // the oscillation that stalls the relaxation).
            bool recovered = false;
            if (m == Integrator::Trapezoidal) {
                ++stats.step_rejections;
                static obs::Counter& rejections =
                    obs::counter("transient.step_rejections");
                ++rejections;
                if (newton_sid != obs::kStreamNone)
                    obs::stream_mark(newton_sid, t, "be_retry");
                recovered = attempt(t, Integrator::BackwardEuler);
            }
            if (!recovered && can_cut) recovered = recover_step(snap);
            if (!recovered) {
                NumericalError err(
                    "transient: Newton iteration did not converge at t = " +
                    std::to_string(t));
                err.with_context("while advancing the transient to t = " +
                                 std::to_string(t) + " s");
                const std::string span = obs::current_span_path();
                if (!span.empty()) err.with_context("in span " + span);
                throw err;
            }
        }
        ++stats.steps;
        if (newton_sid != obs::kStreamNone)
            obs::stream_append(
                newton_sid, t,
                static_cast<double>(stats.newton_iterations - newton0));
        if (residual_sid != obs::kStreamNone)
            obs::stream_append(residual_sid, t, last_newton_worst);
        if (dt_sid != obs::kStreamNone)
            obs::stream_append(
                dt_sid, t,
                dt / static_cast<double>(last_step_substeps));
    }

    // One attempt at the step ending at time t with integrator m. Returns
    // false when the Newton relaxation over the table elements does not
    // converge; stepper history is mutated only on success.
    bool try_step(double t, Integrator m) {
        const double s = companion_scale(m);
        const bool trap = m == Integrator::Trapezoidal;

        VectorD rhs(lay.dim(), 0.0);

        std::vector<double> cap_ihist(caps.size());
        for (std::size_t k = 0; k < caps.size(); ++k) {
            const CapState& c = caps[k];
            const double ihist =
                trap ? -(s * c.c * c.v_prev + c.i_prev) : -(s * c.c * c.v_prev);
            cap_ihist[k] = ihist;
            stamp_current(rhs, lay, c.a, -ihist);
            stamp_current(rhs, lay, c.b, +ihist);
        }

        for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
            double acc = 0;
            for (const auto& [j, lkj] : lcoup[k]) acc += lkj * ind_i_prev[j];
            double r = -s * acc;
            if (trap) r -= ind_v_prev[k];
            rhs[lay.inductor_current(k)] += r;
        }

        for (std::size_t k = 0; k < nl.vsources().size(); ++k)
            rhs[lay.vsource_current(k)] += nl.vsources()[k].src.value(t);

        for (const ISource& i : nl.isources()) {
            const double v = i.src.value(t);
            stamp_current(rhs, lay, i.a, -v);
            stamp_current(rhs, lay, i.b, +v);
        }

        std::vector<VectorD> jn_near(nl.tlines().size()), jn_far(nl.tlines().size());
        for (std::size_t ti = 0; ti < nl.tlines().size(); ++ti) {
            const TlineInstance& tl = nl.tlines()[ti];
            jn_near[ti] = tl.model->norton_from_modal_emf(tstates[ti]->near_emf());
            jn_far[ti] = tl.model->norton_from_modal_emf(tstates[ti]->far_emf());
            for (std::size_t c = 0; c < tl.near.size(); ++c) {
                stamp_current(rhs, lay, tl.near[c], jn_near[ti][c]);
                stamp_current(rhs, lay, tl.near_ref, -jn_near[ti][c]);
                stamp_current(rhs, lay, tl.far[c], jn_far[ti][c]);
                stamp_current(rhs, lay, tl.far_ref, -jn_far[ti][c]);
            }
        }

        // Solve, with Newton iteration over the table elements when present.
        const std::size_t ntab = nl.table_conductances().size();
        constexpr int kMaxNewton = 40;
        last_newton_worst = 0;
        for (int iter = 0;; ++iter) {
            VectorD table_g(ntab);
            VectorD rhs_nl = rhs;
            for (std::size_t k = 0; k < ntab; ++k) {
                const TableConductance& tc = nl.table_conductances()[k];
                const double v = table_v[k];
                table_g[k] = tc.iv.slope(v);
                const double ieq = tc.iv(v) - table_g[k] * v;
                stamp_current(rhs_nl, lay, tc.a, -ieq);
                stamp_current(rhs_nl, lay, tc.b, +ieq);
            }
            refresh_factor(m, t, table_g);
            x = lu->solve(rhs_nl);
            ++stats.lu_solves;
            if (!robust::all_finite(x)) {
                static obs::Counter& c_nonfinite =
                    obs::counter("robust.nonfinite_detected");
                ++c_nonfinite;
                if (ropt.policy == robust::RecoveryPolicy::Strict)
                    throw NumericalError(
                        "transient: non-finite MNA solution at t = " +
                        std::to_string(t));
                return false; // let the recovery ladder decide
            }
            if (ntab == 0) break;
            ++stats.newton_iterations;
            double worst = 0;
            for (std::size_t k = 0; k < ntab; ++k) {
                const TableConductance& tc = nl.table_conductances()[k];
                const double v = node_v(x, tc.a) - node_v(x, tc.b);
                worst = std::max(worst, std::abs(v - table_v[k]));
                table_v[k] += 0.8 * (v - table_v[k]);
            }
            last_newton_worst = worst;
            if (worst < 1e-9) break;
            if (iter >= kMaxNewton) return false;
        }

        for (std::size_t k = 0; k < caps.size(); ++k) {
            CapState& c = caps[k];
            const double v = node_v(x, c.a) - node_v(x, c.b);
            c.i_prev = s * c.c * v + cap_ihist[k];
            c.v_prev = v;
        }
        for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
            const Inductor& l = nl.inductors()[k];
            ind_i_prev[k] = x[lay.inductor_current(k)];
            // Only the inductive part of the branch voltage enters the
            // trapezoidal history: v_L = (V_a - V_b) - R·I.
            ind_v_prev[k] =
                node_v(x, l.a) - node_v(x, l.b) - l.r * ind_i_prev[k];
        }
        for (std::size_t ti = 0; ti < nl.tlines().size(); ++ti) {
            const TlineInstance& tl = nl.tlines()[ti];
            const MatrixD& yc = tl.model->characteristic_admittance();
            const std::size_t n = tl.near.size();
            VectorD vn(n), vf(n);
            for (std::size_t c = 0; c < n; ++c) {
                vn[c] = node_v(x, tl.near[c]) - node_v(x, tl.near_ref);
                vf[c] = node_v(x, tl.far[c]) - node_v(x, tl.far_ref);
            }
            VectorD in = yc * vn;
            VectorD inf = yc * vf;
            for (std::size_t c = 0; c < n; ++c) {
                in[c] -= jn_near[ti][c];
                inf[c] -= jn_far[ti][c];
            }
            tstates[ti]->push(vn, in, vf, inf);
        }

        for (NodeId n = 1; n < nl.node_count(); ++n) node_v_now[n] = x[lay.node(n)];
        return true;
    }
};

TransientStepper::TransientStepper(const Netlist& nl, double dt,
                                   Integrator method,
                                   const robust::RecoveryOptions& recovery)
    : impl_(std::make_unique<Impl>(nl, dt, method, recovery)) {}

TransientStepper::~TransientStepper() = default;

void TransientStepper::step() { impl_->advance(); }

double TransientStepper::time() const { return impl_->step_count * impl_->dt; }

double TransientStepper::node_voltage(NodeId n) const {
    PGSI_REQUIRE(n < impl_->node_v_now.size(), "node_voltage: id out of range");
    return impl_->node_v_now[n];
}

double TransientStepper::vsource_current(std::size_t k) const {
    PGSI_REQUIRE(k < impl_->nl.vsources().size(), "vsource_current: bad index");
    return impl_->x[impl_->lay.vsource_current(k)];
}

double TransientStepper::inductor_current(std::size_t k) const {
    PGSI_REQUIRE(k < impl_->nl.inductors().size(), "inductor_current: bad index");
    return impl_->x[impl_->lay.inductor_current(k)];
}

const TransientStats& TransientStepper::stats() const { return impl_->stats; }

const robust::RecoveryReport& TransientStepper::recovery_report() const {
    return impl_->report;
}

TransientResult transient_analyze(const Netlist& nl, const TransientOptions& opt) {
    PGSI_REQUIRE(opt.dt > 0, "transient: dt must be positive");
    PGSI_REQUIRE(opt.tstop > opt.dt, "transient: tstop must exceed dt");
    PGSI_TRACE_SCOPE("transient.run");

    TransientStepper stepper(nl, opt.dt, opt.method, opt.recovery);

    std::vector<NodeId> probes = opt.probes;
    if (probes.empty())
        for (NodeId n = 0; n < nl.node_count(); ++n) probes.push_back(n);

    TransientResult res;
    res.probes = probes;
    auto record = [&]() {
        res.time.push_back(stepper.time());
        VectorD row(probes.size());
        for (std::size_t k = 0; k < probes.size(); ++k)
            row[k] = stepper.node_voltage(probes[k]);
        res.samples.push_back(std::move(row));
    };
    record();

    // Step count covering [0, tstop]: ceil(tstop/dt), except that when tstop
    // is an exact multiple of dt the quotient may land a hair above the
    // integer (1e-8/1e-9 = 10.000000000000002) and ceil would append a step
    // past tstop. Snap to the nearest integer when within a relative ulp-scale
    // tolerance of it.
    const double ratio = opt.tstop / opt.dt;
    const double nearest = std::round(ratio);
    const std::size_t steps = static_cast<std::size_t>(
        (nearest > 0 && std::abs(ratio - nearest) <= 1e-9 * nearest)
            ? nearest
            : std::ceil(ratio));
    for (std::size_t s = 1; s <= steps; ++s) {
        stepper.step();
        record();
    }
    res.stats = stepper.stats();
    res.recovery = stepper.recovery_report();
    return res;
}

} // namespace pgsi

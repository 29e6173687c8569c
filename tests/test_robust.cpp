// pgsi::robust — numerical-health guards, recovery policies, and
// deterministic fault injection across the solve pipeline.
//
// The acceptance tests inject faults at the compiled-in sites and assert
// that each recovery ladder rescues the run (matching an un-faulted golden
// result), that Strict reproduces the historical throws, and that every
// recovery is visible in the RecoveryReport and the pgsi::obs counters.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <random>

#include "circuit/mna.hpp"
#include "circuit/transient.hpp"
#include "common/error.hpp"
#include "common/robust.hpp"
#include "em/iterative_solver.hpp"
#include "em/solver.hpp"
#include "numeric/lu.hpp"
#include "obs/metrics.hpp"
#include "si/cosim.hpp"
#include "si/ssn.hpp"

using namespace pgsi;

// --- PGSI_FAULT environment grammar ----------------------------------------
// Declared first: the environment is parsed once, at the first fault-site
// query in the process, so this must run before any other test arms a site
// when the whole binary runs in one process. (Under ctest each test is its
// own process and the ordering constraint is moot.)

TEST(RobustEnv, FaultGrammarParsesSiteNthCountLists) {
    ::setenv("PGSI_FAULT",
             "lu.pivot:2,gmres.stall:1:0,serve.job:2:2,serve.deadline:1,"
             "cache.evict:1:0,transient.newton:2,bogus,alsobad:",
             1);
    // lu.pivot fires on exactly the 2nd call.
    EXPECT_FALSE(robust::FaultInjector::should_fire("lu.pivot"));
    EXPECT_TRUE(robust::FaultInjector::should_fire("lu.pivot"));
    EXPECT_FALSE(robust::FaultInjector::should_fire("lu.pivot"));
    // gmres.stall: count 0 = every call from the 1st on.
    EXPECT_TRUE(robust::FaultInjector::should_fire("gmres.stall"));
    EXPECT_TRUE(robust::FaultInjector::should_fire("gmres.stall"));
    // Batch-engine sites use the same grammar: serve.job fires on calls 2-3
    // (nth=2, count=2)...
    EXPECT_FALSE(robust::FaultInjector::should_fire("serve.job"));
    EXPECT_TRUE(robust::FaultInjector::should_fire("serve.job"));
    EXPECT_TRUE(robust::FaultInjector::should_fire("serve.job"));
    EXPECT_FALSE(robust::FaultInjector::should_fire("serve.job"));
    // ...serve.deadline defaults count to 1 (first call only)...
    EXPECT_TRUE(robust::FaultInjector::should_fire("serve.deadline"));
    EXPECT_FALSE(robust::FaultInjector::should_fire("serve.deadline"));
    // ...and cache.evict with count=0 fires on every call.
    EXPECT_TRUE(robust::FaultInjector::should_fire("cache.evict"));
    EXPECT_TRUE(robust::FaultInjector::should_fire("cache.evict"));
    EXPECT_TRUE(robust::FaultInjector::should_fire("cache.evict"));
    // The transient Newton site parses like any other: 2nd call only.
    EXPECT_FALSE(robust::FaultInjector::should_fire("transient.newton"));
    EXPECT_TRUE(robust::FaultInjector::should_fire("transient.newton"));
    EXPECT_FALSE(robust::FaultInjector::should_fire("transient.newton"));
    // Malformed entries are ignored, never armed.
    EXPECT_FALSE(robust::FaultInjector::should_fire("bogus"));
    EXPECT_EQ(robust::FaultInjector::fire_count("lu.pivot"), 1u);
    EXPECT_EQ(robust::FaultInjector::fire_count("gmres.stall"), 2u);
    EXPECT_EQ(robust::FaultInjector::fire_count("serve.job"), 2u);
    EXPECT_EQ(robust::FaultInjector::fire_count("serve.deadline"), 1u);
    EXPECT_EQ(robust::FaultInjector::fire_count("cache.evict"), 3u);
    EXPECT_EQ(robust::FaultInjector::fire_count("transient.newton"), 1u);
    robust::FaultInjector::disarm_all();
    ::unsetenv("PGSI_FAULT");
    EXPECT_FALSE(robust::FaultInjector::should_fire("gmres.stall"));
}

// --- fault injector semantics ----------------------------------------------

class Robust : public ::testing::Test {
protected:
    void TearDown() override { robust::FaultInjector::disarm_all(); }
};

TEST_F(Robust, InjectorFiresNthThroughNthPlusCount) {
    robust::FaultInjector::arm("unit.site", 3, 2);
    EXPECT_FALSE(robust::FaultInjector::should_fire("unit.site")); // call 1
    EXPECT_FALSE(robust::FaultInjector::should_fire("unit.site")); // call 2
    EXPECT_TRUE(robust::FaultInjector::should_fire("unit.site"));  // call 3
    EXPECT_TRUE(robust::FaultInjector::should_fire("unit.site"));  // call 4
    EXPECT_FALSE(robust::FaultInjector::should_fire("unit.site")); // call 5
    EXPECT_EQ(robust::FaultInjector::fire_count("unit.site"), 2u);
    // Unarmed sites never fire.
    EXPECT_FALSE(robust::FaultInjector::should_fire("other.site"));
    // Re-arming resets the call count.
    robust::FaultInjector::arm("unit.site", 1);
    EXPECT_TRUE(robust::FaultInjector::should_fire("unit.site"));
    EXPECT_FALSE(robust::FaultInjector::should_fire("unit.site"));
}

TEST_F(Robust, InjectorCountZeroFiresForever) {
    robust::FaultInjector::arm("unit.site", 2, 0);
    EXPECT_FALSE(robust::FaultInjector::should_fire("unit.site"));
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(robust::FaultInjector::should_fire("unit.site"));
    robust::FaultInjector::disarm_all();
    EXPECT_FALSE(robust::FaultInjector::should_fire("unit.site"));
    EXPECT_EQ(robust::FaultInjector::fire_count("unit.site"), 0u);
}

TEST_F(Robust, InjectedLuPivotFailureThrowsNamedError) {
    robust::FaultInjector::arm("lu.pivot", 1);
    MatrixD a(2, 2);
    a(0, 0) = a(1, 1) = 1.0;
    try {
        const Lu<double> lu(a);
        FAIL() << "expected injected pivot failure";
    } catch (const NumericalError& e) {
        EXPECT_NE(std::string(e.what()).find("lu.pivot"), std::string::npos);
    }
    EXPECT_EQ(robust::FaultInjector::fire_count("lu.pivot"), 1u);
    // Disarmed after count exhausted: the same factorization now succeeds.
    const Lu<double> lu(a);
    VectorD x = lu.solve(VectorD{1.0, 2.0});
    EXPECT_NEAR(x[0], 1.0, 1e-15);
}

// --- report / guard plumbing -------------------------------------------------

TEST_F(Robust, RecoveryReportCountsMergesAndSummarizes) {
    robust::RecoveryReport a, b;
    robust::note_recovery(&a, "dcop.gmin", "first");
    robust::note_recovery(&b, "dcop.gmin", "second");
    robust::note_recovery(&b, "transient.timestep_cut", "third");
    EXPECT_TRUE(a.any());
    a.merge(b);
    EXPECT_EQ(a.events.size(), 3u);
    EXPECT_EQ(a.count("dcop.gmin"), 2u);
    EXPECT_EQ(a.count("transient.timestep_cut"), 1u);
    EXPECT_EQ(a.count("nothing"), 0u);
    const std::string s = a.summary();
    EXPECT_NE(s.find("dcop.gmin: first"), std::string::npos);
    EXPECT_NE(s.find("transient.timestep_cut: third"), std::string::npos);
}

TEST_F(Robust, NoteRecoveryTicksObsCounters) {
    obs::Counter& total = obs::counter("robust.recoveries");
    obs::Counter& site = obs::counter("robust.test.site");
    const std::uint64_t t0 = total.value(), s0 = site.value();
    robust::note_recovery(nullptr, "test.site", "detail");
    EXPECT_EQ(total.value(), t0 + 1);
    EXPECT_EQ(site.value(), s0 + 1);
}

TEST_F(Robust, FiniteGuards) {
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(robust::is_finite(1.0));
    EXPECT_FALSE(robust::is_finite(std::nan("")));
    EXPECT_FALSE(robust::is_finite(Complex(0.0, inf)));
    EXPECT_TRUE(robust::all_finite(VectorD{1.0, 2.0}));
    EXPECT_FALSE(robust::all_finite(VectorC{Complex(1, 0), Complex(inf, 0)}));
    EXPECT_NO_THROW(robust::require_finite(VectorD{0.0, 1.0}, "stage"));
    obs::Counter& detected = obs::counter("robust.nonfinite_detected");
    const std::uint64_t d0 = detected.value();
    try {
        robust::require_finite(VectorD{0.0, std::nan("")}, "unit stage");
        FAIL() << "expected NumericalError";
    } catch (const NumericalError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unit stage"), std::string::npos);
        EXPECT_NE(msg.find("index 1"), std::string::npos);
    }
    EXPECT_EQ(detected.value(), d0 + 1);
}

// --- condition estimation ----------------------------------------------------

TEST_F(Robust, LuConditionEstimateTracksDiagonalSpread) {
    // diag(1, 1e-8): kappa_1 = 1e8 exactly; the Hager estimator is exact on
    // diagonal matrices.
    MatrixD a(2, 2);
    a(0, 0) = 1.0;
    a(1, 1) = 1e-8;
    const Lu<double> lu(a);
    EXPECT_NEAR(lu.condition_estimate(), 1e8, 1e8 * 1e-10);

    MatrixC ic(3, 3);
    for (std::size_t i = 0; i < 3; ++i) ic(i, i) = Complex(1.0, 0.0);
    const Lu<Complex> luc(ic);
    EXPECT_LT(luc.condition_estimate(), 10.0);
}

TEST_F(Robust, CheckConditionWarnsAboveThreshold) {
    robust::RecoveryOptions opt;
    opt.condition_warn_threshold = 1e6;
    robust::RecoveryReport report;
    obs::Counter& warnings = obs::counter("robust.condition_warnings");
    const std::uint64_t w0 = warnings.value();
    EXPECT_FALSE(robust::check_condition(1e3, "benign", opt, &report));
    EXPECT_FALSE(report.any());
    EXPECT_TRUE(robust::check_condition(1e9, "test matrix", opt, &report));
    EXPECT_EQ(report.count("condition_warning"), 1u);
    EXPECT_EQ(warnings.value(), w0 + 1);
    // Threshold 0 disables the check entirely.
    opt.condition_warn_threshold = 0;
    EXPECT_FALSE(robust::check_condition(1e30, "disabled", opt, &report));
}

// --- transient: injected Newton divergence recovers by timestep cut ----------

namespace {

Netlist rc_fixture() {
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId out = nl.node("out");
    nl.add_vsource("V1", in, nl.ground(), Source::dc(1.0));
    nl.add_resistor("R1", in, out, 1e3);
    nl.add_capacitor("C1", out, nl.ground(), 1e-9);
    return nl;
}

} // namespace

TEST_F(Robust, InjectedNewtonDivergenceRecoversByTimestepCut) {
    const Netlist nl = rc_fixture();
    const double tau = 1e-6;
    TransientOptions opt;
    opt.dt = tau;
    opt.tstop = 60 * tau;

    // Golden: no fault.
    const TransientResult golden = transient_analyze(nl, opt);
    ASSERT_FALSE(golden.recovery.any());
    ASSERT_EQ(golden.stats.timestep_cuts, 0u);

    // Fault both the trapezoidal attempt and the backward-Euler retry of
    // step 50 (the attempt-site call counter advances once per clean step),
    // forcing the timestep-cut ladder.
    obs::Counter& cuts = obs::counter("transient.timestep_cuts");
    obs::Counter& recoveries = obs::counter("robust.recoveries");
    const std::uint64_t c0 = cuts.value(), r0 = recoveries.value();
    robust::FaultInjector::arm("transient.newton", 50, 2);
    const TransientResult res = transient_analyze(nl, opt);

    EXPECT_EQ(res.stats.timestep_cuts, 1u);
    EXPECT_EQ(res.recovery.count("transient.timestep_cut"), 1u);
    EXPECT_EQ(cuts.value(), c0 + 1);
    EXPECT_GE(recoveries.value(), r0 + 1);

    // The re-advanced run matches the un-faulted golden waveform: the fault
    // lands in the settled region, where the backward-Euler substeps and the
    // trapezoidal step agree to far better than 1e-9.
    const NodeId out = nl.find_node("out");
    const VectorD w = res.waveform(out);
    const VectorD wg = golden.waveform(out);
    ASSERT_EQ(w.size(), wg.size());
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_NEAR(w[i], wg[i], 1e-9) << "sample " << i;
}

TEST_F(Robust, StrictTransientReproducesTheThrow) {
    const Netlist nl = rc_fixture();
    TransientOptions opt;
    opt.dt = 1e-6;
    opt.tstop = 10e-6;
    opt.recovery.policy = robust::RecoveryPolicy::Strict;
    robust::FaultInjector::arm("transient.newton", 5, 0);
    try {
        transient_analyze(nl, opt);
        FAIL() << "expected NumericalError under Strict";
    } catch (const NumericalError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("Newton iteration did not converge"),
                  std::string::npos);
        ASSERT_FALSE(e.context().empty());
        // Innermost context first: the advancing-step annotation.
        EXPECT_NE(e.context().front().find("while advancing the transient"),
                  std::string::npos);
    }
}

TEST_F(Robust, RecoverPolicyStillFailsWhenCutsAreExhausted) {
    const Netlist nl = rc_fixture();
    TransientOptions opt;
    opt.dt = 1e-6;
    opt.tstop = 10e-6;
    // Fault every attempt from step 3 on: no ladder level can succeed.
    robust::FaultInjector::arm("transient.newton", 3, 0);
    EXPECT_THROW(transient_analyze(nl, opt), NumericalError);
}

// --- DC operating point: injected divergence recovers by gmin stepping -------

TEST_F(Robust, InjectedDcDivergenceRecoversByGminStepping) {
    Netlist nl;
    const NodeId vin = nl.node("in");
    const NodeId mid = nl.node("mid");
    nl.add_vsource("V1", vin, nl.ground(), Source::dc(10.0));
    nl.add_resistor("R1", vin, mid, 1e3);
    nl.add_resistor("R2", mid, nl.ground(), 3e3);

    robust::FaultInjector::arm("dcop.diverge", 1, 1); // plain attempt fails
    robust::RecoveryReport report;
    const DcSolution s = dc_operating_point(nl, robust::RecoveryOptions{},
                                            &report);
    EXPECT_NEAR(s.v(mid), 7.5, 1e-9);
    EXPECT_EQ(report.count("dcop.gmin"), 1u);
}

TEST_F(Robust, StrictDcReproducesTheThrow) {
    Netlist nl;
    const NodeId a = nl.node("a");
    nl.add_vsource("V1", a, nl.ground(), Source::dc(1.0));
    nl.add_resistor("R1", a, nl.ground(), 1e3);
    robust::FaultInjector::arm("dcop.diverge", 1, 0);
    robust::RecoveryOptions opt;
    opt.policy = robust::RecoveryPolicy::Strict;
    EXPECT_THROW(dc_operating_point(nl, opt, nullptr), NumericalError);
}

// --- iterative EM solver: injected GMRES stall falls back to dense LU --------

namespace {

RectMesh small_plane_mesh() {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, 0.012, 0.010);
    s.z = 0.4e-3;
    s.sheet_resistance = 1e-3;
    return RectMesh({s}, 0.001);
}

PlaneBem small_bem() {
    return PlaneBem(small_plane_mesh(), Greens::homogeneous(4.2, true), {});
}

double max_rel_diff(const MatrixC& a, const MatrixC& b) {
    double scale = 1e-300, diff = 0;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j) {
            scale = std::max(scale, std::abs(a(i, j)));
            diff = std::max(diff, std::abs(a(i, j) - b(i, j)));
        }
    return diff / scale;
}

} // namespace

TEST_F(Robust, InjectedGmresStallFallsBackToDenseSolver) {
    const PlaneBem bem = small_bem();
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    SolverOptions opt;
    opt.backend = SolverBackend::Iterative;
    const IterativeSolver iterative(bem, zs, opt);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0)};

    // Stall every GMRES solve: the frequency's one block GMRES call fails,
    // and the single recovery rung rescues the point with the dense direct
    // solver.
    robust::FaultInjector::arm("gmres.stall", 1, 0);
    const MatrixC z = iterative.port_impedance(1e9, ports);
    robust::FaultInjector::disarm_all();

    EXPECT_EQ(iterative.stats().block_solves, 1u);
    EXPECT_EQ(iterative.stats().dense_fallbacks, 1u);
    EXPECT_EQ(iterative.recovery_report().count("em.dense_fallback"), 1u);
    EXPECT_EQ(iterative.recovery_report().events.size(), 1u);

    const DirectSolver direct(bem, zs);
    const MatrixC zd = direct.port_impedance(1e9, ports);
    EXPECT_LT(max_rel_diff(z, zd), 1e-8);
}

TEST_F(Robust, StrictIterativeSolverReproducesTheStallThrow) {
    const PlaneBem bem = small_bem();
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    SolverOptions opt;
    opt.backend = SolverBackend::Iterative;
    opt.recovery.policy = robust::RecoveryPolicy::Strict;
    const IterativeSolver iterative(bem, zs, opt);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0)};
    robust::FaultInjector::arm("gmres.stall", 1, 0);
    EXPECT_THROW(iterative.port_impedance(1e9, ports), NumericalError);
}

// --- error-context chains across layers --------------------------------------

TEST_F(Robust, ContextChainRendersInnermostFirstAcrossTransientAndSsn) {
    // A Newton failure inside the monolithic SSN transient must surface with
    // the full layered story: the transient annotation innermost, the SSN
    // simulation annotation outermost, and what() rendering every line.
    SsnModelOptions coarse;
    coarse.mesh_pitch = 25e-3;
    coarse.interior_nodes = 6;
    coarse.prune_rel_tol = 0.05;
    auto plane = std::make_shared<PlaneModel>(make_ssn_eval_board(1), coarse);
    const SsnModel model(plane);

    robust::FaultInjector::arm("transient.newton", 1, 0);
    robust::RecoveryOptions strict;
    strict.policy = robust::RecoveryPolicy::Strict;
    try {
        model.simulate(50e-12, 1e-9, {}, strict);
        FAIL() << "expected NumericalError under Strict";
    } catch (const NumericalError& e) {
        // Original message intact.
        EXPECT_NE(e.message().find("Newton iteration did not converge"),
                  std::string::npos);
        // Contexts: innermost (transient step) before outermost (SSN run).
        const std::vector<std::string>& ctx = e.context();
        ASSERT_GE(ctx.size(), 2u);
        std::size_t i_transient = ctx.size(), i_ssn = ctx.size();
        for (std::size_t i = 0; i < ctx.size(); ++i) {
            if (ctx[i].find("while advancing the transient") !=
                std::string::npos)
                i_transient = std::min(i_transient, i);
            if (ctx[i].find("while simulating the SSN model") !=
                std::string::npos)
                i_ssn = std::min(i_ssn, i);
        }
        ASSERT_LT(i_transient, ctx.size());
        ASSERT_LT(i_ssn, ctx.size());
        EXPECT_LT(i_transient, i_ssn);
        // what() renders the message followed by one indented line per
        // context, in chain order.
        const std::string what = e.what();
        const std::size_t p_msg = what.find("Newton iteration");
        const std::size_t p_in = what.find("\n  " + ctx[i_transient]);
        const std::size_t p_out = what.find("\n  " + ctx[i_ssn]);
        ASSERT_NE(p_msg, std::string::npos);
        ASSERT_NE(p_in, std::string::npos);
        ASSERT_NE(p_out, std::string::npos);
        EXPECT_LT(p_msg, p_in);
        EXPECT_LT(p_in, p_out);
    }
}

// --- recovery surfaced end-to-end through the cosim entry points -------------

TEST_F(Robust, SsnSimulationSurfacesRecoveriesInTheResult) {
    SsnModelOptions coarse;
    coarse.mesh_pitch = 25e-3;
    coarse.interior_nodes = 6;
    coarse.prune_rel_tol = 0.05;
    auto plane = std::make_shared<PlaneModel>(make_ssn_eval_board(1), coarse);
    const SsnModel model(plane);

    // Fault one mid-run step (trap + BE retry): the run must complete, with
    // the timestep cut recorded on the result.
    robust::FaultInjector::arm("transient.newton", 8, 2);
    const TransientResult res = model.simulate(50e-12, 1e-9);
    EXPECT_GE(res.stats.timestep_cuts, 1u);
    EXPECT_GE(res.recovery.count("transient.timestep_cut"), 1u);
}

// --- cooperative cancellation (CancelToken) ---------------------------------

TEST_F(Robust, CancelTokenTripsOnceWithFirstReason) {
    robust::CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_EQ(token.reason(), "");
    token.cancel("batch shutdown");
    token.cancel("too late");
    EXPECT_TRUE(token.cancelled());
    EXPECT_FALSE(token.deadline_expired());
    EXPECT_EQ(token.reason(), "batch shutdown");
    EXPECT_THROW(token.poll("unit.stage"), Cancelled);
    try {
        token.poll("unit.stage");
    } catch (const Cancelled& e) {
        EXPECT_NE(std::string(e.what()).find("unit.stage"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("batch shutdown"),
                  std::string::npos);
    }
}

TEST_F(Robust, CancelTokenDeadlineTripsLazilyWithoutWatchdog) {
    robust::CancelToken token;
    token.set_deadline_after(1e-4); // 100 us
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(200);
    while (!token.cancelled() && std::chrono::steady_clock::now() < until) {
    }
    ASSERT_TRUE(token.cancelled());
    EXPECT_TRUE(token.deadline_expired());
    EXPECT_THROW(token.poll("unit.stage"), Cancelled);
}

TEST_F(Robust, CancelTokenForcedExpiryNeedsAPendingDeadline) {
    robust::CancelToken without;
    without.expire_deadline(); // no deadline armed: must be a no-op
    EXPECT_FALSE(without.cancelled());

    robust::CancelToken with;
    with.set_deadline_after(3600.0); // far future
    with.expire_deadline();
    EXPECT_TRUE(with.cancelled());
    EXPECT_TRUE(with.deadline_expired());
}

TEST_F(Robust, CancelTokenAbortsTransientMidRun) {
    Netlist nl;
    const NodeId a = nl.node("a");
    nl.add_resistor("R1", a, nl.ground(), 50.0);
    nl.add_capacitor("C1", a, nl.ground(), 1e-12);
    nl.add_vsource("V1", a, nl.ground(), Source::dc(1.0));

    robust::CancelToken token;
    token.cancel("stop now");
    TransientOptions opt;
    opt.dt = 1e-11;
    opt.tstop = 1e-9;
    opt.recovery.cancel = &token;
    EXPECT_THROW(transient_analyze(nl, opt), Cancelled);
}

TEST_F(Robust, CancelTokenAbortsSweepBackends) {
    ConductorShape shape;
    shape.outline = Polygon::rectangle(0, 0, 0.04, 0.03);
    shape.z = 0.4e-3;
    shape.sheet_resistance = 0.6e-3;
    const PlaneBem bem(RectMesh({shape}, 0.01), Greens::homogeneous(4.5, true));
    robust::CancelToken token;
    token.cancel("batch abandoned");

    SolverOptions opt;
    opt.recovery.cancel = &token;
    opt.backend = SolverBackend::Direct;
    const auto direct = make_solver(
        bem, SurfaceImpedance::from_sheet_resistance(0.6e-3), opt);
    EXPECT_THROW(direct->sweep_impedance({1e8, 2e8}, {0}), Cancelled);

    opt.backend = SolverBackend::Iterative;
    const auto iterative = make_solver(
        bem, SurfaceImpedance::from_sheet_resistance(0.6e-3), opt);
    EXPECT_THROW(iterative->sweep_impedance({1e8, 2e8}, {0}), Cancelled);
}

TEST_F(Robust, EscalateOneRungIsMonotonicallyMoreForgiving) {
    robust::RecoveryOptions base;
    base.policy = robust::RecoveryPolicy::Strict;
    robust::RecoveryOptions rung = base;
    for (int k = 0; k < 3; ++k) {
        const robust::RecoveryOptions next = robust::escalate_one_rung(rung);
        EXPECT_EQ(next.policy, robust::RecoveryPolicy::Recover);
        EXPECT_GT(next.max_timestep_cuts, rung.max_timestep_cuts);
        EXPECT_GE(next.timestep_cut_factor, rung.timestep_cut_factor);
        EXPECT_GT(next.gmin_steps, rung.gmin_steps);
        EXPECT_GE(next.gmin_start, rung.gmin_start);
        EXPECT_GT(next.source_steps, rung.source_steps);
        rung = next;
    }
    EXPECT_LE(rung.gmin_start, 1e-1);
}

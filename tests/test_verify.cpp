// Tests for the property-based verification harness itself: generator
// determinism and coverage, the invariant checkers on known-good and
// deliberately corrupted inputs, the greedy shrinker, repro emission, and
// campaign/manifest determinism. The 20-iteration recovery campaign doubles
// as the PR 4 recovery-ladder coverage requirement: every random netlist run
// under an injected transient.newton fault must converge back to the
// unfaulted golden.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "si/board.hpp"
#include "si/board_file.hpp"
#include "verify/invariants.hpp"
#include "verify/scenario.hpp"
#include "verify/shrink.hpp"
#include "verify/verify.hpp"
#include "tests/test_util.hpp"

using namespace pgsi;
using namespace pgsi::verify;

namespace {

PlaneScenario rect_scenario() {
    PlaneScenario s;
    s.kind = "rectangle";
    s.pitch = 1e-3;
    s.sheet_resistance = 1e-3;
    s.eps_r = 4.2;
    ShapeSpec sh;
    sh.nx = 10;
    sh.ny = 8;
    sh.z = 0.3e-3;
    s.shapes.push_back(sh);
    s.ports.push_back(PortSpec{0, 0.25, 0.3});
    s.ports.push_back(PortSpec{0, 0.75, 0.7});
    return s;
}

} // namespace

TEST(VerifyRng, StreamsAreDeterministicAndIndependent) {
    Rng a = Rng::stream(7, 3);
    Rng b = Rng::stream(7, 3);
    Rng c = Rng::stream(7, 4);
    bool any_differs = false;
    for (int i = 0; i < 16; ++i) {
        const std::uint64_t va = a.next_u64();
        EXPECT_EQ(va, b.next_u64());
        any_differs = any_differs || va != c.next_u64();
    }
    EXPECT_TRUE(any_differs);
}

TEST(VerifyGenerator, PlaneScenariosAreDeterministic) {
    for (int iter = 0; iter < 8; ++iter) {
        Rng r1 = Rng::stream(42, iter);
        Rng r2 = Rng::stream(42, iter);
        EXPECT_EQ(generate_plane(r1).describe(), generate_plane(r2).describe());
    }
}

TEST(VerifyGenerator, CoversEveryScenarioKind) {
    std::set<std::string> kinds;
    for (int iter = 0; iter < 60; ++iter) {
        Rng rng = Rng::stream(1, iter);
        const PlaneScenario s = generate_plane(rng);
        EXPECT_NO_THROW(s.validate()) << s.describe();
        kinds.insert(s.kind);
    }
    for (const char* want : {"rectangle", "lshape", "holey", "split",
                             "multilayer", "nonuniform"})
        EXPECT_TRUE(kinds.count(want)) << "kind never generated: " << want;
}

TEST(VerifyGenerator, NonuniformScenariosForceDenseFallback) {
    for (int iter = 0; iter < 60; ++iter) {
        Rng rng = Rng::stream(1, iter);
        const PlaneScenario s = generate_plane(rng);
        if (s.kind != "nonuniform") continue;
        EXPECT_FALSE(s.make_bem().uniform_lattice()) << s.describe();
        return;
    }
    FAIL() << "no nonuniform scenario in 60 draws";
}

TEST(VerifyGenerator, NetlistScenariosAreDeterministicAndSolvable) {
    for (int iter = 0; iter < 4; ++iter) {
        Rng r1 = Rng::stream(9, iter);
        Rng r2 = Rng::stream(9, iter);
        const NetlistScenario a = generate_netlist(r1);
        const NetlistScenario b = generate_netlist(r2);
        EXPECT_EQ(a.summary, b.summary);
        EXPECT_GT(a.netlist.node_count(), 0u);
    }
}

TEST(VerifyCheckers, ReciprocityCatchesAsymmetry) {
    MatrixC z(2, 2);
    z(0, 0) = z(1, 1) = Complex(1.0, 0.5);
    z(0, 1) = Complex(0.2, 0.1);
    z(1, 0) = Complex(0.2, 0.1);
    EXPECT_TRUE(check_reciprocity(z, 1e-9).pass);
    z(1, 0) += Complex(1e-3, 0.0);
    const CheckResult r = check_reciprocity(z, 1e-9);
    EXPECT_FALSE(r.pass);
    EXPECT_GT(r.error, 1e-4);
}

TEST(VerifyCheckers, PassivityCatchesNegativeRealPart) {
    MatrixC z(2, 2);
    z(0, 0) = z(1, 1) = Complex(1.0, -3.0);
    z(0, 1) = z(1, 0) = Complex(0.1, -0.4);
    EXPECT_TRUE(check_passivity(z, 1e-10).pass);
    z(0, 0) = Complex(-0.05, -3.0); // active entry -> indefinite Hermitian part
    const CheckResult r = check_passivity(z, 1e-10);
    EXPECT_FALSE(r.pass);
    EXPECT_GT(r.error, 1e-3);
}

TEST(VerifyCheckers, DcLimitsHoldOnKnownRectangle) {
    const PlaneScenario s = rect_scenario();
    const CheckResult cap = run_plane_invariant(s, "dc_capacitance", {});
    EXPECT_TRUE(cap.pass) << cap.detail;
    const CheckResult res = run_plane_invariant(s, "dc_resistance", {});
    EXPECT_TRUE(res.pass) << res.detail;
}

TEST(VerifyCheckers, SweepRecycleHoldsOnKnownRectangle) {
    // The sweep-engine invariant: a warm-started, subspace-recycled
    // multi-frequency sweep must match cold direct solves point by point.
    const PlaneScenario s = rect_scenario();
    const CheckResult r = run_plane_invariant(s, "sweep_recycle", {});
    EXPECT_TRUE(r.pass) << r.detail;
    EXPECT_FALSE(r.skipped);
    EXPECT_LE(r.error, r.tolerance);
}

TEST(VerifyCheckers, EnergyBalanceHoldsOnGeneratedNetlists) {
    for (int iter = 0; iter < 5; ++iter) {
        Rng rng = Rng::stream(11, iter);
        const NetlistScenario ns = generate_netlist(rng);
        const CheckResult r =
            check_energy_balance(ns.netlist, ns.dt, ns.tstop, 0.03);
        EXPECT_TRUE(r.pass) << ns.summary << ": " << r.detail;
    }
}

TEST(VerifyCheckers, EnergyBalanceHoldsOnSsnDriverNetlist) {
    // Sixteen drivers (four switching, each with its internal output
    // capacitor) on an extracted plane: the driver dissipation and output
    // capacitor energy terms must close the balance.
    const SsnModel model(std::make_shared<PlaneModel>(
        make_ssn_eval_board(4), test::coarse_ssn()));
    const CheckResult r =
        check_energy_balance(model.netlist(), 50e-12, 4e-9, 0.03);
    EXPECT_TRUE(r.pass) << r.detail;
    EXPECT_LE(r.error, r.tolerance);
}

TEST(VerifyCheckers, EnergyBalanceHoldsOnTableNetlist) {
    // Pulse-driven diode clamp: the table conductance absorbs v·i(v).
    const CheckResult r = check_energy_balance(test::diode_clamp_netlist(),
                                               2.5e-11, 2e-9, 0.03);
    EXPECT_TRUE(r.pass) << r.detail;
    EXPECT_LE(r.error, r.tolerance);
}

TEST(VerifyShrink, MinimizesUnderSyntheticPredicate) {
    // Find a multilayer scenario with >= 2 layers and shrink under "still
    // has >= 2 layers". The minimum under the move set is 2 layers of 2x2
    // shapes with one port.
    for (int iter = 0; iter < 60; ++iter) {
        Rng rng = Rng::stream(1, iter);
        const PlaneScenario s = generate_plane(rng);
        if (s.layer_count() < 2) continue;
        const ShrinkResult sr = shrink_scenario(
            s, [](const PlaneScenario& c) { return c.layer_count() >= 2; });
        EXPECT_EQ(sr.scenario.layer_count(), 2u) << sr.scenario.describe();
        EXPECT_LE(sr.scenario.cell_count(), 8u) << sr.scenario.describe();
        EXPECT_EQ(sr.scenario.ports.size(), 1u);
        EXPECT_GT(sr.moves_kept, 0);
        EXPECT_NO_THROW(sr.scenario.validate());
        return;
    }
    FAIL() << "no multilayer scenario in 60 draws";
}

TEST(VerifyShrink, ReproFilesAreSelfContained) {
    const PlaneScenario s = rect_scenario();
    CheckResult failure;
    failure.invariant = "reciprocity";
    failure.pass = false;
    failure.error = 0.5;
    failure.tolerance = 1e-9;
    const std::string dir =
        (std::filesystem::temp_directory_path() / "pgsi_verify_test").string();
    const ReproPaths paths = write_repro(dir, "demo_seed1_iter0", s, failure);

    std::ifstream cpp(paths.cpp_path);
    ASSERT_TRUE(cpp.good());
    std::stringstream cs;
    cs << cpp.rdbuf();
    EXPECT_NE(cs.str().find("TEST(VerifyRepro,"), std::string::npos);
    EXPECT_NE(cs.str().find("run_plane_invariant"), std::string::npos);
    EXPECT_NE(cs.str().find("reciprocity"), std::string::npos);

    std::ifstream brd(paths.board_path);
    ASSERT_TRUE(brd.good());
    std::stringstream bs;
    bs << brd.rdbuf();
    // The emitted footprint must be loadable by the board-file parser.
    EXPECT_NO_THROW(parse_board_file(bs.str()));

    std::filesystem::remove_all(dir);
}

TEST(VerifyCampaign, SmokeRunHoldsAndIsDeterministic) {
    VerifyOptions opt;
    opt.seed = 3;
    opt.iterations = 3;
    const CampaignResult a = run_campaign(opt);
    EXPECT_TRUE(a.ok()) << manifest_json(a);
    const CampaignResult b = run_campaign(opt);
    EXPECT_EQ(manifest_json(a), manifest_json(b));
}

TEST(VerifyCampaign, SuiteSelectionIsolatesStreams) {
    // Netlist scenarios must not shift when the plane suites are deselected.
    VerifyOptions all;
    all.seed = 5;
    all.iterations = 2;
    VerifyOptions rec;
    rec.seed = 5;
    rec.iterations = 2;
    rec.suites = {Suite::Recovery};
    const CampaignResult a = run_campaign(all);
    const CampaignResult b = run_campaign(rec);
    const auto stats = [](const CampaignResult& r, const char* name) {
        for (const InvariantStats& s : r.invariants)
            if (s.invariant == name) return s;
        return InvariantStats{};
    };
    EXPECT_EQ(stats(a, "fault_recovery").worst_error,
              stats(b, "fault_recovery").worst_error);
}

TEST(VerifyCampaign, ParseSuites) {
    EXPECT_EQ(parse_suites("all").size(), all_suites().size());
    const std::vector<Suite> two = parse_suites("backends,energy");
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0], Suite::Backends);
    EXPECT_EQ(two[1], Suite::Energy);
    EXPECT_THROW(parse_suites("bogus"), InvalidArgument);
}

// PR 4 recovery-ladder coverage: with a transient.newton fault injected on
// the first step attempts, 20 random netlists must all converge back to the
// unfaulted golden within the recovery tolerance.
TEST(VerifyRecovery, TwentyRandomNetlistsConvergeUnderInjectedFault) {
    VerifyOptions opt;
    opt.seed = 1;
    opt.iterations = 20;
    opt.suites = {Suite::Recovery};
    const CampaignResult r = run_campaign(opt);
    EXPECT_TRUE(r.ok()) << manifest_json(r);
    ASSERT_EQ(r.invariants.size(), 1u);
    EXPECT_EQ(r.invariants[0].checks, 20u);
    EXPECT_EQ(r.invariants[0].failures, 0u);
}

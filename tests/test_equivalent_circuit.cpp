// Tests for the equivalent-circuit extraction (§4.2): element maps, model
// admittance consistency, netlist stamping, physical sanity, and the
// cycle-basis reduction against the dense all-node oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "circuit/ac.hpp"
#include "common/constants.hpp"
#include "common/robust.hpp"
#include "extract/equivalent_circuit.hpp"
#include "numeric/lu.hpp"
#include "obs/metrics.hpp"
#include "si/board.hpp"
#include "si/cosim.hpp"
#include "tests/test_util.hpp"
#include "verify/invariants.hpp"

using namespace pgsi;

namespace {

PlaneBem make_plane(double side, double pitch, double h, double rs = 6e-3) {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, side, side);
    s.z = h;
    s.sheet_resistance = rs;
    return PlaneBem(RectMesh({s}, pitch), Greens::homogeneous(4.5, true),
                    BemOptions{});
}

} // namespace

TEST(EquivalentCircuit, FullExtractionStructure) {
    const PlaneBem bem = make_plane(0.04, 0.01, 0.5e-3);
    const CircuitExtractor ex(bem);
    const EquivalentCircuit ec = ex.extract_full();
    EXPECT_EQ(ec.node_count(), bem.node_count());
    EXPECT_TRUE(ec.has_reference);
    // Branch L between adjacent nodes must be positive; node caps positive.
    for (double c : ec.node_cap) EXPECT_GT(c, 0.0);
    std::size_t positive_l = 0;
    for (const RlcBranch& b : ec.branches) {
        if (b.l > 0) ++positive_l;
        if (b.c != 0) {
            EXPECT_GT(b.c, 0.0);
        }
        if (b.r != 0) {
            EXPECT_GT(b.r, 0.0);
        }
    }
    EXPECT_GT(positive_l, 0u);
}

TEST(EquivalentCircuit, TotalCapacitanceMatchesParallelPlate) {
    const double side = 0.05, h = 0.5e-3;
    const PlaneBem bem = make_plane(side, side / 8, h);
    const EquivalentCircuit ec = CircuitExtractor(bem).extract_full();
    const double cpp = eps0 * 4.5 * side * side / h;
    EXPECT_NEAR(ec.total_reference_capacitance(), cpp, 0.25 * cpp);
    EXPECT_GT(ec.total_reference_capacitance(), cpp);
}

TEST(EquivalentCircuit, ReducedModelMatchesFullAtPorts) {
    // Impedance between two pin nodes: full circuit vs Kron-reduced circuit
    // must agree at low frequency (the reduction is exact for Γ and C).
    const PlaneBem bem = make_plane(0.04, 0.01, 0.5e-3);
    const CircuitExtractor ex(bem);
    const EquivalentCircuit full = ex.extract_full();
    const std::size_t p1 = bem.mesh().nearest_node({0.005, 0.005}, 0);
    const std::size_t p2 = bem.mesh().nearest_node({0.035, 0.035}, 0);
    const EquivalentCircuit red = ex.extract({p1, p2});

    const double f = 50e6;
    const MatrixC zf = full.impedance(f, {p1, p2});
    const MatrixC zr = red.impedance(f, {0, 1});
    EXPECT_NEAR(std::abs(zf(0, 0)), std::abs(zr(0, 0)), 0.05 * std::abs(zf(0, 0)));
    EXPECT_NEAR(std::abs(zf(0, 1)), std::abs(zr(0, 1)), 0.05 * std::abs(zf(0, 1)));
}

TEST(EquivalentCircuit, StampedNetlistMatchesModelAdmittance) {
    // AC analysis of the stamped netlist must reproduce the analytic model
    // impedance.
    const PlaneBem bem = make_plane(0.03, 0.01, 0.5e-3);
    const EquivalentCircuit ec = CircuitExtractor(bem).extract_full();

    Netlist nl;
    std::vector<NodeId> map;
    for (std::size_t k = 0; k < ec.node_count(); ++k)
        map.push_back(nl.add_node("p" + std::to_string(k)));
    ec.stamp(nl, map, nl.ground(), "pg");
    nl.add_isource("I1", nl.ground(), map[0], Source::dc(0.0).set_ac(1.0));

    const double f = 100e6;
    const AcSolution sol = ac_analyze(nl, f);
    const MatrixC z = ec.impedance(f, {0});
    EXPECT_NEAR(std::abs(sol.v(map[0])), std::abs(z(0, 0)),
                1e-6 * std::abs(z(0, 0)));
}

TEST(EquivalentCircuit, PruningDropsWeakBranches) {
    const PlaneBem bem = make_plane(0.05, 0.01, 0.5e-3);
    const EquivalentCircuit all =
        CircuitExtractor(bem, ExtractionOptions{0.0, true}).extract_full();
    const EquivalentCircuit pruned =
        CircuitExtractor(bem, ExtractionOptions{0.05, true}).extract_full();
    std::size_t all_l = 0, pruned_l = 0;
    for (const RlcBranch& b : all.branches)
        if (b.l != 0) ++all_l;
    for (const RlcBranch& b : pruned.branches)
        if (b.l != 0) ++pruned_l;
    EXPECT_LT(pruned_l, all_l);
    // ...while barely moving the port impedance.
    const std::size_t p1 = 0, p2 = bem.node_count() - 1;
    const double f = 30e6;
    const double za = std::abs(all.impedance(f, {p1, p2})(0, 1));
    const double zp = std::abs(pruned.impedance(f, {p1, p2})(0, 1));
    EXPECT_NEAR(zp, za, 0.1 * za);
}

TEST(EquivalentCircuit, LosslessExtractionHasNoR) {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, 0.03, 0.03);
    s.z = 0.5e-3;
    s.sheet_resistance = 0.0;
    const PlaneBem bem(RectMesh({s}, 0.01), Greens::homogeneous(4.5, true),
                       BemOptions{});
    const EquivalentCircuit ec = CircuitExtractor(bem).extract_full();
    for (const RlcBranch& b : ec.branches) EXPECT_DOUBLE_EQ(b.r, 0.0);
}

TEST(EquivalentCircuit, SelectNodesIncludesPortsAndInterior) {
    const PlaneBem bem = make_plane(0.05, 0.01, 0.5e-3);
    const CircuitExtractor ex(bem);
    const std::vector<std::size_t> ports{3, 7};
    const auto keep = ex.select_nodes(ports, 6);
    EXPECT_GE(keep.size(), 6u);
    EXPECT_TRUE(std::binary_search(keep.begin(), keep.end(), 3u));
    EXPECT_TRUE(std::binary_search(keep.begin(), keep.end(), 7u));
}

// --- cycle-basis reduction vs the dense all-node oracle ----------------------

namespace {

constexpr double kEquivTol = 1e-10;

// The E6 post-layout plane and its kept nodes: driver, decap and VRM pins
// plus 8 sampled interior nodes at 8 mm pitch (the SSN flow's selection).
struct E6Plane {
    std::shared_ptr<const PlaneModel> model;
    std::vector<std::size_t> keep;
};

E6Plane e6_plane(unsigned seed) {
    SsnModelOptions opt;
    opt.mesh_pitch = 8e-3;
    opt.interior_nodes = 8;
    opt.prune_rel_tol = 0.08;
    const Board board = make_postlayout_board(seed);
    E6Plane e;
    e.model = std::make_shared<const PlaneModel>(board, opt);
    const RectMesh& m = e.model->bem().mesh();
    std::vector<std::size_t> ports;
    for (const DriverSite& s : board.driver_sites())
        ports.push_back(m.nearest_node(s.vcc_pin, 0));
    for (const Decap& d : board.decaps()) ports.push_back(m.nearest_node(d.pos, 0));
    ports.push_back(m.nearest_node(board.vrm_location(), 0));
    e.keep = CircuitExtractor(e.model->bem()).select_nodes(ports, opt.interior_nodes);
    return e;
}

PlaneBem make_lshape_with_cutout() {
    ConductorShape s;
    s.outline = Polygon::lshape(0.04, 0.03, 0.02, 0.015);
    s.holes.push_back(Polygon::rectangle(0.0075, 0.005, 0.0125, 0.0125));
    s.z = 0.4e-3;
    s.sheet_resistance = 5e-3;
    return PlaneBem(RectMesh({s}, 2.5e-3), Greens::homogeneous(4.3, true));
}

PlaneBem make_two_shapes() {
    ConductorShape a;
    a.outline = Polygon::rectangle(0, 0, 0.02, 0.015);
    a.z = 0.5e-3;
    a.sheet_resistance = 4e-3;
    ConductorShape b = a;
    b.outline = Polygon::rectangle(0.025, 0, 0.04, 0.015);
    return PlaneBem(RectMesh({a, b}, 2.5e-3), Greens::homogeneous(4.5, true));
}

void expect_matches_dense(const PlaneBem& bem, const std::vector<std::size_t>& keep) {
    const CircuitExtractor ex(bem);
    const ReducedMatrices fast = ex.reduce(keep);
    const ReducedMatrices dense = verify::dense_reduction(bem, keep, ex.lossy());
    EXPECT_LE(verify::relative_diff(dense.gamma, fast.gamma), kEquivTol);
    EXPECT_LE(verify::relative_diff(dense.capacitance, fast.capacitance), kEquivTol);
    ASSERT_TRUE(ex.lossy());
    EXPECT_LE(verify::relative_diff(dense.conductance, fast.conductance), kEquivTol);
}

bool same_bits(const MatrixD& a, const MatrixD& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(double)) == 0;
}

} // namespace

// impedance() solves only the port columns of Y; Lu::solve's per-column
// arithmetic does not depend on how many columns it solves, so the result
// is bitwise the port block of the full inverse.
TEST(EquivalentCircuit, ImpedanceIsBitwiseThePortBlockOfTheInverse) {
    const E6Plane e = e6_plane(1998);
    const EquivalentCircuit& ec = e.model->circuit();
    ASSERT_GT(ec.node_count(), 4u);
    const std::vector<std::size_t> ports{3, 0, ec.node_count() - 1};
    for (const double f : {1e6, 1e8, 2e9}) {
        const MatrixC got = ec.impedance(f, ports);
        const MatrixC want =
            Lu<Complex>(ec.admittance(f)).inverse().submatrix(ports, ports);
        ASSERT_EQ(got.rows(), want.rows());
        ASSERT_EQ(got.cols(), want.cols());
        for (std::size_t r = 0; r < got.rows(); ++r)
            for (std::size_t c = 0; c < got.cols(); ++c)
                EXPECT_TRUE(test::same_bits(got(r, c), want(r, c)))
                    << "f " << f << " (" << r << ", " << c << ")";
    }
}

TEST(ExtractEquivalence, PostlayoutBoardMatchesDenseReduction) {
    const E6Plane e = e6_plane(1998);
    EXPECT_GT(e.model->bem().node_count(), 10 * e.keep.size());
    expect_matches_dense(e.model->bem(), e.keep);
}

TEST(ExtractEquivalence, PostlayoutBranchListMatchesDenseAtPrune) {
    // The pruning and passivity maps must keep exactly the same elements
    // from both reductions.
    const E6Plane e = e6_plane(1998);
    const CircuitExtractor ex(e.model->bem(), ExtractionOptions{0.08, true});
    const EquivalentCircuit fast = ex.extract(e.keep);
    const EquivalentCircuit dense = ex.circuit(
        verify::dense_reduction(e.model->bem(), e.keep, ex.lossy()), e.keep);
    ASSERT_EQ(fast.branches.size(), dense.branches.size());
    for (std::size_t i = 0; i < fast.branches.size(); ++i) {
        const RlcBranch& a = fast.branches[i];
        const RlcBranch& b = dense.branches[i];
        EXPECT_EQ(a.m, b.m) << i;
        EXPECT_EQ(a.n, b.n) << i;
        EXPECT_EQ(a.l != 0, b.l != 0) << i;
        EXPECT_EQ(a.c != 0, b.c != 0) << i;
        EXPECT_EQ(a.r != 0, b.r != 0) << i;
    }
}

TEST(ExtractEquivalence, LShapeWithCutoutMatchesDenseReduction) {
    const PlaneBem bem = make_lshape_with_cutout();
    const RectMesh& m = bem.mesh();
    const std::vector<std::size_t> ports{m.nearest_node({0.002, 0.002}),
                                         m.nearest_node({0.038, 0.005}),
                                         m.nearest_node({0.005, 0.028})};
    expect_matches_dense(bem, CircuitExtractor(bem).select_nodes(ports, 5));
}

TEST(ExtractEquivalence, DisjointShapesEachWithKeptNodeMatchDenseReduction) {
    const PlaneBem bem = make_two_shapes();
    ASSERT_EQ(bem.mesh().component_count(), 2u);
    // Two kept nodes per shape: a lone kept node's Γ and G rows are zero.
    const RectMesh& m = bem.mesh();
    const std::vector<std::size_t> keep{
        m.nearest_node({0.002, 0.002}, 0), m.nearest_node({0.018, 0.012}, 0),
        m.nearest_node({0.027, 0.012}, 1), m.nearest_node({0.038, 0.002}, 1)};
    expect_matches_dense(bem, keep);
}

TEST(ExtractEquivalence, KeepAllMatchesDenseMatrices) {
    const PlaneBem bem = make_plane(0.03, 5e-3, 0.5e-3);
    std::vector<std::size_t> keep(bem.node_count());
    for (std::size_t i = 0; i < keep.size(); ++i) keep[i] = i;
    expect_matches_dense(bem, keep);
}

TEST(ExtractEquivalence, ComponentWithoutKeptNodeThrows) {
    const PlaneBem bem = make_two_shapes();
    const CircuitExtractor ex(bem);
    EXPECT_THROW(ex.reduce({bem.mesh().nearest_node({0.01, 0.007}, 0)}),
                 NumericalError);
}

TEST(ExtractEquivalence, BitwiseIdenticalAcrossThreadCounts) {
    const E6Plane e = e6_plane(1998);
    const CircuitExtractor ex(e.model->bem());
    ReducedMatrices ref;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        test::ScopedThreadCount pin(threads);
        ReducedMatrices r = ex.reduce(e.keep);
        if (threads == 1) {
            ref = std::move(r);
            continue;
        }
        EXPECT_TRUE(same_bits(r.gamma, ref.gamma)) << threads << " threads";
        EXPECT_TRUE(same_bits(r.capacitance, ref.capacitance)) << threads << " threads";
        EXPECT_TRUE(same_bits(r.conductance, ref.conductance)) << threads << " threads";
    }
}

// Digests (%.17g, see test_util.hpp) of the E6 reduction on board 1998 and
// of the L and Ppot fills it reads, recorded from the unblocked kernels:
// Γ_red, C_red, G_red, L, Ppot.
TEST(ExtractEquivalence, ReduceAndFillsReproduceRecordedDigests) {
    const E6Plane e = e6_plane(1998);
    const PlaneBem& bem = e.model->bem();
    const ReducedMatrices r = CircuitExtractor(bem).reduce(e.keep);
    const std::uint64_t got[] = {
        test::digest(r.gamma), test::digest(r.capacitance),
        test::digest(r.conductance), test::digest(bem.inductance_matrix()),
        test::digest(bem.potential_matrix())};
    const std::uint64_t want[] = {0xfe09521a16ca94a6ull, 0x92bd8b8b6da573e0ull,
                                  0x0af4a27ab7ba79edull, 0x5aa81d80050d45b3ull,
                                  0xcf2257efd34a6fb7ull};
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(got[i], want[i]) << i << ": 0x" << std::hex << got[i];
}

TEST(ExtractEquivalence, InjectedCholeskyFaultFallsBackToLu) {
    const PlaneBem bem = make_lshape_with_cutout();
    const CircuitExtractor ex(bem);
    const std::vector<std::size_t> keep = ex.select_nodes({0, 7}, 6);
    const ReducedMatrices clean = ex.reduce(keep);

    obs::Counter& fallbacks = obs::counter("robust.extract.lu_fallback");
    const std::uint64_t before = fallbacks.value();
    robust::FaultInjector::arm("extract.cholesky", 1);
    const ReducedMatrices faulted = ex.reduce(keep);
    const std::uint64_t fired = robust::FaultInjector::fire_count("extract.cholesky");
    robust::FaultInjector::disarm_all();

    EXPECT_EQ(fired, 1u);
    EXPECT_EQ(fallbacks.value() - before, 1u);
    EXPECT_LE(verify::relative_diff(clean.gamma, faulted.gamma), kEquivTol);
    EXPECT_LE(verify::relative_diff(clean.capacitance, faulted.capacitance), kEquivTol);
    EXPECT_LE(verify::relative_diff(clean.conductance, faulted.conductance), kEquivTol);
}

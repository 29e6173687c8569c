// Physics tests for the BEM assembly: capacitance against classic reference
// values, matrix structure (SPD, Laplacian), testing-scheme agreement, and
// partial-inductance behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.hpp"
#include "common/robust.hpp"
#include "em/bem_plane.hpp"
#include "extract/reduction.hpp"
#include "numeric/cholesky.hpp"
#include "obs/metrics.hpp"
#include "verify/invariants.hpp"

using namespace pgsi;

namespace {

PlaneBem make_square_plate(double side, double pitch, const Greens& g,
                           Testing testing = Testing::PointMatching,
                           double rs = 0.0) {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, side, side);
    s.sheet_resistance = rs;
    s.z = 0.0;
    return PlaneBem(RectMesh({s}, pitch), g, BemOptions{testing, 2, 4});
}

double total_capacitance(const PlaneBem& bem) {
    const MatrixD& c = bem.maxwell_capacitance();
    double s = 0;
    for (std::size_t i = 0; i < c.rows(); ++i)
        for (std::size_t j = 0; j < c.cols(); ++j) s += c(i, j);
    return s;
}

} // namespace

TEST(Bem, FreeSquarePlateCapacitance) {
    // Capacitance of an isolated square plate of side a: C ≈ 0.367·4πε0·a
    // ≈ 40.8 pF for a = 1 m (classic electrostatic benchmark).
    const PlaneBem bem =
        make_square_plate(1.0, 1.0 / 13.0, Greens::homogeneous(1.0, false));
    const double c = total_capacitance(bem);
    EXPECT_NEAR(c, 40.8e-12, 0.08 * 40.8e-12);
}

TEST(Bem, GalerkinMatchesPointMatchingOnPlate) {
    const Greens g = Greens::homogeneous(1.0, false);
    const double cp =
        total_capacitance(make_square_plate(1.0, 0.1, g, Testing::PointMatching));
    const double cg =
        total_capacitance(make_square_plate(1.0, 0.1, g, Testing::Galerkin));
    EXPECT_NEAR(cp, cg, 0.03 * cg);
    // Galerkin should land closer to the converged value from above.
    EXPECT_NEAR(cg, 40.8e-12, 0.08 * 40.8e-12);
}

TEST(Bem, ParallelPlateCapacitance) {
    // Plate over an infinite reference plane at h << side: C ≈ ε0·A/h with a
    // few percent of fringing on top.
    const double side = 0.1, h = 1e-3;
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, side, side);
    s.z = h;
    const PlaneBem bem(RectMesh({s}, side / 10), Greens::homogeneous(1.0, true),
                       BemOptions{});
    const double c = total_capacitance(bem);
    const double cpp = eps0 * side * side / h;
    EXPECT_GT(c, cpp);            // fringing adds capacitance
    EXPECT_LT(c, 1.25 * cpp);     // ...but only a modest amount at h/side = 1%
}

TEST(Bem, DielectricScalesParallelPlate) {
    const double side = 0.05, h = 0.5e-3;
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, side, side);
    s.z = h;
    const PlaneBem b1(RectMesh({s}, side / 8), Greens::homogeneous(1.0, true),
                      BemOptions{});
    const PlaneBem b45(RectMesh({s}, side / 8), Greens::homogeneous(4.5, true),
                       BemOptions{});
    EXPECT_NEAR(total_capacitance(b45), 4.5 * total_capacitance(b1),
                1e-6 * total_capacitance(b45));
}

TEST(Bem, PotentialMatrixSpdAndSymmetric) {
    const PlaneBem bem =
        make_square_plate(0.04, 0.01, Greens::homogeneous(1.0, false));
    const MatrixD& p = bem.potential_matrix();
    EXPECT_LT(p.asymmetry(), 1e-12 * p.max_abs());
    EXPECT_TRUE(is_spd(p));
}

TEST(Bem, InductanceMatrixSpdSymmetricOrthogonalDecoupled) {
    const PlaneBem bem =
        make_square_plate(0.04, 0.01, Greens::homogeneous(1.0, false));
    const MatrixD& l = bem.inductance_matrix();
    EXPECT_LT(l.asymmetry(), 1e-10 * l.max_abs());
    EXPECT_TRUE(is_spd(l));
    const auto& branches = bem.mesh().branches();
    for (std::size_t a = 0; a < branches.size(); ++a)
        for (std::size_t b = 0; b < branches.size(); ++b)
            if (branches[a].dir != branches[b].dir) {
                EXPECT_DOUBLE_EQ(l(a, b), 0.0);
            }
}

TEST(Bem, GammaIsSymmetricLaplacian) {
    const PlaneBem bem =
        make_square_plate(0.04, 0.01, Greens::homogeneous(1.0, false));
    const MatrixD& g = bem.gamma();
    EXPECT_LT(g.asymmetry(), 1e-9 * g.max_abs());
    for (std::size_t i = 0; i < g.rows(); ++i) {
        double row = 0;
        for (std::size_t j = 0; j < g.cols(); ++j) row += g(i, j);
        EXPECT_NEAR(row, 0.0, 1e-9 * g.max_abs()) << "row " << i;
    }
}

TEST(Bem, DcConductanceMatchesSheetResistance) {
    // A 3x1 strip of squares: end-to-end resistance = 2 squares × Rs.
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, 0.03, 0.01);
    s.sheet_resistance = 6e-3;
    const PlaneBem bem(RectMesh({s}, 0.01), Greens::homogeneous(1.0, false),
                       BemOptions{});
    const MatrixD& g = bem.dc_conductance();
    // Kron-reduce onto the two end nodes: R = -1/G01 must equal 2·Rs.
    const MatrixD gr = schur_reduce(g, {0, 2});
    EXPECT_NEAR(-1.0 / gr(0, 1), 2.0 * 6e-3, 1e-9);
}

TEST(Bem, DcConductanceRequiresLoss) {
    const PlaneBem bem =
        make_square_plate(0.02, 0.01, Greens::homogeneous(1.0, false));
    EXPECT_THROW(bem.dc_conductance(), InvalidArgument);
}

TEST(Bem, RibbonPartialInductanceMatchesFormula) {
    // Partial self-inductance of a flat ribbon (return at infinity):
    // L ≈ (µ0·l/2π)(ln(2l/w) + 0.5 + w/(3l)).
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, 0.10, 0.01);
    const PlaneBem bem(RectMesh({s}, 0.01), Greens::homogeneous(1.0, false),
                       BemOptions{});
    // Reduce Γ to the two end nodes; the effective branch inductance is the
    // ribbon between the end cell centers (length 90 mm).
    const MatrixD gr = schur_reduce(bem.gamma(), {0, 9});
    const double l_num = -1.0 / gr(0, 1);
    const double len = 0.09, w = 0.01;
    const double l_ref =
        mu0 * len / (2 * pi) * (std::log(2 * len / w) + 0.5 + w / (3 * len));
    EXPECT_NEAR(l_num, l_ref, 0.2 * l_ref);
}

TEST(Bem, GroundImageReducesInductance) {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, 0.04, 0.01);
    s.z = 0.5e-3;
    const PlaneBem free(RectMesh({s}, 0.01), Greens::homogeneous(1.0, false),
                        BemOptions{});
    const PlaneBem img(RectMesh({s}, 0.01), Greens::homogeneous(1.0, true),
                       BemOptions{});
    EXPECT_LT(img.inductance_matrix()(0, 0), 0.3 * free.inductance_matrix()(0, 0));
}

TEST(Bem, BranchResistanceGeometry) {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, 0.02, 0.01);
    s.sheet_resistance = 1e-2;
    const PlaneBem bem(RectMesh({s}, 0.01), Greens::homogeneous(1.0, false),
                       BemOptions{});
    // One x branch of one square: R = Rs.
    ASSERT_EQ(bem.branch_resistance().size(), 1u);
    EXPECT_NEAR(bem.branch_resistance()[0], 1e-2, 1e-12);
}

// Mesh-convergence property: plate capacitance settles as pitch shrinks.
class BemConvergence : public ::testing::TestWithParam<int> {};

TEST_P(BemConvergence, PlateCapacitanceWithinBand) {
    const int n = GetParam();
    const PlaneBem bem =
        make_square_plate(1.0, 1.0 / n, Greens::homogeneous(1.0, false));
    EXPECT_NEAR(total_capacitance(bem), 40.8e-12, 0.12 * 40.8e-12) << n;
}

INSTANTIATE_TEST_SUITE_P(Meshes, BemConvergence, ::testing::Values(6, 8, 10, 14));

TEST(Bem, InjectedCholeskyFaultFallsBackToLu) {
    // maxwell_capacitance() and gamma() each fall back to pivoted LU when
    // their Cholesky fails, and record the fallback as a recovery.
    const Greens g = Greens::homogeneous(4.5, false);
    const PlaneBem clean = make_square_plate(0.02, 0.002, g);
    const PlaneBem faulted = make_square_plate(0.02, 0.002, g);

    obs::Counter& fallbacks = obs::counter("robust.bem.lu_fallback");
    const std::uint64_t before = fallbacks.value();
    robust::FaultInjector::arm("bem.cholesky", 1, 2);
    const MatrixD& c = faulted.maxwell_capacitance();
    const MatrixD& gam = faulted.gamma();
    const std::uint64_t fired = robust::FaultInjector::fire_count("bem.cholesky");
    robust::FaultInjector::disarm_all();

    EXPECT_EQ(fired, 2u);
    EXPECT_EQ(fallbacks.value() - before, 2u);
    EXPECT_LE(verify::relative_diff(clean.maxwell_capacitance(), c), 1e-12);
    EXPECT_LE(verify::relative_diff(clean.gamma(), gam), 1e-12);
}

// Matrix-free FFT/GMRES solver path against the dense direct solver.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/robust.hpp"
#include "em/iterative_solver.hpp"
#include "tests/test_util.hpp"
#include "em/solver.hpp"

using namespace pgsi;

namespace {

// Uniform pitch with an off-center antipad hole (same as test_bem_cache).
RectMesh holey_mesh() {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, 0.020, 0.016);
    s.holes.push_back(Polygon::rectangle(0.006, 0.005, 0.010, 0.008));
    s.z = 0.4e-3;
    s.sheet_resistance = 1e-3;
    return RectMesh({s}, 0.001);
}

// One power island split in two congruent pieces on a shared lattice plus a
// second layer: multiple connected components and a (z, z') table dimension.
RectMesh split_plane_mesh() {
    ConductorShape a;
    a.outline = Polygon::rectangle(0, 0, 0.008, 0.008);
    a.z = 0.3e-3;
    a.sheet_resistance = 1e-3;
    ConductorShape b = a;
    b.outline = Polygon::rectangle(0.010, 0, 0.018, 0.008);
    ConductorShape c = a;
    c.outline = Polygon::rectangle(0, 0, 0.018, 0.008);
    c.z = 0.8e-3;
    return RectMesh({a, b, c}, 0.001);
}

// Shapes of incommensurate widths: no common lattice, forcing the operators
// onto the exact dense fallback.
RectMesh nonuniform_mesh() {
    ConductorShape a;
    a.outline = Polygon::rectangle(0, 0, 0.010, 0.008);
    a.z = 0.4e-3;
    a.sheet_resistance = 1e-3;
    ConductorShape b = a;
    b.outline = Polygon::rectangle(0.015, 0, 0.015 + 0.0073, 0.0073);
    return RectMesh({a, b}, 0.001);
}

PlaneBem make_bem(RectMesh mesh, AssemblyMode mode = AssemblyMode::Auto) {
    BemOptions opt;
    opt.assembly = mode;
    return PlaneBem(std::move(mesh), Greens::homogeneous(4.2, true), opt);
}

double max_rel_diff(const MatrixC& a, const MatrixC& b) {
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    double scale = 1e-300;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            scale = std::max(scale, std::abs(a(i, j)));
    double m = 0;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            m = std::max(m, std::abs(a(i, j) - b(i, j)) / scale);
    return m;
}

SolverOptions iterative_options(
    PreconditionerKind pc = PreconditionerKind::NearFieldBlock) {
    SolverOptions opt;
    opt.backend = SolverBackend::Iterative;
    opt.preconditioner = pc;
    return opt;
}

} // namespace

TEST(IterativeSolver, MatchesDirectOnHoleyMesh) {
    const PlaneBem bem = make_bem(holey_mesh());
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const DirectSolver direct(bem, zs);
    const IterativeSolver iterative(bem, zs, iterative_options());

    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0),
        bem.mesh().nearest_node({0.018, 0.014}, 0)};
    const VectorD freqs{1e8, 1e9};
    const auto zd = direct.sweep_impedance(freqs, ports);
    const auto zi = iterative.sweep_impedance(freqs, ports);
    for (std::size_t i = 0; i < freqs.size(); ++i)
        EXPECT_LT(max_rel_diff(zi[i], zd[i]), 1e-8) << "f = " << freqs[i];
    EXPECT_GT(iterative.stats().iterations, 0u);
    EXPECT_LE(iterative.stats().worst_residual,
              iterative.options().fail_tol);
}

TEST(IterativeSolver, MatchesDirectOnSplitPlanes) {
    const PlaneBem bem = make_bem(split_plane_mesh());
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const DirectSolver direct(bem, zs);
    const IterativeSolver iterative(bem, zs, iterative_options());

    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.004}, 0),
        bem.mesh().nearest_node({0.016, 0.004}, 1),
        bem.mesh().nearest_node({0.009, 0.004}, 2)};
    const VectorD freqs{3e8};
    const auto zd = direct.sweep_impedance(freqs, ports);
    const auto zi = iterative.sweep_impedance(freqs, ports);
    EXPECT_LT(max_rel_diff(zi[0], zd[0]), 1e-8);
}

TEST(IterativeSolver, DiagonalPreconditionerAlsoConverges) {
    const PlaneBem bem = make_bem(holey_mesh());
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const DirectSolver direct(bem, zs);
    SolverOptions opt = iterative_options(PreconditionerKind::Diagonal);
    opt.gmres.max_iterations = 20000;
    const IterativeSolver iterative(bem, zs, opt);

    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0)};
    const MatrixC zd = direct.port_impedance(1e9, ports);
    const MatrixC zi = iterative.port_impedance(1e9, ports);
    EXPECT_LT(max_rel_diff(zi, zd), 1e-8);
}

TEST(IterativeSolver, DenseFallbackOnNonUniformMesh) {
    const PlaneBem bem = make_bem(nonuniform_mesh());
    EXPECT_FALSE(bem.uniform_lattice());
    EXPECT_FALSE(bem.potential_operator().matrix_free());
    EXPECT_FALSE(bem.inductance_operator().matrix_free());

    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const DirectSolver direct(bem, zs);
    const IterativeSolver iterative(bem, zs, iterative_options());
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.004}, 0),
        bem.mesh().nearest_node({0.018, 0.004}, 1)};
    const MatrixC zd = direct.port_impedance(5e8, ports);
    const MatrixC zi = iterative.port_impedance(5e8, ports);
    EXPECT_LT(max_rel_diff(zi, zd), 1e-8);
}

TEST(IterativeSolver, UniformMeshUsesMatrixFreeOperators) {
    const PlaneBem bem = make_bem(holey_mesh());
    EXPECT_TRUE(bem.uniform_lattice());
    EXPECT_TRUE(bem.potential_operator().matrix_free());
    EXPECT_TRUE(bem.inductance_operator().matrix_free());
}

TEST(IterativeSolver, ResultsInvariantAcrossThreadCounts) {
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const VectorD freqs{1e8, 1e9};

    pgsi::test::ScopedThreadCount pin(1);
    std::vector<MatrixC> base;
    {
        const PlaneBem bem = make_bem(holey_mesh());
        const std::vector<std::size_t> ports{
            bem.mesh().nearest_node({0.002, 0.002}, 0),
            bem.mesh().nearest_node({0.018, 0.014}, 0)};
        base = IterativeSolver(bem, zs, iterative_options())
                   .sweep_impedance(freqs, ports);
    }
    for (const unsigned threads : {2u, 8u}) {
        pin.repin(threads);
        const PlaneBem bem = make_bem(holey_mesh());
        const std::vector<std::size_t> ports{
            bem.mesh().nearest_node({0.002, 0.002}, 0),
            bem.mesh().nearest_node({0.018, 0.014}, 0)};
        const auto got = IterativeSolver(bem, zs, iterative_options())
                             .sweep_impedance(freqs, ports);
        for (std::size_t i = 0; i < freqs.size(); ++i)
            for (std::size_t r = 0; r < got[i].rows(); ++r)
                for (std::size_t c = 0; c < got[i].cols(); ++c)
                    EXPECT_EQ(got[i](r, c), base[i](r, c))
                        << "threads " << threads << " f " << freqs[i];
    }
}

TEST(MakeSolver, AutoSelectsBySizeAndLattice) {
    const SurfaceImpedance zs;
    {
        // Small uniform mesh: below the node threshold -> direct.
        const PlaneBem bem = make_bem(holey_mesh());
        SolverOptions opt;
        opt.auto_node_threshold = 100000;
        EXPECT_STREQ(make_solver(bem, zs, opt)->backend_name(), "direct");
    }
    {
        // Threshold of 1: any uniform mesh -> iterative.
        const PlaneBem bem = make_bem(holey_mesh());
        SolverOptions opt;
        opt.auto_node_threshold = 1;
        EXPECT_STREQ(make_solver(bem, zs, opt)->backend_name(), "iterative");
    }
    {
        // Non-uniform mesh below the H-matrix node threshold -> direct.
        const PlaneBem bem = make_bem(nonuniform_mesh());
        SolverOptions opt;
        opt.auto_node_threshold = 1;
        EXPECT_STREQ(make_solver(bem, zs, opt)->backend_name(), "direct");
    }
    {
        // Non-uniform mesh above the H-matrix node threshold -> iterative
        // (the compressed-operator path replaces the old dense fallback).
        const PlaneBem bem = make_bem(nonuniform_mesh());
        SolverOptions opt;
        opt.auto_node_threshold = 1;
        opt.hmatrix.node_threshold = 1;
        EXPECT_STREQ(make_solver(bem, zs, opt)->backend_name(), "iterative");
    }
    {
        // Opting out of compression restores the dense routing.
        const PlaneBem bem = make_bem(nonuniform_mesh());
        SolverOptions opt;
        opt.auto_node_threshold = 1;
        opt.hmatrix.node_threshold = 1;
        opt.hmatrix.use = HmatrixUse::Off;
        EXPECT_STREQ(make_solver(bem, zs, opt)->backend_name(), "direct");
    }
    {
        // Direct-only assembly disables the operator path.
        const PlaneBem bem = make_bem(holey_mesh(), AssemblyMode::Direct);
        SolverOptions opt;
        opt.auto_node_threshold = 1;
        EXPECT_STREQ(make_solver(bem, zs, opt)->backend_name(), "direct");
    }
    {
        // Explicit backend requests are honored regardless of size.
        const PlaneBem bem = make_bem(holey_mesh());
        SolverOptions opt;
        opt.backend = SolverBackend::Iterative;
        EXPECT_STREQ(make_solver(bem, zs, opt)->backend_name(), "iterative");
    }
}

TEST(IterativeSolver, StalledSolveThrowsInsteadOfReturningGarbage) {
    const PlaneBem bem = make_bem(holey_mesh());
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    SolverOptions opt = iterative_options();
    opt.gmres.max_iterations = 1;
    opt.gmres.restart = 1;
    opt.gmres.tol = 1e-14;
    opt.fail_tol = 1e-14;
    opt.recovery.policy = robust::RecoveryPolicy::Strict;
    const IterativeSolver iterative(bem, zs, opt);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0)};
    EXPECT_THROW(iterative.port_impedance(1e9, ports), NumericalError);
}

TEST(IterativeSolver, StalledSolveRecoversThroughDenseFallback) {
    const PlaneBem bem = make_bem(holey_mesh());
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    SolverOptions opt = iterative_options();
    opt.gmres.max_iterations = 1;
    opt.gmres.restart = 1;
    opt.gmres.tol = 1e-14;
    opt.fail_tol = 1e-14;
    const IterativeSolver iterative(bem, zs, opt);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0)};
    const MatrixC z = iterative.port_impedance(1e9, ports);
    EXPECT_GE(iterative.stats().dense_fallbacks, 1u);
    EXPECT_TRUE(iterative.recovery_report().any());

    const DirectSolver direct(bem, zs);
    const MatrixC zd = direct.port_impedance(1e9, ports);
    EXPECT_LT(max_rel_diff(z, zd), 1e-8);
}

// A dense fallback charges the stats only with the GMRES work that actually
// ran. Three ports solve as one block, so the injected stall fails that one
// block_gmres call and all three columns it attempted; no column completed,
// so none contributes a residual. A single port runs plain GMRES and counts
// one attempted solve.
TEST(IterativeSolver, DenseFallbackAttributesOnlyAttemptedSolves) {
    const PlaneBem bem = make_bem(holey_mesh());
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const DirectSolver direct(bem, zs);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0),
        bem.mesh().nearest_node({0.018, 0.014}, 0),
        bem.mesh().nearest_node({0.002, 0.014}, 0)};
    {
        const IterativeSolver iterative(bem, zs, iterative_options());
        robust::FaultInjector::arm("gmres.stall", 1);
        const MatrixC z = iterative.port_impedance(1e9, ports);
        robust::FaultInjector::disarm_all();

        const IterativeSolverStats& st = iterative.stats();
        EXPECT_EQ(st.solves, 3u);
        EXPECT_EQ(st.block_solves, 1u);
        EXPECT_EQ(st.dense_fallbacks, 1u);
        // The ladder had no Diagonal rung to escalate from, so the dense
        // fallback ran immediately.
        EXPECT_EQ(st.precond_escalations, 0u);
        EXPECT_EQ(st.worst_residual, 0.0);
        EXPECT_LT(max_rel_diff(z, direct.port_impedance(1e9, ports)), 1e-8);
    }
    {
        const std::vector<std::size_t> one{ports[0]};
        const IterativeSolver iterative(bem, zs, iterative_options());
        robust::FaultInjector::arm("gmres.stall", 1);
        const MatrixC z = iterative.port_impedance(1e9, one);
        robust::FaultInjector::disarm_all();

        const IterativeSolverStats& st = iterative.stats();
        EXPECT_EQ(st.solves, 1u);
        EXPECT_EQ(st.block_solves, 0u);
        EXPECT_EQ(st.dense_fallbacks, 1u);
        EXPECT_EQ(st.precond_escalations, 0u);
        EXPECT_LT(max_rel_diff(z, direct.port_impedance(1e9, one)), 1e-8);
    }
}

// A stall-driven Diagonal -> NearFieldBlock escalation is sticky: later
// frequencies of the same solver start on the stronger preconditioner
// instead of re-stalling, and the recovery report records the promotion
// exactly once for the solver's lifetime.
TEST(IterativeSolver, PrecondEscalationIsStickyAcrossSweep) {
    const PlaneBem bem = make_bem(holey_mesh());
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    SolverOptions opt = iterative_options(PreconditionerKind::Diagonal);
    // A budget Diagonal cannot meet on this mesh (~600 iterations for the
    // two-column block) but NearFieldBlock (~160) meets easily.
    opt.gmres.max_iterations = 150;
    const IterativeSolver iterative(bem, zs, opt);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0),
        bem.mesh().nearest_node({0.018, 0.014}, 0)};
    const VectorD freqs{8e8, 9e8, 1e9};
    const auto zi = iterative.sweep_impedance(freqs, ports);

    const IterativeSolverStats& st = iterative.stats();
    EXPECT_EQ(st.precond_escalations, 1u); // only the first point stalls
    EXPECT_EQ(st.dense_fallbacks, 0u);
    EXPECT_EQ(iterative.recovery_report().count("em.precond_escalation"), 1u);

    const DirectSolver direct(bem, zs);
    const auto zd = direct.sweep_impedance(freqs, ports);
    for (std::size_t i = 0; i < freqs.size(); ++i)
        EXPECT_LT(max_rel_diff(zi[i], zd[i]), 1e-8) << "f = " << freqs[i];
}

TEST(IterativeSolver, RejectsInvalidPorts) {
    const PlaneBem bem = make_bem(holey_mesh());
    const IterativeSolver solver(bem, SurfaceImpedance{}, iterative_options());
    EXPECT_THROW(solver.port_impedance(1e9, {}), InvalidArgument);
    EXPECT_THROW(solver.port_impedance(1e9, {bem.node_count()}),
                 InvalidArgument);
    EXPECT_THROW(solver.port_impedance(-1.0, {0}), InvalidArgument);
}

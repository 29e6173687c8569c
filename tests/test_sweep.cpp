// Sweep engine of the iterative backend (warm starts, recycling).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "em/iterative_solver.hpp"
#include "tests/test_util.hpp"

using namespace pgsi;

namespace {

RectMesh plain_mesh() {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, 0.020, 0.016);
    s.z = 0.4e-3;
    s.sheet_resistance = 1e-3;
    return RectMesh({s}, 0.001);
}

PlaneBem make_bem(RectMesh mesh) {
    return PlaneBem(std::move(mesh), Greens::homogeneous(4.2, true), {});
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

SolverOptions iterative_options() {
    SolverOptions opt;
    opt.backend = SolverBackend::Iterative;
    return opt;
}

VectorD linspace(double lo, double hi, std::size_t n) {
    VectorD f(n);
    for (std::size_t i = 0; i < n; ++i)
        f[i] = lo + (hi - lo) * static_cast<double>(i) /
                        static_cast<double>(n - 1);
    return f;
}

} // namespace

TEST(SweepEngine, MatchesLegacyColdSweepAndSavesWork) {
    const PlaneBem bem = make_bem(plain_mesh());
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0),
        bem.mesh().nearest_node({0.018, 0.014}, 0)};
    const VectorD freqs = linspace(4e8, 6e8, 8);

    const IterativeSolver engine(bem, zs, iterative_options());
    const auto ze = engine.sweep_impedance(freqs, ports);

    // Cold baseline: every point an independent port_impedance solve on a
    // second solver, with no cross-frequency reuse.
    const IterativeSolver cold(bem, zs, iterative_options());
    const DirectSolver direct(bem, zs);
    for (std::size_t i = 0; i < freqs.size(); ++i) {
        const MatrixC zd = direct.port_impedance(freqs[i], ports);
        EXPECT_LT(max_rel_diff(ze[i], zd), 1e-8) << "f = " << freqs[i];
        EXPECT_LT(max_rel_diff(cold.port_impedance(freqs[i], ports), zd),
                  1e-8)
            << "f = " << freqs[i];
    }

    const IterativeSolverStats& st = engine.stats();
    EXPECT_EQ(st.sweep_points, freqs.size());
    EXPECT_EQ(cold.stats().sweep_points, 0u);
    // Every point after the first seeds from prior work, and the recycled
    // subspace starts paying off once it holds the first point's columns.
    EXPECT_GE(st.warm_starts, freqs.size() - 1);
    EXPECT_GE(st.recycle_hits, 1u);
    EXPECT_GT(st.saved_iterations, 0u);
    // The headline claim: cross-frequency reuse beats cold per-point solves.
    EXPECT_LT(st.matvecs, cold.stats().matvecs);
    EXPECT_GT(st.block_solves, 0u);
}

// A one-point sweep has nothing to reuse: it is exactly port_impedance.
TEST(SweepEngine, OnePointSweepIsPortImpedance) {
    const PlaneBem bem = make_bem(plain_mesh());
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0),
        bem.mesh().nearest_node({0.018, 0.014}, 0)};
    const IterativeSolver swept(bem, zs, iterative_options());
    const auto zs1 = swept.sweep_impedance({5e8}, ports);
    ASSERT_EQ(zs1.size(), 1u);
    const MatrixC zp =
        IterativeSolver(bem, zs, iterative_options()).port_impedance(5e8, ports);
    ASSERT_EQ(zs1[0].rows(), zp.rows());
    ASSERT_EQ(zs1[0].cols(), zp.cols());
    for (std::size_t r = 0; r < zp.rows(); ++r)
        for (std::size_t c = 0; c < zp.cols(); ++c)
            EXPECT_EQ(zs1[0](r, c), zp(r, c));
    EXPECT_EQ(swept.stats().sweep_points, 0u);
}

TEST(SweepEngine, WarmStartedSweepBitwiseInvariantAcrossThreadCounts) {
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const VectorD freqs = linspace(3e8, 9e8, 5);

    pgsi::test::ScopedThreadCount pin(1);
    std::vector<MatrixC> base;
    {
        const PlaneBem bem = make_bem(plain_mesh());
        const std::vector<std::size_t> ports{
            bem.mesh().nearest_node({0.002, 0.002}, 0),
            bem.mesh().nearest_node({0.018, 0.014}, 0)};
        const IterativeSolver solver(bem, zs, iterative_options());
        base = solver.sweep_impedance(freqs, ports);
        EXPECT_EQ(solver.stats().sweep_points, freqs.size());
    }
    for (const unsigned threads : {2u, 8u}) {
        pin.repin(threads);
        const PlaneBem bem = make_bem(plain_mesh());
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

TEST(SweepEngine, RejectsNonPositiveFrequencyBeforeAnySolve) {
    const PlaneBem bem = make_bem(plain_mesh());
    const IterativeSolver solver(
        bem, SurfaceImpedance::from_sheet_resistance(1e-3), iterative_options());
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0)};
    // The bisection order visits indices 0, 3 and 1 before the bad point 2;
    // the whole grid is checked before any of them is solved.
    EXPECT_THROW(solver.sweep_impedance({1e8, 2e8, 0.0, 4e8}, ports),
                 InvalidArgument);
    EXPECT_EQ(solver.stats().frequencies, 0u);
}

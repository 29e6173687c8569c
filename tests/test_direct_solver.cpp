// Tests for the direct MPIE frequency sweep — the in-house reference the
// extracted circuit is validated against.
#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.hpp"
#include "em/solver.hpp"
#include "extract/equivalent_circuit.hpp"
#include "numeric/lu.hpp"
#include "obs/trace.hpp"
#include "tests/test_util.hpp"

using namespace pgsi;

namespace {

PlaneBem small_plane() {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, 0.04, 0.03);
    s.z = 0.5e-3;
    s.sheet_resistance = 6e-3;
    return PlaneBem(RectMesh({s}, 0.005), Greens::homogeneous(4.5, true),
                    BemOptions{});
}

// Two stacked planes (power over ground) of one outline.
PlaneBem two_layer_plane() {
    ConductorShape top;
    top.outline = Polygon::rectangle(0, 0, 0.02, 0.015);
    top.z = 0.8e-3;
    top.sheet_resistance = 6e-3;
    ConductorShape bottom = top;
    bottom.z = 0.3e-3;
    return PlaneBem(RectMesh({top, bottom}, 0.0025),
                    Greens::homogeneous(4.5, true), BemOptions{});
}

// Two islands of one split power layer: two connected components.
PlaneBem split_plane() {
    ConductorShape left;
    left.outline = Polygon::rectangle(0, 0, 0.015, 0.02);
    left.z = 0.5e-3;
    left.sheet_resistance = 6e-3;
    ConductorShape right = left;
    right.outline = Polygon::rectangle(0.0175, 0, 0.0325, 0.02);
    return PlaneBem(RectMesh({left, right}, 0.0025),
                    Greens::homogeneous(4.5, true), BemOptions{});
}

} // namespace

TEST(DirectSolver, LowFrequencyIsCapacitive) {
    const PlaneBem bem = small_plane();
    const DirectSolver solver(bem, SurfaceImpedance::from_sheet_resistance(6e-3));
    const std::size_t port = bem.mesh().nearest_node({0.02, 0.015}, 0);
    const double f = 1e6;
    const MatrixC z = solver.port_impedance(f, {port});
    // At 1 MHz the plane is a capacitor: phase ≈ −90°, |Z| ≈ 1/(ωC_total).
    EXPECT_LT(z(0, 0).imag(), 0.0);
    EXPECT_GT(std::abs(z(0, 0).imag()), 50.0 * std::abs(z(0, 0).real()));
    const MatrixD& c = bem.maxwell_capacitance();
    double ctot = 0;
    for (std::size_t i = 0; i < c.rows(); ++i)
        for (std::size_t j = 0; j < c.cols(); ++j) ctot += c(i, j);
    EXPECT_NEAR(std::abs(z(0, 0)), 1.0 / (2 * pi * f * ctot),
                0.1 / (2 * pi * f * ctot));
}

TEST(DirectSolver, AgreesWithExtractedCircuitBelowResonance) {
    const PlaneBem bem = small_plane();
    const DirectSolver solver(bem, SurfaceImpedance::from_sheet_resistance(6e-3));
    // Frequency-domain comparison: keep the exact element-wise map.
    const EquivalentCircuit ec =
        CircuitExtractor(bem, ExtractionOptions{0.0, true, false}).extract_full();
    const std::size_t port = bem.mesh().nearest_node({0.01, 0.01}, 0);
    for (double f : {10e6, 100e6, 400e6}) {
        const Complex zd = solver.port_impedance(f, {port})(0, 0);
        const Complex ze = ec.impedance(f, {port})(0, 0);
        EXPECT_NEAR(std::abs(ze), std::abs(zd), 0.08 * std::abs(zd)) << f;
    }
}

TEST(DirectSolver, ReciprocalPortMatrix) {
    const PlaneBem bem = small_plane();
    const DirectSolver solver(bem, SurfaceImpedance{});
    const std::size_t p1 = bem.mesh().nearest_node({0.005, 0.005}, 0);
    const std::size_t p2 = bem.mesh().nearest_node({0.035, 0.025}, 0);
    const MatrixC z = solver.port_impedance(200e6, {p1, p2});
    EXPECT_NEAR(std::abs(z(0, 1) - z(1, 0)), 0.0, 1e-6 * std::abs(z(0, 1)));
}

TEST(DirectSolver, LossAddsRealPart) {
    const PlaneBem bem = small_plane();
    const std::size_t port = bem.mesh().nearest_node({0.02, 0.015}, 0);
    const DirectSolver lossless(bem, SurfaceImpedance{});
    const DirectSolver lossy(bem, SurfaceImpedance::from_sheet_resistance(0.1));
    const double f = 100e6;
    const double r0 = lossless.port_impedance(f, {port})(0, 0).real();
    const double r1 = lossy.port_impedance(f, {port})(0, 0).real();
    EXPECT_GT(r1, r0 + 1e-3);
}

TEST(DirectSolver, PortImpedanceSolvesOnlyPortColumns) {
    // One branch-system factorization and |ports| triangular solves per
    // frequency; nothing scales with N.
    const PlaneBem bem = small_plane();
    const DirectSolver solver(bem, SurfaceImpedance{});
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.005, 0.005}, 0),
        bem.mesh().nearest_node({0.035, 0.025}, 0)};
    solver.port_impedance(100e6, ports);
    EXPECT_EQ(solver.stats().frequencies, 1u);
    EXPECT_EQ(solver.stats().factorizations, 1u);
    EXPECT_EQ(solver.stats().solves, ports.size());
    solver.sweep_impedance({1e8, 2e8, 3e8}, ports);
    EXPECT_EQ(solver.stats().frequencies, 4u);
    EXPECT_EQ(solver.stats().factorizations, 4u);
    EXPECT_EQ(solver.stats().solves, 4 * ports.size());
}

TEST(DirectSolver, SweepNeverInvertsThePotentialMatrix) {
    // The branch form reads Ppot itself: a sweep must not fill the Maxwell
    // capacitance C = Ppot⁻¹.
    const PlaneBem bem = small_plane();
    const DirectSolver solver(bem, SurfaceImpedance::from_sheet_resistance(6e-3));
    const std::size_t port = bem.mesh().nearest_node({0.02, 0.015}, 0);
    obs::set_trace_enabled(true);
    obs::reset_trace();
    solver.sweep_impedance({1e8, 1e9}, {port});
    const double invert_s =
        obs::leaf_seconds(obs::span_totals(), "bem.invert.potential");
    const double solve_s =
        obs::leaf_seconds(obs::span_totals(), "em.solve.port_impedance");
    obs::set_trace_enabled(false);
    obs::reset_trace();
    EXPECT_EQ(invert_s, 0.0);
    EXPECT_GT(solve_s, 0.0);
}

TEST(DirectSolver, PortImpedanceMatchesFullInverseSubmatrix) {
    // The branch-space solve must reproduce the port block of the nodal
    // admittance inverse, Y(ω)⁻¹, on one-layer, two-layer and split-plane
    // meshes, lossless and lossy, across the band.
    struct Case {
        const char* name;
        PlaneBem bem;
        std::vector<Point2> ports;
        std::vector<std::size_t> shapes;
    };
    std::vector<Case> cases;
    cases.push_back({"one layer", small_plane(),
                     {{0.005, 0.005}, {0.02, 0.015}, {0.035, 0.025}}, {0, 0, 0}});
    cases.push_back({"two layer", two_layer_plane(),
                     {{0.004, 0.004}, {0.016, 0.011}}, {0, 1}});
    cases.push_back({"split plane", split_plane(),
                     {{0.004, 0.004}, {0.028, 0.016}}, {0, 1}});
    for (const Case& c : cases) {
        std::vector<std::size_t> ports;
        for (std::size_t k = 0; k < c.ports.size(); ++k)
            ports.push_back(c.bem.mesh().nearest_node(c.ports[k], c.shapes[k]));
        for (const double rs : {0.0, 6e-3}) {
            const DirectSolver solver(
                c.bem, rs > 0 ? SurfaceImpedance::from_sheet_resistance(rs)
                              : SurfaceImpedance{});
            for (const double f : {1e8, 3e8, 1e9, 1e10}) {
                const MatrixC ref = Lu<Complex>(solver.nodal_admittance(f))
                                        .inverse()
                                        .submatrix(ports, ports);
                const MatrixC z = solver.port_impedance(f, ports);
                ASSERT_EQ(z.rows(), ports.size());
                for (std::size_t i = 0; i < ports.size(); ++i)
                    for (std::size_t j = 0; j < ports.size(); ++j)
                        EXPECT_LT(std::abs(z(i, j) - ref(i, j)),
                                  1e-10 * std::abs(ref(i, j)))
                            << c.name << ", Rs = " << rs << ", f = " << f
                            << ", entry " << i << "," << j;
            }
        }
    }
}

TEST(DirectSolver, LowFrequencyLossyPlaneStaysPassive) {
    // Far below the first resonance the plane is its total capacitance in
    // series with a small spreading resistance: Re Z must stay positive and
    // ω·Im Z = −1/C_total must not drift with frequency.
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, 0.04, 0.03);
    s.z = 0.5e-3;
    s.sheet_resistance = 6e-3;
    const PlaneBem bem(RectMesh({s}, 0.04 / 12), Greens::homogeneous(4.5, true),
                       BemOptions{});
    const DirectSolver solver(bem, SurfaceImpedance::from_sheet_resistance(6e-3));
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.005, 0.005}, 0),
        bem.mesh().nearest_node({0.035, 0.025}, 0)};
    const double f0 = 1e3;
    const double wx0 = 2 * pi * f0 * solver.port_impedance(f0, ports)(0, 0).imag();
    for (const double f : {1e3, 3e3, 1e4, 3e4, 1e5}) {
        const Complex z00 = solver.port_impedance(f, ports)(0, 0);
        EXPECT_GE(z00.real(), 0.0) << "f = " << f;
        EXPECT_NEAR(2 * pi * f * z00.imag(), wx0, 1e-6 * std::abs(wx0))
            << "f = " << f;
    }
}

TEST(DirectSolver, SweepBitIdenticalAcrossThreadCounts) {
    const PlaneBem bem = small_plane();
    const DirectSolver solver(bem, SurfaceImpedance::from_sheet_resistance(6e-3));
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.005, 0.005}, 0),
        bem.mesh().nearest_node({0.035, 0.025}, 0)};
    const VectorD freqs{1e7, 1e8, 3e8, 1e9, 2e9, 5e9};
    pgsi::test::ScopedThreadCount pin(1);
    const std::vector<MatrixC> z1 = solver.sweep_impedance(freqs, ports);
    for (const std::size_t threads : {2u, 8u}) {
        pin.repin(threads);
        const std::vector<MatrixC> zn = solver.sweep_impedance(freqs, ports);
        ASSERT_EQ(zn.size(), z1.size());
        for (std::size_t i = 0; i < z1.size(); ++i)
            for (std::size_t r = 0; r < ports.size(); ++r)
                for (std::size_t k = 0; k < ports.size(); ++k)
                    EXPECT_EQ(zn[i](r, k), z1[i](r, k))
                        << "threads=" << threads << " f=" << freqs[i];
    }
}

TEST(DirectSolver, SweepShapes) {
    const PlaneBem bem = small_plane();
    const DirectSolver solver(bem, SurfaceImpedance{});
    const std::size_t port = bem.mesh().nearest_node({0.02, 0.015}, 0);
    const auto sweep = solver.sweep_impedance({1e8, 2e8, 3e8}, {port});
    EXPECT_EQ(sweep.size(), 3u);
    EXPECT_EQ(sweep[0].rows(), 1u);
    EXPECT_THROW(solver.port_impedance(-1.0, {port}), InvalidArgument);
}

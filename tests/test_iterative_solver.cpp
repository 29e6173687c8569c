// Matrix-free FFT/GMRES solver path against the dense direct solver.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/robust.hpp"
#include "em/iterative_solver.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
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

// Shapes of incommensurate widths: no common lattice, so the PlaneBem's
// operators are ACA/H-matrices.
RectMesh nonuniform_mesh() {
    ConductorShape a;
    a.outline = Polygon::rectangle(0, 0, 0.010, 0.008);
    a.z = 0.4e-3;
    a.sheet_resistance = 1e-3;
    ConductorShape b = a;
    b.outline = Polygon::rectangle(0.015, 0, 0.015 + 0.0073, 0.0073);
    return RectMesh({a, b}, 0.001);
}

PlaneBem make_bem(RectMesh mesh, AssemblyMode mode = AssemblyMode::Auto,
                  HmatrixOptions hopt = {}) {
    BemOptions opt;
    opt.assembly = mode;
    opt.hmatrix = hopt;
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

SolverOptions iterative_options() {
    SolverOptions opt;
    opt.backend = SolverBackend::Iterative;
    return opt;
}

// Frequency grid of the recorded-reference and concurrency cases.
const VectorD kRefFreqs{1e8, 2e8, 4e8, 7e8, 1e9};

// The Toeplitz plane (holey_mesh) or, with `hmatrix`, the non-uniform
// two-shape mesh with its ACA-compressed operators (a leaf size small enough
// that the tree has well-separated blocks).
PlaneBem operator_path_bem(bool hmatrix) {
    if (!hmatrix) return make_bem(holey_mesh());
    HmatrixOptions hopt;
    hopt.leaf_size = 16;
    return make_bem(nonuniform_mesh(), AssemblyMode::Auto, hopt);
}

std::vector<std::size_t> operator_path_ports(const PlaneBem& bem,
                                             std::size_t count) {
    std::vector<std::size_t> ports{bem.mesh().nearest_node({0.002, 0.002}, 0)};
    if (count > 1) ports.push_back(bem.mesh().nearest_node({0.020, 0.006}, 0));
    return ports;
}

// Recorded-reference cases: 0/1 are 1- and 2-port sweeps on the Toeplitz
// plane, 2/3 the same on the forced H-matrix plane.
constexpr std::size_t kRefCases = 4;

std::vector<MatrixC> reference_case(std::size_t c) {
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const bool hmatrix = c == 2 || c == 3;
    const PlaneBem bem = operator_path_bem(hmatrix);
    const IterativeSolver solver(bem, zs, iterative_options());
    return solver.sweep_impedance(kRefFreqs,
                                  operator_path_ports(bem, c % 2 == 0 ? 1 : 2));
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
    EXPECT_LE(iterative.stats().worst_residual, 1e-8);
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

// Even a small non-uniform mesh gets compressed operators: the iterative
// solve never fills a dense P or L.
TEST(IterativeSolver, CompressedOperatorsOnNonUniformMesh) {
    const PlaneBem bem = make_bem(nonuniform_mesh());
    EXPECT_FALSE(bem.uniform_lattice());

    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const IterativeSolver iterative(bem, zs, iterative_options());
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.004}, 0),
        bem.mesh().nearest_node({0.018, 0.004}, 1)};
    obs::Counter& fills = obs::counter("bem.assembly.direct_fills");
    const std::uint64_t fills0 = fills.value();
    const MatrixC zi = iterative.port_impedance(5e8, ports);
    EXPECT_EQ(fills.value(), fills0);
    EXPECT_TRUE(bem.potential_operator().compressed());
    EXPECT_TRUE(bem.inductance_operator().compressed());
    EXPECT_TRUE(iterative.stats().hmatrix);

    const DirectSolver direct(bem, zs);
    EXPECT_LT(max_rel_diff(zi, direct.port_impedance(5e8, ports)), 1e-8);
}

TEST(IterativeSolver, UniformMeshUsesMatrixFreeOperators) {
    const PlaneBem bem = make_bem(holey_mesh());
    EXPECT_TRUE(bem.uniform_lattice());
    EXPECT_FALSE(bem.potential_operator().compressed());
    EXPECT_FALSE(bem.inductance_operator().compressed());
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
    // The threshold is 400 mesh nodes on either operator family; PlaneBem
    // and make_solver are lazy, so these meshes are never filled.
    const SurfaceImpedance zs;
    const auto backend = [&](RectMesh mesh, AssemblyMode mode) {
        const PlaneBem bem = make_bem(std::move(mesh), mode);
        return std::string(make_solver(bem, zs, {})->backend_name());
    };
    // Uniform lattice: 399 nodes -> direct, 400 -> iterative.
    EXPECT_EQ(backend(test::plate_mesh(19, 21), AssemblyMode::Auto), "direct");
    EXPECT_EQ(backend(test::plate_mesh(20, 20), AssemblyMode::Auto),
              "iterative");
    // The same threshold routes a non-uniform mesh to the compressed
    // operators.
    EXPECT_EQ(backend(test::plate_pair_mesh(13, 23), AssemblyMode::Auto),
              "direct");
    EXPECT_EQ(backend(test::plate_pair_mesh(15, 20), AssemblyMode::Auto),
              "iterative");
    // Direct-only assembly disables the operator path at any size.
    EXPECT_EQ(backend(test::plate_mesh(20, 20), AssemblyMode::Direct),
              "direct");
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
    const IterativeSolver iterative(bem, zs, opt);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0)};
    const MatrixC z = iterative.port_impedance(1e9, ports);
    EXPECT_EQ(iterative.stats().dense_fallbacks, 1u);
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
        // A stall has one recovery rung: the dense fallback runs at once.
        EXPECT_EQ(st.dense_fallbacks, 1u);
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
        EXPECT_EQ(st.block_solves, 1u); // one port is a block of one column
        EXPECT_EQ(st.dense_fallbacks, 1u);
        EXPECT_LT(max_rel_diff(z, direct.port_impedance(1e9, one)), 1e-8);
    }
}

// A stall in the middle of a sweep costs that one frequency a dense solve;
// the points around it stay on GMRES and the sweep engine carries on. The
// fault fires at the 3rd block GMRES call, the 3rd point in bisection order.
TEST(IterativeSolver, MidSweepStallFallsBackForThatPointOnly) {
    const PlaneBem bem = make_bem(holey_mesh());
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0),
        bem.mesh().nearest_node({0.018, 0.014}, 0)};
    const IterativeSolver iterative(bem, zs, iterative_options());
    robust::FaultInjector::arm("gmres.stall", 3);
    const auto zi = iterative.sweep_impedance(kRefFreqs, ports);
    robust::FaultInjector::disarm_all();

    const IterativeSolverStats& st = iterative.stats();
    EXPECT_EQ(st.frequencies, kRefFreqs.size());
    EXPECT_EQ(st.sweep_points, kRefFreqs.size());
    EXPECT_EQ(st.block_solves, kRefFreqs.size());
    EXPECT_EQ(st.dense_fallbacks, 1u);
    EXPECT_EQ(iterative.recovery_report().count("em.dense_fallback"), 1u);

    const auto zd = DirectSolver(bem, zs).sweep_impedance(kRefFreqs, ports);
    for (std::size_t i = 0; i < kRefFreqs.size(); ++i)
        EXPECT_LT(max_rel_diff(zi[i], zd[i]), 1e-8) << "f = " << kRefFreqs[i];

    SolverOptions strict = iterative_options();
    strict.recovery.policy = robust::RecoveryPolicy::Strict;
    const IterativeSolver strict_solver(bem, zs, strict);
    robust::FaultInjector::arm("gmres.stall", 3);
    EXPECT_THROW(strict_solver.sweep_impedance(kRefFreqs, ports),
                 NumericalError);
    robust::FaultInjector::disarm_all();
}

TEST(IterativeSolver, RejectsInvalidPorts) {
    const PlaneBem bem = make_bem(holey_mesh());
    const IterativeSolver solver(bem, SurfaceImpedance{}, iterative_options());
    EXPECT_THROW(solver.port_impedance(1e9, {}), InvalidArgument);
    EXPECT_THROW(solver.port_impedance(1e9, {bem.node_count()}),
                 InvalidArgument);
    EXPECT_THROW(solver.port_impedance(-1.0, {0}), InvalidArgument);
}

// Z values of the reference cases, recorded with %.17g: per case, (re, im)
// pairs over frequency, row and column. Any change to the Krylov solver or
// the preconditioner assembly that is meant to keep the arithmetic must
// reproduce them to round-off.
const std::vector<std::vector<double>> kRefZ{
    {0.0012223392559624709, -48.519046018150583,
     0.0012251124092848504, -23.847556129038139,
     0.0012363731181073349, -11.09443544967916,
     0.0012688270893821687, -5.0100549699816792,
     0.0013237413007176615, -2.0115691998195389},
    {0.0012223392559624709, -48.519046018150583,
     -0.00022640267018044679, -48.853798299698113,
     -0.00022640235952378052, -48.853798300745289,
     0.0010445311355238656, -48.566919462710182,
     0.0012251132226302466, -23.847556129222056,
     -0.00022770259649684794, -24.518118864938078,
     -0.00022770240229463988, -24.518118865610148,
     0.0010463883259548606, -23.943520223607255,
     0.0012363733098250771, -11.094435448744875,
     -0.00023300647103428928, -12.444124823153226,
     -0.00023300681834479407, -12.444124822314251,
     0.0010539410047802663, -11.288115916713739,
     0.0012688269178126998, -5.0100549706510069,
     -0.00024853248163242316, -7.4146834204218059,
     -0.00024853265645544831, -7.4146834205482461,
     0.0010758092079196408, -5.3576409224948334,
     0.0013237413006878876, -2.0115691998192169,
     -0.00027557724130254998, -5.5474856760917639,
     -0.00027557732524495249, -5.5474856761673772,
     0.0011131465645785768, -2.5281333601734977},
    {0.00072403171968702599, -176.20236688652065,
     0.00072444861631805555, -87.882827117349578,
     0.00072612129161387772, -43.50392676180865,
     0.00073077354559838634, -24.168227885217316,
     0.00073811785744422721, -16.162497186114685},
    {0.00072403171968702599, -176.20236688652065,
     -0.0002151229467515969, -176.4045318987821,
     -0.00021512306913870573, -176.40453189785975,
     0.00082023434615017155, -176.18363923575356,
     0.00072444853945235566, -87.882827117348171,
     -0.00021542661590997472, -88.287338419083127,
     -0.00021542634169516357, -88.287338419082232,
     0.00082067101962107075, -87.84536659712613,
     0.00072612130621494114, -43.503926761808728,
     -0.00021664547092838834, -44.314404375360176,
     -0.0002166455170151761, -44.31440437563672,
     0.00082241680316711406, -43.428963538673678,
     0.00073077353912576865, -24.168227885257245,
     -0.00022004617731174919, -25.593625577708945,
     -0.00022004623684140958, -25.593625577615221,
     0.0008272780409647472, -24.036836101931588,
     0.00073811785763265288, -16.16249718611688,
     -0.0002254447096989414, -18.214620324532333,
     -0.00022544471001991005, -18.214620324500437,
     0.00083495934823819297, -15.974326482535783}};

TEST(IterativeSolver, ReproducesRecordedZReferences) {
    ASSERT_EQ(kRefZ.size(), kRefCases);
    for (std::size_t c = 0; c < kRefCases; ++c) {
        const std::vector<MatrixC> z = reference_case(c);
        std::size_t at = 0;
        for (const MatrixC& m : z)
            for (std::size_t r = 0; r < m.rows(); ++r)
                for (std::size_t k = 0; k < m.cols(); ++k, at += 2) {
                    ASSERT_LT(at + 1, kRefZ[c].size()) << "case " << c;
                    const Complex ref(kRefZ[c][at], kRefZ[c][at + 1]);
                    EXPECT_LE(std::abs(m(r, k) - ref), 1e-14 * std::abs(ref))
                        << "case " << c << " entry " << at / 2;
                }
        EXPECT_EQ(at, kRefZ[c].size()) << "case " << c;
    }
}

// port_impedance is const and public, so callers (bench_scaling among them)
// solve several frequencies on one solver concurrently; the first calls race
// into the once-only setup. Every result must equal a serial call on a fresh
// solver bit for bit, on both operator paths and for one and two ports.
TEST(IterativeSolver, ConcurrentPortImpedanceMatchesSerialBitForBit) {
    pgsi::test::ScopedThreadCount pin(4);
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    for (const bool hmatrix : {false, true}) {
        const PlaneBem bem = operator_path_bem(hmatrix);
        const SolverOptions opt = iterative_options();
        for (const std::size_t np : {1u, 2u}) {
            const std::vector<std::size_t> ports = operator_path_ports(bem, np);
            const IterativeSolver shared(bem, zs, opt);
            std::vector<MatrixC> got(kRefFreqs.size());
            par::parallel_for(kRefFreqs.size(), [&](std::size_t i) {
                got[i] = shared.port_impedance(kRefFreqs[i], ports);
            });
            EXPECT_EQ(shared.stats().frequencies, kRefFreqs.size());
            EXPECT_EQ(shared.stats().hmatrix, hmatrix);

            const IterativeSolver fresh(bem, zs, opt);
            for (std::size_t i = 0; i < kRefFreqs.size(); ++i) {
                const MatrixC want = fresh.port_impedance(kRefFreqs[i], ports);
                ASSERT_EQ(got[i].rows(), np);
                for (std::size_t r = 0; r < np; ++r)
                    for (std::size_t k = 0; k < np; ++k)
                        EXPECT_EQ(got[i](r, k), want(r, k))
                            << (hmatrix ? "H-matrix" : "Toeplitz") << ", "
                            << np << " ports, f = " << kRefFreqs[i];
            }
        }
    }
}

// The sweep's library spans: block GMRES, the A(ω) applies and the
// preconditioner solves inside it, and the tile factorizations, all under
// em.solve.sweep. Recording them must not move a bit of Z.
TEST(IterativeSolver, SweepSpansNestAndLeaveZUnchanged) {
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    for (const bool hmatrix : {false, true}) {
        const PlaneBem bem = operator_path_bem(hmatrix);
        const std::vector<std::size_t> ports = operator_path_ports(bem, 2);
        const SolverOptions opt = iterative_options();
        obs::set_trace_enabled(false);
        const std::vector<MatrixC> plain =
            IterativeSolver(bem, zs, opt).sweep_impedance(kRefFreqs, ports);

        obs::set_trace_enabled(true);
        obs::reset_trace();
        const std::vector<MatrixC> traced =
            IterativeSolver(bem, zs, opt).sweep_impedance(kRefFreqs, ports);
        const std::vector<obs::SpanTotal> totals = obs::span_totals();
        obs::set_trace_enabled(false);
        obs::reset_trace();

        const auto count = [&](const std::string& suffix) {
            std::size_t n = 0;
            for (const obs::SpanTotal& t : totals)
                if (t.path.size() >= suffix.size() &&
                    t.path.compare(t.path.size() - suffix.size(),
                                   suffix.size(), suffix) == 0)
                    n += t.count;
            return n;
        };
        EXPECT_EQ(count("em.solve.sweep/em.gmres"), kRefFreqs.size());
        EXPECT_GT(count("em.solve.sweep/em.gmres/em.op_apply"), 0u);
        EXPECT_GT(count("em.solve.sweep/em.gmres/em.precond.apply"), 0u);
        EXPECT_EQ(count("em.solve.sweep/em.precond.factor"), kRefFreqs.size());
        // Every A(ω) apply and every preconditioner solve is a GMRES one.
        EXPECT_EQ(count("em.op_apply"),
                  count("em.solve.sweep/em.gmres/em.op_apply"));
        EXPECT_EQ(count("em.precond.apply"),
                  count("em.solve.sweep/em.gmres/em.precond.apply"));

        ASSERT_EQ(traced.size(), plain.size());
        for (std::size_t i = 0; i < plain.size(); ++i)
            for (std::size_t r = 0; r < 2; ++r)
                for (std::size_t k = 0; k < 2; ++k)
                    EXPECT_TRUE(pgsi::test::same_bits(traced[i](r, k),
                                                      plain[i](r, k)))
                        << (hmatrix ? "H-matrix" : "Toeplitz") << " f "
                        << kRefFreqs[i];
    }
}

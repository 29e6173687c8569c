// Cached (translation-invariant interaction table) vs direct BEM assembly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/parallel.hpp"
#include "em/bem_plane.hpp"
#include "em/iterative_solver.hpp"
#include "obs/trace.hpp"
#include "tests/test_util.hpp"

using namespace pgsi;

namespace {

// 20 x 16 mm plane with an off-center 4 x 3 mm antipad hole: uniform pitch,
// irregular occupancy — the case the displacement table must reproduce.
RectMesh holey_mesh() {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, 0.020, 0.016);
    s.holes.push_back(Polygon::rectangle(0.006, 0.005, 0.010, 0.008));
    s.z = 0.4e-3;
    s.sheet_resistance = 1e-3;
    return RectMesh({s}, 0.001);
}

// Two congruent planes at different heights whose grids share one lattice:
// exercises the (z, z') dimension of the table.
RectMesh stacked_mesh() {
    ConductorShape a;
    a.outline = Polygon::rectangle(0, 0, 0.010, 0.008);
    a.z = 0.3e-3;
    ConductorShape b = a;
    b.z = 0.8e-3;
    return RectMesh({a, b}, 0.001);
}

// Shapes of incommensurate widths get different stretched pitches: the
// lattice test must reject this mesh.
RectMesh nonuniform_mesh() {
    ConductorShape a;
    a.outline = Polygon::rectangle(0, 0, 0.010, 0.008);
    a.z = 0.4e-3;
    ConductorShape b;
    b.outline = Polygon::rectangle(0.015, 0, 0.015 + 0.0073, 0.0073);
    b.z = 0.4e-3;
    return RectMesh({a, b}, 0.001);
}

double max_rel_diff(const MatrixD& a, const MatrixD& b) {
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    const double scale = std::max(a.max_abs(), 1e-300);
    double m = 0;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            m = std::max(m, std::abs(a(i, j) - b(i, j)) / scale);
    return m;
}

PlaneBem make(RectMesh mesh, AssemblyMode mode,
              Testing testing = Testing::PointMatching) {
    BemOptions opt;
    opt.testing = testing;
    opt.assembly = mode;
    return PlaneBem(std::move(mesh), Greens::homogeneous(4.2, true), opt);
}

} // namespace

TEST(BemCache, CachedMatchesDirectOnHoleyMesh) {
    const PlaneBem direct = make(holey_mesh(), AssemblyMode::Direct);
    const PlaneBem cached = make(holey_mesh(), AssemblyMode::Cached);
    EXPECT_LT(max_rel_diff(cached.potential_matrix(), direct.potential_matrix()),
              1e-12);
    EXPECT_LT(max_rel_diff(cached.inductance_matrix(), direct.inductance_matrix()),
              1e-12);
    EXPECT_TRUE(cached.stats().potential_cached);
    EXPECT_TRUE(cached.stats().inductance_cached);
    EXPECT_GT(cached.stats().cache_entries, 0u);
    EXPECT_FALSE(direct.stats().potential_cached);
    EXPECT_FALSE(direct.stats().inductance_cached);
}

TEST(BemCache, CachedMatchesDirectWithGalerkinTesting) {
    const PlaneBem direct =
        make(holey_mesh(), AssemblyMode::Direct, Testing::Galerkin);
    const PlaneBem cached =
        make(holey_mesh(), AssemblyMode::Cached, Testing::Galerkin);
    EXPECT_LT(max_rel_diff(cached.potential_matrix(), direct.potential_matrix()),
              1e-12);
    EXPECT_TRUE(cached.stats().potential_cached);
}

TEST(BemCache, CachedMatchesDirectAcrossStackedLayers) {
    const PlaneBem direct = make(stacked_mesh(), AssemblyMode::Direct);
    const PlaneBem cached = make(stacked_mesh(), AssemblyMode::Cached);
    EXPECT_LT(max_rel_diff(cached.potential_matrix(), direct.potential_matrix()),
              1e-12);
    EXPECT_LT(max_rel_diff(cached.inductance_matrix(), direct.inductance_matrix()),
              1e-12);
}

TEST(BemCache, AutoFallsBackOnNonUniformMesh) {
    const PlaneBem bem = make(nonuniform_mesh(), AssemblyMode::Auto);
    bem.potential_matrix();
    bem.inductance_matrix();
    EXPECT_FALSE(bem.stats().potential_cached);
    EXPECT_FALSE(bem.stats().inductance_cached);
}

TEST(BemCache, AutoUsesCacheOnUniformMesh) {
    const PlaneBem bem = make(holey_mesh(), AssemblyMode::Auto);
    bem.potential_matrix();
    bem.inductance_matrix();
    EXPECT_TRUE(bem.stats().potential_cached);
    EXPECT_TRUE(bem.stats().inductance_cached);
}

TEST(BemCache, ForcedCacheOnNonUniformMeshThrows) {
    const PlaneBem bem = make(nonuniform_mesh(), AssemblyMode::Cached);
    EXPECT_THROW(bem.potential_matrix(), Error);
    EXPECT_THROW(bem.inductance_matrix(), Error);
}

// Assembly results must be bit-identical at any thread count: work is
// partitioned over disjoint outputs with a fixed per-entry evaluation order.
TEST(BemCache, ResultsInvariantAcrossThreadCounts) {
    pgsi::test::ScopedThreadCount pin(1);
    for (const AssemblyMode mode : {AssemblyMode::Direct, AssemblyMode::Cached}) {
        pin.repin(1);
        const PlaneBem one = make(holey_mesh(), mode);
        const MatrixD p1 = one.potential_matrix();
        const MatrixD l1 = one.inductance_matrix();
        for (const std::size_t threads : {2u, 8u}) {
            pin.repin(threads);
            const PlaneBem many = make(holey_mesh(), mode);
            const MatrixD& pn = many.potential_matrix();
            const MatrixD& ln = many.inductance_matrix();
            double dp = 0, dl = 0;
            for (std::size_t i = 0; i < p1.rows(); ++i)
                for (std::size_t j = 0; j < p1.cols(); ++j)
                    dp = std::max(dp, std::abs(p1(i, j) - pn(i, j)));
            for (std::size_t i = 0; i < l1.rows(); ++i)
                for (std::size_t j = 0; j < l1.cols(); ++j)
                    dl = std::max(dl, std::abs(l1(i, j) - ln(i, j)));
            EXPECT_EQ(dp, 0.0) << "mode=" << static_cast<int>(mode)
                               << " threads=" << threads;
            EXPECT_EQ(dl, 0.0) << "mode=" << static_cast<int>(mode)
                               << " threads=" << threads;
        }
    }
}

// The dense fills and the on-demand entries share one kernel: a Direct fill
// is potential_entry / inductance_entry on the lower triangle, and a Cached
// fill is the table lookup the Toeplitz operators read. Bit for bit, on
// both testing procedures.
TEST(BemCache, DenseFillsEqualEntryKernelsBitwise) {
    const auto same = [](double a, double b) {
        return std::memcmp(&a, &b, sizeof a) == 0;
    };
    for (const Testing testing : {Testing::PointMatching, Testing::Galerkin})
        for (const bool holey : {true, false})
            for (const AssemblyMode mode :
                 {AssemblyMode::Direct, AssemblyMode::Cached}) {
                if (!holey && mode == AssemblyMode::Cached) continue;
                const PlaneBem bem = make(holey ? holey_mesh()
                                                : nonuniform_mesh(),
                                          mode, testing);
                const bool direct = mode == AssemblyMode::Direct;
                const MatrixD& p = bem.potential_matrix();
                const MatrixD& l = bem.inductance_matrix();
                if (!direct) {
                    ASSERT_TRUE(bem.stats().potential_cached);
                    ASSERT_TRUE(bem.stats().inductance_cached);
                }
                const InteractionOperator* pop =
                    direct ? nullptr : &bem.potential_operator();
                const InteractionOperator* lop =
                    direct ? nullptr : &bem.inductance_operator();
                std::size_t mismatches = 0;
                for (std::size_t i = 0; i < p.rows(); ++i)
                    for (std::size_t j = 0; j < p.cols(); ++j)
                        mismatches += !same(p(i, j),
                                            direct ? bem.potential_entry(i, j)
                                                   : pop->entry(std::max(i, j),
                                                                std::min(i, j)));
                for (std::size_t a = 0; a < l.rows(); ++a)
                    for (std::size_t b = 0; b < l.cols(); ++b)
                        mismatches += !same(l(a, b),
                                            direct ? bem.inductance_entry(a, b)
                                                   : lop->entry(std::max(a, b),
                                                                std::min(a, b)));
                EXPECT_EQ(mismatches, 0u)
                    << "testing=" << static_cast<int>(testing)
                    << " holey=" << holey << " mode=" << static_cast<int>(mode);
            }
}

// Digests (%.17g, see test_util.hpp) of the Direct and Cached fills of the
// holey mesh, recorded from the column-parallel fill: P then L per mode.
TEST(BemCache, FillsReproduceRecordedDigests) {
    const std::uint64_t want[][2] = {
        {0xe45ac8f650f19863ull, 0x710e31ecc54f4197ull},
        {0xa3d2197535bc63adull, 0x238c4fd032512a0aull}};
    int s = 0;
    for (const AssemblyMode mode : {AssemblyMode::Direct, AssemblyMode::Cached}) {
        const PlaneBem bem = make(holey_mesh(), mode);
        const std::uint64_t got[] = {pgsi::test::digest(bem.potential_matrix()),
                                     pgsi::test::digest(bem.inductance_matrix())};
        for (int k = 0; k < 2; ++k)
            EXPECT_EQ(got[k], want[s][k])
                << "mode=" << s << " " << k << ": 0x" << std::hex << got[k];
        ++s;
    }
}

TEST(BemLazy, ConcurrentFirstUseFillsEachMemberOnce) {
    // Eight threads race to the first use of two lazily filled members that
    // share the potential table: every thread must get the one cached
    // object, with the bits of a serial fill.
    const PlaneBem serial(holey_mesh(), Greens::homogeneous(4.4, true));
    const MatrixD& want = serial.maxwell_capacitance();

    const PlaneBem bem(holey_mesh(), Greens::homogeneous(4.4, true));
    constexpr std::size_t kThreads = 8;
    std::vector<const MatrixD*> cap(kThreads, nullptr);
    std::vector<const InteractionOperator*> op(kThreads, nullptr);
    std::atomic<std::size_t> ready{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            ++ready;
            while (ready.load() < kThreads) std::this_thread::yield();
            if (t % 2 == 0) {
                cap[t] = &bem.maxwell_capacitance();
                op[t] = &bem.potential_operator();
            } else {
                op[t] = &bem.potential_operator();
                cap[t] = &bem.maxwell_capacitance();
            }
        });
    for (std::thread& th : threads) th.join();

    for (std::size_t t = 1; t < kThreads; ++t) {
        EXPECT_EQ(cap[t], cap[0]) << "thread " << t;
        EXPECT_EQ(op[t], op[0]) << "thread " << t;
    }
    ASSERT_EQ(cap[0]->rows(), want.rows());
    EXPECT_EQ(std::memcmp(cap[0]->data(), want.data(),
                          want.rows() * want.cols() * sizeof(double)),
              0);
    EXPECT_TRUE(bem.stats().potential_cached);
    EXPECT_EQ(bem.stats().cache_entries, serial.stats().cache_entries);
}

TEST(BemLazy, MoveKeepsFilledMembers) {
    static_assert(std::is_move_constructible_v<PlaneBem>);
    PlaneBem bem(holey_mesh(), Greens::homogeneous(4.4, true));
    const MatrixD* cap = &bem.maxwell_capacitance();
    const PlaneBem moved(std::move(bem));
    EXPECT_EQ(&moved.maxwell_capacitance(), cap);
    EXPECT_TRUE(moved.stats().potential_cached);
}

namespace {

std::vector<std::size_t> nonuniform_ports(const PlaneBem& bem) {
    return {bem.mesh().nearest_node({0.002, 0.004}, 0),
            bem.mesh().nearest_node({0.018, 0.004}, 1)};
}

SolverOptions iterative_options() {
    SolverOptions opt;
    opt.backend = SolverBackend::Iterative;
    return opt;
}

bool same_bits(const MatrixC& a, const MatrixC& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       a.rows() * a.cols() * sizeof(Complex)) == 0;
}

} // namespace

// The PlaneBem owns its compressed operators: two solvers on one model
// build each H-matrix part (P and the two L directions) once between them,
// and read the same operators.
TEST(BemLazy, CompressedOperatorSharedAcrossSolvers) {
    const PlaneBem bem(nonuniform_mesh(), Greens::homogeneous(4.4, true));
    ASSERT_FALSE(bem.uniform_lattice());
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const std::vector<std::size_t> ports = nonuniform_ports(bem);

    obs::set_trace_enabled(true);
    obs::reset_trace();
    const IterativeSolver first(bem, zs, iterative_options());
    const MatrixC z1 = first.port_impedance(5e8, ports);
    const IterativeSolver second(bem, zs, iterative_options());
    const MatrixC z2 = second.port_impedance(5e8, ports);
    std::size_t builds = 0;
    for (const obs::SpanTotal& t : obs::span_totals()) {
        const std::string leaf = "em.hmatrix.build";
        if (t.path.size() >= leaf.size() &&
            t.path.compare(t.path.size() - leaf.size(), leaf.size(), leaf) == 0)
            builds += t.count;
    }
    obs::set_trace_enabled(false);
    obs::reset_trace();

    EXPECT_EQ(builds, 3u);
    EXPECT_EQ(bem.potential_operator().hmatrix_parts().size(), 1u);
    EXPECT_EQ(bem.inductance_operator().hmatrix_parts().size(), 2u);
    EXPECT_TRUE(same_bits(z1, z2));
    EXPECT_TRUE(first.stats().hmatrix);
    EXPECT_TRUE(second.stats().hmatrix);
    EXPECT_EQ(first.stats().aca_blocks + first.stats().aca_dense_blocks,
              second.stats().aca_blocks + second.stats().aca_dense_blocks);
}

// The compressed operators keep no pointer to the PlaneBem that built them:
// after a move (and the source's destruction) a solver on the moved model
// samples the H-matrix entry kernels for its preconditioner and must
// reproduce an unmoved model's Z bit for bit.
TEST(BemLazy, MoveKeepsCompressedOperator) {
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const PlaneBem still(nonuniform_mesh(), Greens::homogeneous(4.4, true));
    const MatrixC want = IterativeSolver(still, zs, iterative_options())
                             .port_impedance(5e8, nonuniform_ports(still));

    auto source = std::make_unique<PlaneBem>(nonuniform_mesh(),
                                             Greens::homogeneous(4.4, true));
    const InteractionOperator* pop = &source->potential_operator();
    const InteractionOperator* lop = &source->inductance_operator();
    ASSERT_TRUE(pop->compressed());
    const PlaneBem moved(std::move(*source));
    source.reset();
    EXPECT_EQ(&moved.potential_operator(), pop);
    EXPECT_EQ(&moved.inductance_operator(), lop);

    const IterativeSolver solver(moved, zs, iterative_options());
    EXPECT_TRUE(same_bits(solver.port_impedance(5e8, nonuniform_ports(moved)),
                          want));
    EXPECT_TRUE(solver.stats().hmatrix);
}

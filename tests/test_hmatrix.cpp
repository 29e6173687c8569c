// ACA/H-matrix operator compression: cluster-tree and admissibility
// properties, rank-revealing ACA, tolerance control, deterministic threaded
// apply, and the SolverBackend::Auto crossover that keeps O(N²) dense
// assembly from silently coming back.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/parallel.hpp"
#include "em/hmatrix.hpp"
#include "em/iterative_solver.hpp"
#include "em/solver.hpp"
#include "obs/metrics.hpp"
#include "tests/test_util.hpp"

using namespace pgsi;

namespace {

// Stretched (geometrically graded) planar point set: no two spacings equal,
// the worst case for lattice detection and a realistic H-matrix geometry.
std::vector<std::array<double, 3>> stretched_points(std::size_t nx,
                                                    std::size_t ny) {
    std::vector<std::array<double, 3>> pts;
    pts.reserve(nx * ny);
    double x = 0;
    for (std::size_t i = 0; i < nx; ++i) {
        double y = 0;
        for (std::size_t j = 0; j < ny; ++j) {
            pts.push_back({x, y, 0.0});
            y += 1.0 + 0.03 * static_cast<double>(j);
        }
        x += 1.0 + 0.05 * static_cast<double>(i);
    }
    return pts;
}

// Smooth radial interaction over a point set — the asymptotically smooth
// kernel class (1/r regularized at the origin) the ACA bound targets.
KernelFn radial_kernel(std::vector<std::array<double, 3>> pts) {
    return [pts = std::move(pts)](std::size_t i, std::size_t j) {
        const double dx = pts[i][0] - pts[j][0];
        const double dy = pts[i][1] - pts[j][1];
        const double dz = pts[i][2] - pts[j][2];
        return 1.0 / std::sqrt(dx * dx + dy * dy + dz * dz + 0.25);
    };
}

MatrixD dense_from_kernel(const KernelFn& k, std::size_t n) {
    MatrixD m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) m(i, j) = k(i, j);
    return m;
}

VectorC test_vector(std::size_t n) {
    VectorC x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = Complex(std::sin(0.7 * static_cast<double>(i) + 0.3),
                       std::cos(1.3 * static_cast<double>(i)));
    return x;
}

double rel_apply_error(const Hmatrix& h, const MatrixD& dense) {
    const std::size_t n = h.size();
    const VectorC x = test_vector(n);
    VectorC yh(n), yd(n, Complex{});
    h.apply(x.data(), yh.data());
    for (std::size_t i = 0; i < n; ++i) {
        Complex s{};
        for (std::size_t j = 0; j < n; ++j) s += dense(i, j) * x[j];
        yd[i] = s;
    }
    double num = 0, den = 0;
    for (std::size_t i = 0; i < n; ++i) {
        num += std::norm(yh[i] - yd[i]);
        den += std::norm(yd[i]);
    }
    return std::sqrt(num / den);
}

// Mirrors test_iterative_solver: incommensurate shape widths (no common
// lattice).
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

} // namespace

TEST(ClusterTree, RangesPartitionAndBoxesContain) {
    const auto pts = stretched_points(12, 9);
    const ClusterTree tree(pts, 8);
    ASSERT_EQ(tree.size(), pts.size());

    // perm is a permutation of [0, n).
    std::vector<std::size_t> seen(tree.size(), 0);
    for (const std::size_t e : tree.perm()) {
        ASSERT_LT(e, tree.size());
        ++seen[e];
    }
    for (const std::size_t c : seen) EXPECT_EQ(c, 1u);

    const auto& nodes = tree.nodes();
    EXPECT_EQ(tree.root().begin, 0u);
    EXPECT_EQ(tree.root().end, tree.size());
    for (const ClusterNode& nd : nodes) {
        // Every point of the range sits inside the node's bounding box.
        for (std::size_t k = nd.begin; k < nd.end; ++k) {
            const auto& p = pts[tree.perm()[k]];
            for (int a = 0; a < 3; ++a) {
                EXPECT_GE(p[a], nd.lo[a]);
                EXPECT_LE(p[a], nd.hi[a]);
            }
        }
        if (nd.leaf()) {
            EXPECT_LE(nd.count(), 8u);
        } else {
            // Children split the parent's range exactly, no gap, no overlap.
            const ClusterNode& c0 = nodes[static_cast<std::size_t>(nd.child0)];
            const ClusterNode& c1 = nodes[static_cast<std::size_t>(nd.child1)];
            EXPECT_EQ(c0.begin, nd.begin);
            EXPECT_EQ(c0.end, c1.begin);
            EXPECT_EQ(c1.end, nd.end);
            EXPECT_GT(c0.count(), 0u);
            EXPECT_GT(c1.count(), 0u);
        }
    }
}

TEST(ClusterTree, DeterministicAcrossRebuilds) {
    const auto pts = stretched_points(10, 10);
    const ClusterTree a(pts, 6);
    const ClusterTree b(pts, 6);
    ASSERT_EQ(a.perm(), b.perm());
    ASSERT_EQ(a.nodes().size(), b.nodes().size());
    for (std::size_t i = 0; i < a.nodes().size(); ++i) {
        EXPECT_EQ(a.nodes()[i].begin, b.nodes()[i].begin);
        EXPECT_EQ(a.nodes()[i].end, b.nodes()[i].end);
        EXPECT_EQ(a.nodes()[i].child0, b.nodes()[i].child0);
    }
}

TEST(Admissibility, StrongConditionProperties) {
    ClusterNode a;
    a.lo = {0, 0, 0};
    a.hi = {1, 1, 0};
    ClusterNode b;
    b.lo = {5, 0, 0};
    b.hi = {6, 1, 0};
    ClusterNode c; // overlaps a
    c.lo = {0.5, 0.5, 0};
    c.hi = {1.5, 1.5, 0};

    // Distance: 4 between a and b, 0 for overlap; diameters sqrt(2).
    EXPECT_DOUBLE_EQ(ClusterTree::distance(a, b), 4.0);
    EXPECT_DOUBLE_EQ(ClusterTree::distance(a, c), 0.0);

    // Well-separated boxes are admissible at eta = 1.5; overlap never is
    // (dist = 0 fails the strict dist > 0 requirement).
    EXPECT_TRUE(admissible(a, b, 1.5));
    EXPECT_FALSE(admissible(a, c, 1.5));
    // Symmetry.
    EXPECT_EQ(admissible(a, b, 1.5), admissible(b, a, 1.5));
    // Exact threshold: eta * dist >= max diam. diam = sqrt(2), dist = 4.
    EXPECT_TRUE(admissible(a, b, std::sqrt(2.0) / 4.0 + 1e-12));
    EXPECT_FALSE(admissible(a, b, std::sqrt(2.0) / 4.0 - 1e-3));
}

TEST(Aca, RecoversExactLowRankBlock) {
    // kernel(i, j) = a_i a_j + b_i b_j is exactly rank 2 and symmetric.
    const std::size_t n = 40;
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = 1.0 + 0.1 * static_cast<double>(i);
        b[i] = std::sin(0.4 * static_cast<double>(i));
    }
    const KernelFn k = [&](std::size_t i, std::size_t j) {
        return a[i] * a[j] + b[i] * b[j];
    };
    std::vector<std::size_t> ids(n);
    std::iota(ids.begin(), ids.end(), 0u);

    const AcaResult r =
        aca_lowrank(ids.data(), n, ids.data(), n, k, 1e-12, 16);
    EXPECT_TRUE(r.converged);
    // Rank revealed: 2 genuine terms (+1 allowed for the termination probe).
    EXPECT_GE(r.u.cols(), 2u);
    EXPECT_LE(r.u.cols(), 3u);
    // The factorization spent O(rank·(m+n)) kernel evaluations, not O(mn).
    EXPECT_LT(r.evals, n * n / 2);

    double worst = 0;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            double s = 0;
            for (std::size_t l = 0; l < r.u.cols(); ++l)
                s += r.u(i, l) * r.v(l, j);
            worst = std::max(worst, std::abs(s - k(i, j)));
        }
    EXPECT_LT(worst, 1e-9);
}

TEST(Aca, ZeroBlockConvergesAtRankZero) {
    const KernelFn k = [](std::size_t, std::size_t) { return 0.0; };
    std::vector<std::size_t> ids(12);
    std::iota(ids.begin(), ids.end(), 0u);
    const AcaResult r =
        aca_lowrank(ids.data(), 12, ids.data(), 12, k, 1e-10, 8);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.u.cols(), 0u);
}

TEST(Aca, RankBudgetExhaustionReportsNonConvergence) {
    // A random-looking full-rank kernel cannot be captured at rank 2.
    const KernelFn k = [](std::size_t i, std::size_t j) {
        return std::sin(static_cast<double>(1 + i * 37 + j * 101)) +
               (i == j ? 3.0 : 0.0);
    };
    std::vector<std::size_t> ids(24);
    std::iota(ids.begin(), ids.end(), 0u);
    const AcaResult r =
        aca_lowrank(ids.data(), 24, ids.data(), 24, k, 1e-12, 2);
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.u.cols(), 2u);
}

TEST(Hmatrix, CompressesAndMatchesDenseApply) {
    // Large enough that coarse-level admissible blocks are genuinely
    // low-rank: below ~500 points the storage break-even rule keeps
    // every block dense and there is nothing to compress.
    const auto pts = stretched_points(30, 30); // 900 elements
    const KernelFn k = radial_kernel(pts);
    HmatrixOptions opt;
    opt.aca_tol = 1e-10;
    const Hmatrix h(pts, k, opt);
    ASSERT_EQ(h.size(), pts.size());

    const HmatrixStats& st = h.stats();
    EXPECT_GT(st.lowrank_blocks, 0u);
    EXPECT_GT(st.dense_blocks, 0u);
    // Compression must actually compress, and never sample every entry.
    EXPECT_LT(st.compression(), 0.7);
    EXPECT_LT(st.kernel_evals, h.size() * h.size());

    const MatrixD dense = dense_from_kernel(k, h.size());
    EXPECT_LT(rel_apply_error(h, dense), 1e-8);
    // entry() bypasses the compression: exact kernel values.
    EXPECT_DOUBLE_EQ(h.entry(3, 200), k(3, 200));
}

TEST(Hmatrix, TighterToleranceGivesSmallerError) {
    const auto pts = stretched_points(16, 12);
    const KernelFn k = radial_kernel(pts);
    const MatrixD dense = dense_from_kernel(k, pts.size());

    double prev_err = 1e300;
    std::size_t prev_stored = 0;
    for (const double tol : {1e-2, 1e-4, 1e-7, 1e-10}) {
        HmatrixOptions opt;
        opt.aca_tol = tol;
        const Hmatrix h(pts, k, opt);
        const double err = rel_apply_error(h, dense);
        EXPECT_LT(err, 50.0 * tol) << "tol " << tol;
        // Monotone: tightening the tolerance may not increase the error
        // (floor at numerical noise) and may not shrink the storage.
        EXPECT_LE(err, prev_err + 1e-14) << "tol " << tol;
        EXPECT_GE(h.stats().stored_entries, prev_stored);
        prev_err = err;
        prev_stored = h.stats().stored_entries;
    }
    EXPECT_LT(prev_err, 1e-8); // the tightest rung reached solver accuracy
}

TEST(Hmatrix, HighRankFarBlockBelowBreakEvenStaysLowRank) {
    // Two 200-point clusters, 8 apart: the root splits them and their
    // 200 × 200 block is admissible with a break-even rank of 100. The kernel
    // F·Fᵀ is exactly rank 80 (F 400 × 80, uniform pseudo-random entries),
    // so that block converges at rank 80 — above any fixed cap of 64 — and
    // stays low-rank.
    constexpr std::size_t kRank = 80;
    std::vector<std::array<double, 3>> pts;
    for (const double x0 : {0.0, 10.0})
        for (std::size_t i = 0; i < 20; ++i)
            for (std::size_t j = 0; j < 10; ++j)
                pts.push_back({x0 + 0.1 * static_cast<double>(i),
                               0.1 * static_cast<double>(j), 0.0});
    std::vector<double> f(pts.size() * kRank);
    std::uint64_t lcg = 7;
    for (double& fi : f) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        fi = static_cast<double>(lcg >> 11) * 0x1p-53 - 0.5;
    }
    const KernelFn k = [&f](std::size_t i, std::size_t j) {
        double s = 0;
        for (std::size_t l = 0; l < kRank; ++l)
            s += f[i * kRank + l] * f[j * kRank + l];
        return s;
    };
    const Hmatrix h(pts, k, HmatrixOptions{});

    const HmatrixStats& st = h.stats();
    EXPECT_GE(st.lowrank_blocks, 1u);
    EXPECT_GT(st.max_rank_seen, 64u);
    EXPECT_LE(st.max_rank_seen, kRank);
    EXPECT_LT(rel_apply_error(h, dense_from_kernel(k, h.size())), 1e-12);
}

TEST(Hmatrix, UnreachableToleranceStoresFarBlocksDenseAndExact) {
    // No far block meets aca_tol = 1e-30 inside its break-even rank, so each
    // is assembled dense from the exact kernel and Z still matches the dense
    // direct solve. A loose tolerance on the same plane is the control: it
    // keeps low-rank blocks, so far blocks exist.
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    for (const double tol : {1e-6, 1e-30}) {
        BemOptions bo;
        bo.hmatrix.aca_tol = tol;
        bo.hmatrix.leaf_size = 16;
        const PlaneBem bem(nonuniform_mesh(), Greens::homogeneous(4.2, true),
                           bo);
        SolverOptions opt;
        opt.backend = SolverBackend::Iterative;
        const IterativeSolver iterative(bem, zs, opt);
        const std::vector<std::size_t> ports{
            bem.mesh().nearest_node({0.002, 0.004}, 0),
            bem.mesh().nearest_node({0.018, 0.004}, 1)};
        const MatrixC zh = iterative.port_impedance(5e8, ports);

        const IterativeSolverStats& st = iterative.stats();
        EXPECT_TRUE(st.hmatrix);
        if (tol > 1e-20) {
            EXPECT_GT(st.aca_blocks, 0u);
            continue;
        }
        EXPECT_EQ(st.aca_blocks, 0u);
        const DirectSolver direct(bem, zs);
        EXPECT_LE(max_rel_diff(zh, direct.port_impedance(5e8, ports)), 1e-8);
    }
}

TEST(Hmatrix, ApplyBitIdenticalAcrossThreadCounts) {
    const auto pts = stretched_points(17, 13);
    const KernelFn k = radial_kernel(pts);
    HmatrixOptions opt;
    opt.aca_tol = 1e-9;

    pgsi::test::ScopedThreadCount pin(1);
    VectorC base;
    {
        const Hmatrix h(pts, k, opt);
        const VectorC x = test_vector(h.size());
        base.resize(h.size());
        h.apply(x.data(), base.data());
    }
    for (const unsigned threads : {2u, 8u}) {
        pin.repin(threads);
        const Hmatrix h(pts, k, opt); // build AND apply under `threads`
        const VectorC x = test_vector(h.size());
        VectorC y(h.size());
        h.apply(x.data(), y.data());
        for (std::size_t i = 0; i < y.size(); ++i)
            EXPECT_EQ(y[i], base[i]) << "threads " << threads << " i " << i;
    }
}

TEST(Hmatrix, SolverCompressionMatchesDirectSolve) {
    const PlaneBem bem = make_bem(nonuniform_mesh());
    ASSERT_FALSE(bem.uniform_lattice());
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);

    SolverOptions opt;
    opt.backend = SolverBackend::Iterative;
    const IterativeSolver iterative(bem, zs, opt);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.004}, 0),
        bem.mesh().nearest_node({0.018, 0.004}, 1)};
    const MatrixC zh = iterative.port_impedance(5e8, ports);

    const IterativeSolverStats& st = iterative.stats();
    EXPECT_TRUE(st.hmatrix);
    EXPECT_GT(st.aca_blocks + st.aca_dense_blocks, 0u);

    const DirectSolver direct(bem, zs);
    EXPECT_LT(max_rel_diff(zh, direct.port_impedance(5e8, ports)), 1e-8);
}

TEST(Hmatrix, ForcedCompressionBitIdenticalAcrossThreadCounts) {
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);

    pgsi::test::ScopedThreadCount pin(1);
    MatrixC base;
    const auto solve = [&] {
        const PlaneBem bem = make_bem(nonuniform_mesh());
        SolverOptions opt;
        opt.backend = SolverBackend::Iterative;
        const IterativeSolver it(bem, zs, opt);
        const std::vector<std::size_t> ports{
            bem.mesh().nearest_node({0.002, 0.004}, 0),
            bem.mesh().nearest_node({0.018, 0.004}, 1)};
        return it.port_impedance(5e8, ports);
    };
    base = solve();
    for (const unsigned threads : {2u, 8u}) {
        pin.repin(threads);
        const MatrixC got = solve();
        for (std::size_t r = 0; r < got.rows(); ++r)
            for (std::size_t c = 0; c < got.cols(); ++c)
                EXPECT_EQ(got(r, c), base(r, c)) << "threads " << threads;
    }
}

// The Auto crossover, observed through the em.backend.* selection counters:
// a regression that silently reroutes a mesh class to the dense path (or
// back to O(N²)), or moves the 400-node threshold, flips the wrong counter
// and fails here. PlaneBem and make_solver are lazy: nothing is filled.
TEST(MakeSolverCrossover, UniformLatticeSelectsToeplitz) {
    const PlaneBem bem = make_bem(test::plate_mesh(20, 20));
    ASSERT_TRUE(bem.uniform_lattice());
    ASSERT_EQ(bem.node_count(), 400u);
    const std::uint64_t toe0 = obs::counter("em.backend.toeplitz").value();
    const std::uint64_t hm0 = obs::counter("em.backend.hmatrix").value();
    EXPECT_STREQ(make_solver(bem, SurfaceImpedance{}, {})->backend_name(),
                 "iterative");
    EXPECT_EQ(obs::counter("em.backend.toeplitz").value(), toe0 + 1);
    EXPECT_EQ(obs::counter("em.backend.hmatrix").value(), hm0);
}

TEST(MakeSolverCrossover, NonUniformMeshSelectsHmatrix) {
    const PlaneBem bem = make_bem(test::plate_pair_mesh(15, 20));
    ASSERT_FALSE(bem.uniform_lattice());
    ASSERT_EQ(bem.node_count(), 400u);
    const std::uint64_t hm0 = obs::counter("em.backend.hmatrix").value();
    const std::uint64_t dense0 = obs::counter("em.backend.dense").value();
    EXPECT_STREQ(make_solver(bem, SurfaceImpedance{}, {})->backend_name(),
                 "iterative");
    EXPECT_EQ(obs::counter("em.backend.hmatrix").value(), hm0 + 1);
    EXPECT_EQ(obs::counter("em.backend.dense").value(), dense0);
}

TEST(MakeSolverCrossover, MeshJustBelowThresholdSelectsDense) {
    // One node below the threshold the dense direct solver wins on
    // constants, on either operator family.
    for (RectMesh mesh :
         {test::plate_pair_mesh(13, 23), test::plate_mesh(19, 21)}) {
        const PlaneBem bem = make_bem(std::move(mesh));
        ASSERT_EQ(bem.node_count(), 399u);
        const std::uint64_t dense0 = obs::counter("em.backend.dense").value();
        EXPECT_STREQ(make_solver(bem, SurfaceImpedance{}, {})->backend_name(),
                     "direct");
        EXPECT_EQ(obs::counter("em.backend.dense").value(), dense0 + 1);
    }
}

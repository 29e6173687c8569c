// Matrix-free interaction operators: the arithmetic of one apply, pinned.
//
// The Toeplitz (FFT) and H-matrix applies sit under every Krylov iteration
// of the iterative solver. Their outputs are recorded here as FNV-1a
// digests, so a change to the transform kernels or the block products that
// is meant to keep the arithmetic must reproduce them bit for bit, at any
// thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>

#include "common/parallel.hpp"
#include "em/bem_plane.hpp"
#include "em/hmatrix.hpp"
#include "em/toeplitz_operator.hpp"
#include "tests/test_util.hpp"

using namespace pgsi;

namespace {

// 24 x 16 mm plane at 1 mm pitch: one layer, every grid row occupied by
// elements is a full row.
RectMesh plane_mesh() {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, 0.024, 0.016);
    s.z = 0.4e-3;
    s.sheet_resistance = 1e-3;
    return RectMesh({s}, 0.001);
}

// Same plane as test_bem_cache: an off-center antipad leaves holes in the
// occupied rows.
RectMesh holey_mesh() {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, 0.020, 0.016);
    s.holes.push_back(Polygon::rectangle(0.006, 0.005, 0.010, 0.008));
    s.z = 0.4e-3;
    s.sheet_resistance = 1e-3;
    return RectMesh({s}, 0.001);
}

// Two congruent planes at different heights on one lattice: two source and
// two observation layers per family.
RectMesh stacked_mesh() {
    ConductorShape a;
    a.outline = Polygon::rectangle(0, 0, 0.010, 0.008);
    a.z = 0.3e-3;
    a.sheet_resistance = 1e-3;
    ConductorShape b = a;
    b.z = 0.8e-3;
    return RectMesh({a, b}, 0.001);
}

// Shapes of incommensurate widths: no common lattice (H-matrix operators).
RectMesh nonuniform_mesh() {
    ConductorShape a;
    a.outline = Polygon::rectangle(0, 0, 0.010, 0.008);
    a.z = 0.4e-3;
    a.sheet_resistance = 1e-3;
    ConductorShape b = a;
    b.outline = Polygon::rectangle(0.015, 0, 0.015 + 0.0073, 0.0073);
    return RectMesh({a, b}, 0.001);
}

PlaneBem make_bem(RectMesh mesh) {
    return PlaneBem(std::move(mesh), Greens::homogeneous(4.2, true),
                    BemOptions{});
}

VectorC probe(std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    VectorC x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = Complex(u(rng), u(rng));
    return x;
}

// P and L applies of one mesh's operators, P's entries first.
VectorC operator_outputs(const PlaneBem& bem) {
    VectorC out;
    for (const InteractionOperator* op :
         {&bem.potential_operator(), &bem.inductance_operator()}) {
        EXPECT_FALSE(op->compressed());
        VectorC y;
        op->apply(probe(op->size(), 7), y);
        out.insert(out.end(), y.begin(), y.end());
    }
    return out;
}

VectorC hmatrix_outputs() {
    const PlaneBem bem = make_bem(nonuniform_mesh());
    HmatrixOptions opt;
    opt.leaf_size = 16;
    const Hmatrix h(bem.node_points(),
                    [&bem](std::size_t i, std::size_t j) {
                        return bem.potential_entry(i, j);
                    },
                    opt);
    const VectorC x = probe(h.size(), 9);
    VectorC y(h.size());
    h.apply(x.data(), y.data());
    return y;
}

// A synthetic two-layer family on a 130 x 70 lattice with a notch: a grid
// (256 x 256) large enough that the transforms split into row and column
// chunks over the pool.
ToeplitzFamily large_family() {
    Lattice lat;
    lat.uniform = true;
    lat.sx = lat.sy = 1e-3;
    lat.zs = {0.3e-3, 0.8e-3};
    for (int z = 0; z < 2; ++z)
        for (long j = 0; j < 70; ++j)
            for (long i = 0; i < 130; ++i) {
                if (i > 40 && i < 60 && j > 20 && j < 45) continue;
                lat.ix.push_back(i);
                lat.iy.push_back(j);
                lat.zid.push_back(z);
            }
    lat.span_x = 129;
    lat.span_y = 69;
    std::vector<double> table = build_interaction_table(
        lat, [](long di, long dj, double zo, double zs) {
            const double d2 = static_cast<double>(di * di + dj * dj);
            return 1.0 / std::sqrt(1.0 + d2 + 1e6 * (zo - zs) * (zo - zs));
        });
    return ToeplitzFamily(std::move(lat), std::move(table));
}

VectorC family_outputs(const ToeplitzFamily& fam) {
    const VectorC x = probe(fam.count(), 11);
    VectorC y(fam.count());
    fam.apply(x.data(), y.data());
    return y;
}

} // namespace

// Digests recorded (%.17g) from the row-then-column fft_2d applies and the
// two-pass H-matrix block products that the current kernels replaced.
TEST(OperatorApply, ReproducesRecordedDigests) {
    pgsi::test::ScopedThreadCount pin(1);
    const std::uint64_t got[] = {
        pgsi::test::digest(operator_outputs(make_bem(plane_mesh()))),
        pgsi::test::digest(operator_outputs(make_bem(holey_mesh()))),
        pgsi::test::digest(operator_outputs(make_bem(stacked_mesh()))),
        pgsi::test::digest(hmatrix_outputs()),
        pgsi::test::digest(family_outputs(large_family()))};
    const std::uint64_t want[] = {0x51cb0fba0846acc8ull, 0x11fa58369c14a1f1ull,
                                  0x51bb5bf462f942c2ull, 0xd71ccc86fe4ccd71ull,
                                  0xa83e88cae82168deull};
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(got[i], want[i]) << i << ": 0x" << std::hex << got[i];
}

TEST(OperatorApply, BitIdenticalAcrossThreadCounts) {
    const ToeplitzFamily fam = large_family();
    pgsi::test::ScopedThreadCount pin(1);
    const VectorC base[] = {
        operator_outputs(make_bem(plane_mesh())),
        operator_outputs(make_bem(holey_mesh())),
        operator_outputs(make_bem(stacked_mesh())), hmatrix_outputs(),
        family_outputs(fam)};
    for (const unsigned threads : {2u, 8u}) {
        pin.repin(threads);
        const VectorC got[] = {
            operator_outputs(make_bem(plane_mesh())),
            operator_outputs(make_bem(holey_mesh())),
            operator_outputs(make_bem(stacked_mesh())), hmatrix_outputs(),
            family_outputs(fam)};
        for (int c = 0; c < 5; ++c) {
            ASSERT_EQ(got[c].size(), base[c].size());
            for (std::size_t i = 0; i < got[c].size(); ++i)
                ASSERT_TRUE(pgsi::test::same_bits(got[c][i], base[c][i]))
                    << "case " << c << " threads " << threads << " i " << i;
        }
    }
}

// The solver's A(ω) apply runs P and L through apply_pair: one dispatch
// for every family of both, bitwise the two separate applies.
TEST(OperatorApply, PairMatchesSeparateApplies) {
    pgsi::test::ScopedThreadCount pin(4);
    for (RectMesh (*mesh)() : {plane_mesh, holey_mesh, stacked_mesh}) {
        const PlaneBem bem = make_bem(mesh());
        const InteractionOperator& p = bem.potential_operator();
        const InteractionOperator& l = bem.inductance_operator();
        const VectorC xp = probe(p.size(), 3), xl = probe(l.size(), 5);
        VectorC yp, yl, want_p, want_l;
        InteractionOperator::apply_pair(p, xp, yp, l, xl, yl);
        p.apply(xp, want_p);
        l.apply(xl, want_l);
        ASSERT_EQ(yp.size(), want_p.size());
        ASSERT_EQ(yl.size(), want_l.size());
        for (std::size_t i = 0; i < yp.size(); ++i)
            ASSERT_TRUE(pgsi::test::same_bits(yp[i], want_p[i])) << i;
        for (std::size_t i = 0; i < yl.size(); ++i)
            ASSERT_TRUE(pgsi::test::same_bits(yl[i], want_l[i])) << i;
    }
}

// Unit + property tests for the sparse LU (CSC assembly, minimum-degree
// ordering, Gilbert–Peierls factor with threshold pivoting).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <string>

#include "circuit/mna.hpp"
#include "common/robust.hpp"
#include "numeric/lu.hpp"
#include "numeric/sparse_lu.hpp"
#include "tests/test_util.hpp"

using namespace pgsi;

namespace {

MatrixD to_dense(const CscMatrix& a) {
    MatrixD d(a.n, a.n);
    for (std::size_t j = 0; j < a.n; ++j)
        for (std::size_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p)
            d(a.row_idx[p], j) += a.values[p];
    return d;
}

VectorD matvec(const CscMatrix& a, const VectorD& x) {
    VectorD y(a.n, 0.0);
    for (std::size_t j = 0; j < a.n; ++j)
        for (std::size_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p)
            y[a.row_idx[p]] += a.values[p] * x[j];
    return y;
}

double max_abs_diff(const VectorD& a, const VectorD& b) {
    double m = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

// ‖Ax − b‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞).
double relative_residual(const CscMatrix& a, const VectorD& x, const VectorD& b) {
    const VectorD ax = matvec(a, x);
    VectorD row_sum(a.n, 0.0);
    for (std::size_t j = 0; j < a.n; ++j)
        for (std::size_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p)
            row_sum[a.row_idx[p]] += std::abs(a.values[p]);
    return max_abs_diff(ax, b) / (max_abs(row_sum) * max_abs(x) + max_abs(b));
}

VectorD random_vector(std::size_t n, std::mt19937& rng) {
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    VectorD v(n);
    for (double& e : v) e = u(rng);
    return v;
}

// Seeded random nonsymmetric matrix: a diagonally dominant core with
// ~`density` off-diagonal fill, then `swaps` disjoint row pairs exchanged.
// A swapped pair (i, j) has no (i, j) or (j, i) entry before the swap, so
// both rows end up with a zero diagonal.
CscMatrix random_matrix(std::size_t n, double density, std::size_t swaps,
                        std::mt19937& rng) {
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::bernoulli_distribution fill(density);
    MatrixD m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            if (i != j && fill(rng)) m(i, j) = u(rng);
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;
    std::shuffle(perm.begin(), perm.end(), rng);
    for (std::size_t s = 0; s < swaps && 2 * s + 1 < n; ++s) {
        m(perm[2 * s], perm[2 * s + 1]) = 0;
        m(perm[2 * s + 1], perm[2 * s]) = 0;
    }
    for (std::size_t i = 0; i < n; ++i) {
        double r = 0;
        for (std::size_t j = 0; j < n; ++j) r += std::abs(m(i, j));
        m(i, i) = (r + 1.0) * (u(rng) < 0 ? -1.0 : 1.0);
    }
    for (std::size_t s = 0; s < swaps && 2 * s + 1 < n; ++s)
        for (std::size_t j = 0; j < n; ++j)
            std::swap(m(perm[2 * s], j), m(perm[2 * s + 1], j));
    std::vector<SparseEntry> e;
    for (std::size_t j = 0; j < n; ++j)
        for (std::size_t i = 0; i < n; ++i)
            if (m(i, j) != 0.0) e.push_back({i, j, m(i, j)});
    return CscMatrix::from_entries(n, e);
}

// Transient-style MNA matrix of a netlist: companion conductances s·C and
// s·L, driver conductances at time t, table slopes at 0 V.
CscMatrix transient_mna(const Netlist& nl, double s, double t) {
    const MnaLayout lay(nl);
    std::vector<SparseEntry> e;
    const auto add = [&](std::size_t i, std::size_t j, double v) {
        e.push_back({i, j, v});
    };
    for (const Resistor& r : nl.resistors())
        stamp_conductance(add, lay, r.a, r.b, 1.0 / r.r);
    for (const Capacitor& c : nl.capacitors())
        stamp_conductance(add, lay, c.a, c.b, s * c.c);
    for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
        const Inductor& l = nl.inductors()[k];
        const std::size_t cur = lay.inductor_current(k);
        stamp_branch_incidence(add, lay, l.a, l.b, cur);
        add(cur, cur, -(l.r + s * l.l));
    }
    for (std::size_t k = 0; k < nl.vsources().size(); ++k)
        stamp_branch_incidence(add, lay, nl.vsources()[k].a, nl.vsources()[k].b,
                               lay.vsource_current(k));
    for (const DriverInstance& d : nl.drivers()) {
        stamp_conductance(add, lay, d.out, d.vcc, d.params.g_up(t));
        stamp_conductance(add, lay, d.out, d.gnd, d.params.g_dn(t));
        stamp_conductance(add, lay, d.out, d.gnd, s * d.params.c_out);
    }
    for (const TableConductance& tc : nl.table_conductances())
        stamp_conductance(add, lay, tc.a, tc.b, tc.iv.slope(0.0));
    return CscMatrix::from_entries(lay.dim(), e);
}

} // namespace

TEST(CscMatrix, FromEntriesSumsDuplicatesAndKeepsZeros) {
    const CscMatrix a = CscMatrix::from_entries(
        3, {{2, 0, 1.0}, {0, 0, 4.0}, {2, 0, 0.5}, {1, 2, 0.0}, {0, 1, -2.0}});
    EXPECT_EQ(a.col_ptr, (std::vector<std::size_t>{0, 2, 3, 4}));
    EXPECT_EQ(a.row_idx, (std::vector<std::size_t>{0, 2, 0, 1}));
    EXPECT_EQ(a.values, (std::vector<double>{4.0, 1.5, -2.0, 0.0}));
    CscMatrix b = a;
    b.add(1, 2, 3.0);
    EXPECT_EQ(b.values[3], 3.0);
    EXPECT_THROW(b.add(1, 1, 1.0), InvalidArgument);
    EXPECT_THROW(b.add(0, 3, 1.0), InvalidArgument);
    EXPECT_THROW(CscMatrix::from_entries(2, {{2, 0, 1.0}}), InvalidArgument);
    // Malformed hand-built CSC is rejected before any indexing.
    CscMatrix bad;
    bad.n = 2;
    EXPECT_THROW(SparseLu{bad}, InvalidArgument);
    CscMatrix bad_row = CscMatrix::from_entries(2, {{0, 0, 1.0}, {1, 1, 1.0}});
    bad_row.row_idx[1] = 5;
    EXPECT_THROW(SparseLu{bad_row}, InvalidArgument);
}

TEST(SparseLu, RandomNonsymmetricMatchesDenseLu) {
    std::mt19937 rng(20260417);
    for (const std::size_t n : {1u, 2u, 7u, 30u, 90u, 200u}) {
        for (int rep = 0; rep < 4; ++rep) {
            const CscMatrix a =
                random_matrix(n, std::min(1.0, 4.0 / n), n / 5, rng);
            const SparseLu lu(a);
            const Lu<double> dense(to_dense(a));
            const VectorD b = random_vector(n, rng);
            const VectorD x = lu.solve(b);
            EXPECT_LE(relative_residual(a, x, b), 1e-12) << "n = " << n;
            const VectorD xd = dense.solve(b);
            EXPECT_LE(max_abs_diff(x, xd), 1e-10 * max_abs(xd)) << "n = " << n;
            // Transpose solve against the dense solve of Aᵀ.
            const VectorD xt = lu.solve_transpose(b);
            const VectorD xtd = Lu<double>(to_dense(a).transposed()).solve(b);
            EXPECT_LE(max_abs_diff(xt, xtd), 1e-10 * max_abs(xtd)) << "n = " << n;
            EXPECT_LE(lu.nnz(), n * n);
        }
    }
}

TEST(SparseLu, ZeroDiagonalRowsArePivotedAway) {
    // A voltage-source-like 2×2 saddle block: [[g, 1], [1, 0]].
    const CscMatrix a = CscMatrix::from_entries(
        2, {{0, 0, 1e-3}, {1, 0, 1.0}, {0, 1, 1.0}, {1, 1, 0.0}});
    const SparseLu lu(a);
    const VectorD x = lu.solve({1.0, 2.0});
    EXPECT_NEAR(x[0], 2.0, 1e-15);
    EXPECT_NEAR(x[1], 1.0 - 2e-3, 1e-15);
}

TEST(SparseLu, MnaMatricesOfTestNetlistsFactorAndSolve) {
    std::mt19937 rng(7);
    const Netlist nets[] = {test::border_vsource_netlist(),
                            test::supply_chain_netlist(),
                            test::diode_clamp_netlist()};
    for (const Netlist& nl : nets)
        for (const double s : {1.0 / 10e-12, 2.0 / 10e-12})
            for (const double t : {0.0, 0.65e-9, 2e-9}) {
                const CscMatrix a = transient_mna(nl, s, t);
                const SparseLu lu(a);
                const VectorD b = random_vector(a.n, rng);
                const VectorD x = lu.solve(b);
                EXPECT_LE(relative_residual(a, x, b), 1e-12);
                const VectorD xd = Lu<double>(to_dense(a)).solve(b);
                EXPECT_LE(max_abs_diff(x, xd), 1e-10 * max_abs(xd));
            }
}

TEST(SparseLu, StructurallySingularThrows) {
    // Column 1 is empty.
    const CscMatrix a =
        CscMatrix::from_entries(3, {{0, 0, 1.0}, {1, 0, 2.0}, {2, 2, 3.0}});
    EXPECT_THROW(SparseLu{a}, NumericalError);
    // Rows 1 and 2 only touch column 2: structural rank 2 of 3.
    const CscMatrix b = CscMatrix::from_entries(
        3, {{0, 0, 1.0}, {0, 1, 1.0}, {0, 2, 1.0}, {1, 2, 1.0}, {2, 2, 1.0}});
    EXPECT_THROW(SparseLu{b}, NumericalError);
}

TEST(SparseLu, NumericallySingularThrows) {
    const CscMatrix a = CscMatrix::from_entries(
        2, {{0, 0, 1.0}, {1, 0, 2.0}, {0, 1, 2.0}, {1, 1, 4.0}});
    EXPECT_THROW(SparseLu{a}, NumericalError);
}

TEST(SparseLu, RefactorReusesOrderingAndMatchesFreshFactorBitwise) {
    std::mt19937 rng(11);
    const CscMatrix a1 = random_matrix(60, 0.06, 10, rng);
    CscMatrix a2 = a1;
    std::uniform_real_distribution<double> u(0.5, 1.5);
    for (double& v : a2.values) v *= u(rng);

    SparseLu lu(a1);
    const std::vector<std::size_t> order1 = lu.order();
    lu.refactor(a2);
    const SparseLu fresh(a2);
    EXPECT_EQ(lu.order(), order1);
    EXPECT_EQ(lu.order(), fresh.order());
    EXPECT_EQ(lu.nnz(), fresh.nnz());
    EXPECT_EQ(lu.flops(), fresh.flops());
    const VectorD b = random_vector(a2.n, rng);
    const VectorD x = lu.solve(b);
    const VectorD xf = fresh.solve(b);
    EXPECT_EQ(std::memcmp(x.data(), xf.data(), x.size() * sizeof(double)), 0);

    // A different pattern is rejected.
    CscMatrix other = random_matrix(60, 0.06, 10, rng);
    EXPECT_THROW(lu.refactor(other), InvalidArgument);
}

TEST(SparseLu, InjectedLuPivotFiresExactlyOnce) {
    std::mt19937 rng(3);
    const CscMatrix a = random_matrix(20, 0.2, 3, rng);
    robust::FaultInjector::arm("lu.pivot", 2);
    SparseLu lu(a); // 1st numeric factor: not armed yet
    try {
        lu.refactor(a);
        FAIL() << "expected injected pivot failure";
    } catch (const NumericalError& e) {
        EXPECT_NE(std::string(e.what()).find("lu.pivot"), std::string::npos);
    }
    // The failed factor is not solved through.
    EXPECT_THROW(lu.solve(VectorD(a.n, 1.0)), InvalidArgument);
    lu.refactor(a); // 3rd: count exhausted
    const std::uint64_t fired = robust::FaultInjector::fire_count("lu.pivot");
    robust::FaultInjector::disarm_all();
    EXPECT_EQ(fired, 1u);
    const VectorD b = random_vector(a.n, rng);
    EXPECT_LE(relative_residual(a, lu.solve(b), b), 1e-12);
}

namespace {

// Exact κ₁(A) = ‖A‖₁·‖A⁻¹‖₁ through the dense inverse.
double exact_kappa1(const MatrixD& a) {
    const auto norm1 = [](const MatrixD& m) {
        double best = 0;
        for (std::size_t j = 0; j < m.cols(); ++j) {
            double s = 0;
            for (std::size_t i = 0; i < m.rows(); ++i) s += std::abs(m(i, j));
            best = std::max(best, s);
        }
        return best;
    };
    return norm1(a) * norm1(Lu<double>(a).inverse());
}

} // namespace

// Hager's estimate is a lower bound on κ₁, usually within a small factor.
TEST(SparseLu, ConditionEstimateTracksDenseLu) {
    std::mt19937 rng(5);
    for (const std::size_t n : {5u, 40u, 120u}) {
        CscMatrix a = random_matrix(n, 3.0 / n, n / 4, rng);
        // Spread the column scales over six decades.
        for (std::size_t j = 0; j < n; ++j)
            for (std::size_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p)
                a.values[p] *= std::pow(10.0, 6.0 * static_cast<double>(j) / n);
        const double ks = SparseLu(a).condition_estimate();
        const double kd = exact_kappa1(to_dense(a));
        EXPECT_LE(ks, kd * (1 + 1e-12)) << "n = " << n;
        EXPECT_GT(ks, kd / 10) << "n = " << n;
    }
    const Netlist nl = test::supply_chain_netlist();
    const CscMatrix m = transient_mna(nl, 1.0 / 10e-12, 0.65e-9);
    const double ks = SparseLu(m).condition_estimate();
    const double kd = exact_kappa1(to_dense(m));
    EXPECT_LE(ks, kd * (1 + 1e-12));
    EXPECT_GT(ks, kd / 10);
}

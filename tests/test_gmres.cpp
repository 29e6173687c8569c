// Restarted block GMRES against dense LU on complex systems, with one and
// several right-hand side columns.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/error.hpp"
#include "common/robust.hpp"
#include "numeric/gmres.hpp"
#include "numeric/lu.hpp"
#include "obs/metrics.hpp"

using namespace pgsi;

namespace {

// Random diagonally dominant (hence well-conditioned) complex matrix.
MatrixC random_system(std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    MatrixC a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) a(i, j) = Complex(u(rng), u(rng));
        a(i, i) += Complex(2.0 * static_cast<double>(n), 0.5);
    }
    return a;
}

VectorC random_vec(std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    VectorC b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = Complex(u(rng), u(rng));
    return b;
}

LinearOpC matrix_op(const MatrixC& a) {
    return [&a](const VectorC& x, VectorC& y) {
        const std::size_t n = a.rows();
        y.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            Complex s{};
            for (std::size_t j = 0; j < n; ++j) s += a(i, j) * x[j];
            y[i] = s;
        }
    };
}

double max_abs_diff(const VectorC& a, const std::vector<Complex>& b) {
    double m = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

// A single right-hand side solved as a block of one column.
BlockGmresResult solve_one(const MatrixC& a, const VectorC& b, VectorC& x,
                           const GmresOptions& opt = {},
                           const LinearOpC& precond = nullptr) {
    std::vector<VectorC> xs{x};
    const BlockGmresResult res =
        block_gmres(matrix_op(a), {b}, xs, opt, precond);
    x = std::move(xs[0]);
    return res;
}

} // namespace

TEST(Gmres, MatchesLuOnWellConditionedSystems) {
    for (const std::size_t n : {5u, 20u, 60u}) {
        const MatrixC a = random_system(n, 11u + static_cast<unsigned>(n));
        const VectorC b = random_vec(n, 5u + static_cast<unsigned>(n));
        const std::vector<Complex> ref = Lu<Complex>(a).solve(b);

        VectorC x(n, Complex{});
        GmresOptions opt;
        opt.tol = 1e-12;
        const BlockGmresResult res = solve_one(a, b, x, opt);
        EXPECT_TRUE(res.converged);
        EXPECT_LE(res.worst_residual, opt.tol);
        EXPECT_LT(max_abs_diff(x, ref), 1e-10);
    }
}

TEST(Gmres, RestartCyclesStillConverge) {
    const std::size_t n = 40;
    const MatrixC a = random_system(n, 3u);
    const VectorC b = random_vec(n, 4u);
    const std::vector<Complex> ref = Lu<Complex>(a).solve(b);

    VectorC x(n, Complex{});
    GmresOptions opt;
    opt.restart = 5; // force many cycles
    opt.tol = 1e-11;
    const BlockGmresResult res = solve_one(a, b, x, opt);
    EXPECT_TRUE(res.converged);
    EXPECT_GE(res.cycles, 2u);
    EXPECT_LT(max_abs_diff(x, ref), 1e-9);
}

TEST(Gmres, DiagonalPreconditionerReducesIterations) {
    // Strongly scaled diagonal: unpreconditioned GMRES needs many more
    // iterations than Jacobi-preconditioned GMRES.
    const std::size_t n = 50;
    MatrixC a = random_system(n, 9u);
    for (std::size_t i = 0; i < n; ++i) {
        const double s = 1.0 + 1e3 * static_cast<double>(i) / n;
        for (std::size_t j = 0; j < n; ++j) a(i, j) *= s;
    }
    const VectorC b = random_vec(n, 10u);
    const std::vector<Complex> ref = Lu<Complex>(a).solve(b);

    VectorC dinv(n);
    for (std::size_t i = 0; i < n; ++i) dinv[i] = 1.0 / a(i, i);
    const LinearOpC jacobi = [&dinv](const VectorC& x, VectorC& y) {
        y.resize(x.size());
        for (std::size_t i = 0; i < x.size(); ++i) y[i] = dinv[i] * x[i];
    };

    GmresOptions opt;
    opt.tol = 1e-11;
    VectorC xp(n, Complex{}), xu(n, Complex{});
    const BlockGmresResult plain = solve_one(a, b, xu, opt);
    const BlockGmresResult prec = solve_one(a, b, xp, opt, jacobi);
    EXPECT_TRUE(prec.converged);
    EXPECT_LT(max_abs_diff(xp, ref), 1e-9);
    if (plain.converged) {
        EXPECT_LE(prec.iterations, plain.iterations);
    }
}

TEST(Gmres, WarmStartFromExactSolutionTakesNoIterations) {
    const std::size_t n = 12;
    const MatrixC a = random_system(n, 21u);
    const VectorC b = random_vec(n, 22u);
    const std::vector<Complex> ref = Lu<Complex>(a).solve(b);

    VectorC x(ref.begin(), ref.end());
    const BlockGmresResult res = solve_one(a, b, x);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, 0u);
    // One operator application establishes the warm guess is already exact.
    EXPECT_EQ(res.matvecs, 1u);
}

TEST(Gmres, ZeroRhsReturnsZero) {
    const MatrixC a = random_system(6, 2u);
    const VectorC b(6, Complex{});
    VectorC x = random_vec(6, 1u); // nonzero initial guess must be discarded
    const BlockGmresResult res = solve_one(a, b, x);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.matvecs, 0u);
    for (const Complex& v : x) EXPECT_EQ(v, Complex{});
}

TEST(Gmres, ZeroInitialGuessSkipsInitialResidualMatvec) {
    // With x0 == 0 the initial residual is b and the relative residual is
    // exactly 1 — no operator application is needed to start. Every matvec
    // is then accounted for by Arnoldi steps plus one true-residual
    // recomputation per cycle (an estimate retry ends its cycle there).
    const std::size_t n = 24;
    const MatrixC a = random_system(n, 41u);
    const VectorC b = random_vec(n, 42u);

    VectorC x(n, Complex{});
    GmresOptions opt;
    opt.tol = 1e-12;
    const BlockGmresResult cold = solve_one(a, b, x, opt);
    EXPECT_TRUE(cold.converged);
    EXPECT_EQ(cold.matvecs, cold.iterations + cold.cycles);

    // A nonzero (inexact) warm start pays exactly one extra matvec for the
    // initial true residual.
    VectorC xw(n, Complex(0.1, 0.0));
    const BlockGmresResult warm = solve_one(a, b, xw, opt);
    EXPECT_TRUE(warm.converged);
    EXPECT_EQ(warm.matvecs, warm.iterations + warm.cycles + 1);
}

TEST(Gmres, IterationBudgetExhaustionReportsNotConverged) {
    const std::size_t n = 30;
    const MatrixC a = random_system(n, 33u);
    const VectorC b = random_vec(n, 34u);
    VectorC x(n, Complex{});
    GmresOptions opt;
    opt.restart = 2;
    opt.max_iterations = 2;
    opt.tol = 1e-14;
    const BlockGmresResult res = solve_one(a, b, x, opt);
    EXPECT_FALSE(res.converged);
    EXPECT_GT(res.worst_residual, opt.tol);
}

TEST(Gmres, RejectsInvalidArguments) {
    const MatrixC a = random_system(4, 1u);
    const VectorC b = random_vec(4, 2u);
    VectorC x(3, Complex{});
    EXPECT_THROW(solve_one(a, b, x), InvalidArgument);
    x.assign(4, Complex{});
    GmresOptions opt;
    opt.restart = 0;
    EXPECT_THROW(solve_one(a, b, x, opt), InvalidArgument);
}

TEST(Gmres, IllConditionedOperatorTriggersEstimateRetryAndStillConverges) {
    // Geometrically graded diagonal spanning 8 decades with weak random
    // coupling: round-off in the Arnoldi recurrence makes the Givens
    // residual estimate claim convergence before the true residual agrees.
    // The solver must detect the disagreement, keep iterating within its
    // budget, and converge for real — not return an optimistic result.
    const std::size_t n = 60;
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    MatrixC a(n, n);
    const double span = 1e8;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = std::pow(span, -double(i) / double(n - 1));
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = Complex(u(rng), u(rng)) * 1e-3 * d;
        a(i, i) += Complex(d, 0.0);
    }
    VectorC b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = Complex(u(rng), u(rng));

    GmresOptions opt;
    opt.restart = 80;
    opt.max_iterations = 400;
    opt.tol = 1e-9;
    VectorC x(n, Complex{});
    const BlockGmresResult res = solve_one(a, b, x, opt);

    EXPECT_TRUE(res.converged);
    EXPECT_GE(res.estimate_retries, 1u);
    EXPECT_LE(res.worst_residual, opt.tol);

    // Independently recompute |b - A x| / |b|: the reported residual must be
    // the true one.
    VectorC ax(n);
    matrix_op(a)(x, ax);
    double num = 0, den = 0;
    for (std::size_t i = 0; i < n; ++i) {
        num += std::norm(b[i] - ax[i]);
        den += std::norm(b[i]);
    }
    EXPECT_LE(std::sqrt(num / den), opt.tol * 1.01);
}

namespace {

// Correlated right-hand sides: a shared base vector plus small per-column
// perturbations, the shape warm-started sweep residuals take in practice.
std::vector<VectorC> correlated_rhs(std::size_t n, std::size_t p,
                                    unsigned seed, double spread) {
    const VectorC base = random_vec(n, seed);
    std::vector<VectorC> b(p, base);
    for (std::size_t i = 1; i < p; ++i) {
        const VectorC d = random_vec(n, seed + 100u * static_cast<unsigned>(i));
        for (std::size_t t = 0; t < n; ++t) b[i][t] += spread * d[t];
    }
    return b;
}

} // namespace

TEST(BlockGmres, MatchesColumnByColumnSolvesAndLu) {
    const std::size_t n = 40, p = 4;
    const MatrixC a = random_system(n, 51u);
    const std::vector<VectorC> b = correlated_rhs(n, p, 52u, 1e-6);

    GmresOptions opt;
    opt.tol = 1e-12;
    std::vector<VectorC> x(p, VectorC(n, Complex{}));
    const BlockGmresResult blk = block_gmres(matrix_op(a), b, x, opt);
    EXPECT_TRUE(blk.converged);
    ASSERT_EQ(blk.residuals.size(), p);

    const Lu<Complex> lu(a);
    std::size_t column_matvecs = 0;
    for (std::size_t i = 0; i < p; ++i) {
        EXPECT_LE(blk.residuals[i], opt.tol);
        EXPECT_LT(max_abs_diff(x[i], lu.solve(b[i])), 1e-10);

        VectorC xc(n, Complex{});
        const BlockGmresResult col = solve_one(a, b[i], xc, opt);
        EXPECT_TRUE(col.converged);
        EXPECT_LT(max_abs_diff(xc, lu.solve(b[i])), 1e-10);
        column_matvecs += col.matvecs;
    }
    EXPECT_EQ(blk.worst_residual,
              *std::max_element(blk.residuals.begin(), blk.residuals.end()));
    // Correlated columns share the Arnoldi work: the block solve must beat
    // solving each column on its own.
    EXPECT_LT(blk.matvecs, column_matvecs);
}

TEST(BlockGmres, DeflatesEasyColumnsBeforeTheLastCycle) {
    // Force several seed cycles with a small restart window; the correlated
    // columns converge at different points, so at least one retires early.
    const std::size_t n = 40, p = 3;
    const MatrixC a = random_system(n, 61u);
    const std::vector<VectorC> b = correlated_rhs(n, p, 62u, 1e-5);

    GmresOptions opt;
    opt.restart = 8;
    opt.tol = 1e-11;
    std::vector<VectorC> x(p, VectorC(n, Complex{}));
    const BlockGmresResult res = block_gmres(matrix_op(a), b, x, opt);
    EXPECT_TRUE(res.converged);
    EXPECT_GE(res.cycles, 2u);
    EXPECT_GE(res.deflated, 1u);
}

TEST(BlockGmres, ZeroRhsColumnReturnsZeroWithoutWork) {
    const std::size_t n = 20;
    const MatrixC a = random_system(n, 71u);
    std::vector<VectorC> b{random_vec(n, 72u), VectorC(n, Complex{})};
    std::vector<VectorC> x{VectorC(n, Complex{}), random_vec(n, 73u)};
    const BlockGmresResult res = block_gmres(matrix_op(a), b, x, {});
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.residuals[1], 0.0);
    for (const Complex& v : x[1]) EXPECT_EQ(v, Complex{});
    EXPECT_LT(max_abs_diff(x[0], Lu<Complex>(a).solve(b[0])), 1e-9);
}

TEST(BlockGmres, InjectedStallReportsFailureWithoutTouchingX) {
    const std::size_t n = 12, p = 2;
    const MatrixC a = random_system(n, 81u);
    const std::vector<VectorC> b = correlated_rhs(n, p, 82u, 0.1);
    std::vector<VectorC> x(p, VectorC(n, Complex(0.25, -0.5)));
    const std::vector<VectorC> x_before = x;

    robust::FaultInjector::arm("gmres.stall", 1);
    const BlockGmresResult res = block_gmres(matrix_op(a), b, x, {});
    robust::FaultInjector::disarm_all();

    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.worst_residual, 1.0);
    EXPECT_EQ(res.iterations, 0u);
    EXPECT_EQ(res.matvecs, 0u);
    for (std::size_t i = 0; i < p; ++i)
        for (std::size_t t = 0; t < n; ++t)
            EXPECT_EQ(x[i][t], x_before[i][t]);
}

TEST(BlockGmres, RejectsInvalidArguments) {
    const MatrixC a = random_system(4, 91u);
    std::vector<VectorC> b{random_vec(4, 92u), random_vec(4, 93u)};
    std::vector<VectorC> x(2, VectorC(4, Complex{}));
    EXPECT_THROW(block_gmres(matrix_op(a), {}, x, {}), InvalidArgument);

    std::vector<VectorC> x_short(1, VectorC(4, Complex{}));
    EXPECT_THROW(block_gmres(matrix_op(a), b, x_short, {}), InvalidArgument);

    std::vector<VectorC> b_ragged{random_vec(4, 92u), random_vec(3, 93u)};
    EXPECT_THROW(block_gmres(matrix_op(a), b_ragged, x, {}), InvalidArgument);

    GmresOptions opt;
    opt.restart = 0;
    EXPECT_THROW(block_gmres(matrix_op(a), b, x, opt), InvalidArgument);
}

TEST(GmresCounters, IterationsImplySolves) {
    // The obs counters must agree with each other for one and several
    // columns: Arnoldi iterations without a counted solve would leave a
    // report with "0 solves" beside thousands of iterations.
    obs::Counter& solves = obs::counter("gmres.solves");
    obs::Counter& iters = obs::counter("gmres.iterations");
    const std::size_t n = 30, p = 3;
    const MatrixC a = random_system(n, 101u);

    const std::uint64_t s0 = solves.value(), i0 = iters.value();
    VectorC x(n, Complex{});
    solve_one(a, random_vec(n, 102u), x);
    EXPECT_GT(iters.value(), i0);
    EXPECT_EQ(solves.value(), s0 + 1);

    const std::uint64_t s1 = solves.value(), i1 = iters.value();
    std::vector<VectorC> xb(p, VectorC(n, Complex{}));
    block_gmres(matrix_op(a), correlated_rhs(n, p, 103u, 0.1), xb, {});
    EXPECT_GT(iters.value(), i1);
    EXPECT_EQ(solves.value(), s1 + p); // one solve per right-hand side column
}

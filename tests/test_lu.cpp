// Unit + property tests for LU factorization (real and complex).
#include <gtest/gtest.h>

#include <random>

#include "numeric/lu.hpp"
#include "tests/test_util.hpp"

using namespace pgsi;
using pgsi::test::digest;
using pgsi::test::same_bits;

TEST(Lu, Solve2x2) {
    const MatrixD a{{2, 1}, {1, 3}};
    const VectorD x = Lu<double>(a).solve(VectorD{5, 10});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, SingularThrows) {
    const MatrixD a{{1, 2}, {2, 4}};
    EXPECT_THROW((Lu<double>{a}), NumericalError);
}

TEST(Lu, Determinant) {
    const MatrixD a{{2, 0, 0}, {0, 3, 0}, {0, 0, 4}};
    EXPECT_NEAR(Lu<double>(a).determinant(), 24.0, 1e-12);
    // Permutation sign.
    const MatrixD p{{0, 1}, {1, 0}};
    EXPECT_NEAR(Lu<double>(p).determinant(), -1.0, 1e-12);
}

TEST(Lu, Inverse) {
    const MatrixD a{{4, 7}, {2, 6}};
    const MatrixD inv = Lu<double>(a).inverse();
    const MatrixD prod = a * inv;
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j)
            EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-12);
}

TEST(Lu, ComplexSolve) {
    MatrixC a(2, 2);
    a(0, 0) = Complex(1, 1);
    a(0, 1) = Complex(0, 2);
    a(1, 0) = Complex(2, 0);
    a(1, 1) = Complex(1, -1);
    const VectorC b{Complex(1, 0), Complex(0, 1)};
    const VectorC x = Lu<Complex>(a).solve(b);
    // Residual check.
    const VectorC r = a * x;
    EXPECT_NEAR(std::abs(r[0] - b[0]), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(r[1] - b[1]), 0.0, 1e-12);
}

TEST(Lu, MultiRhs) {
    const MatrixD a{{3, 1}, {1, 2}};
    const MatrixD x = Lu<double>(a).solve(MatrixD::identity(2));
    const MatrixD prod = a * x;
    EXPECT_NEAR(prod(0, 0), 1.0, 1e-12);
    EXPECT_NEAR(prod(0, 1), 0.0, 1e-12);
}

// Property sweep: random diagonally dominant systems solve to tiny residual.
class LuResidual : public ::testing::TestWithParam<int> {};

TEST_P(LuResidual, RandomSystemResidual) {
    const int n = GetParam();
    std::mt19937 rng(42 + n);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    MatrixD a(n, n);
    VectorD b(n);
    for (int i = 0; i < n; ++i) {
        b[i] = u(rng);
        for (int j = 0; j < n; ++j) a(i, j) = u(rng);
        a(i, i) += n; // ensure well-conditioned
    }
    const VectorD x = Lu<double>(a).solve(b);
    VectorD r = a * x;
    for (int i = 0; i < n; ++i) r[i] -= b[i];
    EXPECT_LT(norm2(r), 1e-10 * (1.0 + norm2(b)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuResidual,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// --- Blocked factorization / multi-RHS paths --------------------------------

#include "common/parallel.hpp"
#include "obs/metrics.hpp"

namespace {

// Well-conditioned random system large enough to cross the 64-column
// factorization block and exercise the GEMM trailing updates.
MatrixD random_spd_ish(int n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    MatrixD a(n, n);
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) a(i, j) = u(rng);
        a(i, i) += n;
    }
    return a;
}

} // namespace

TEST(Lu, BlockedResidualAcrossBlockBoundary) {
    for (const int n : {150, 193}) {
        const MatrixD a = random_spd_ish(n, 100 + n);
        std::mt19937 rng(7);
        std::uniform_real_distribution<double> u(-1.0, 1.0);
        VectorD b(n);
        for (int i = 0; i < n; ++i) b[i] = u(rng);
        const VectorD x = Lu<double>(a).solve(b);
        VectorD r = a * x;
        for (int i = 0; i < n; ++i) r[i] -= b[i];
        EXPECT_LT(norm2(r), 1e-10 * (1.0 + norm2(b))) << "n=" << n;
    }
}

TEST(Lu, MatrixSolveMatchesColumnwiseVectorSolves) {
    const int n = 97, k = 13;
    const MatrixD a = random_spd_ish(n, 11);
    std::mt19937 rng(12);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    MatrixD b(n, k);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < k; ++j) b(i, j) = u(rng);
    const Lu<double> lu(a);
    const MatrixD x = lu.solve(b);
    for (int j = 0; j < k; ++j) {
        VectorD col(n);
        for (int i = 0; i < n; ++i) col[i] = b(i, j);
        const VectorD xj = lu.solve(col);
        for (int i = 0; i < n; ++i)
            EXPECT_NEAR(x(i, j), xj[i], 1e-11) << "col=" << j;
    }
}

TEST(Lu, MultiRhsResidualWideBlock) {
    // nrhs = 200 crosses the 64-column substitution block.
    const int n = 120, k = 200;
    const MatrixD a = random_spd_ish(n, 21);
    std::mt19937 rng(22);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    MatrixD b(n, k);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < k; ++j) b(i, j) = u(rng);
    const MatrixD x = Lu<double>(a).solve(b);
    const MatrixD r = a * x;
    double worst = 0;
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < k; ++j)
            worst = std::max(worst, std::abs(r(i, j) - b(i, j)));
    EXPECT_LT(worst, 1e-9);
}

TEST(Lu, SolveBitIdenticalAcrossThreadCounts) {
    const int n = 160, k = 40;
    const MatrixD a = random_spd_ish(n, 31);
    std::mt19937 rng(32);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    MatrixD b(n, k);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < k; ++j) b(i, j) = u(rng);
    pgsi::test::ScopedThreadCount pin(1);
    const MatrixD x1 = Lu<double>(a).solve(b);
    for (const std::size_t threads : {2u, 8u}) {
        pin.repin(threads);
        const MatrixD xn = Lu<double>(a).solve(b);
        double d = 0;
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < k; ++j)
                d = std::max(d, std::abs(x1(i, j) - xn(i, j)));
        EXPECT_EQ(d, 0.0) << "threads=" << threads;
    }
}

TEST(Lu, SolveCountersDistinguishCallsFromColumns) {
    obs::reset_metrics();
    const MatrixD a = random_spd_ish(50, 41);
    const Lu<double> lu(a);
    lu.solve(VectorD(50));
    EXPECT_EQ(obs::counter("lu.solves").value(), 1u);
    EXPECT_EQ(obs::counter("lu.rhs_cols").value(), 1u);
    lu.solve(MatrixD(50, 9));
    EXPECT_EQ(obs::counter("lu.solves").value(), 2u);
    EXPECT_EQ(obs::counter("lu.rhs_cols").value(), 10u);
}

// --- Complex multiply-add kernel --------------------------------------------

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "numeric/gemm.hpp"

namespace {

// Finite doubles drawn across the awkward corners of the format: signed
// zeros, subnormals, magnitudes whose products overflow or underflow, and
// ordinary values.
std::vector<double> awkward_values(unsigned seed, std::size_t count) {
    const double sub = std::numeric_limits<double>::denorm_min();
    const double tiny = std::numeric_limits<double>::min();
    const std::vector<double> corners{0.0,       -0.0,       sub,    -sub,
                                      3 * sub,   tiny / 3,   -tiny,  1e-300,
                                      1e200,     -1e200,     1e154,  -1e154,
                                      1.7e308,   -1.7e308,   1.0,    -1.0};
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::uniform_int_distribution<int> pick(0, 3);
    std::uniform_int_distribution<std::size_t> corner(0, corners.size() - 1);
    std::uniform_int_distribution<int> expo(-320, 300);
    std::vector<double> v(count);
    for (double& x : v) {
        switch (pick(rng)) {
        case 0: x = corners[corner(rng)]; break;
        case 1: x = std::ldexp(u(rng), expo(rng)); break;
        default: x = u(rng); break;
        }
    }
    return v;
}

std::vector<Complex> awkward_complex(unsigned seed, std::size_t count) {
    const std::vector<double> v = awkward_values(seed, 2 * count);
    std::vector<Complex> z(count);
    for (std::size_t i = 0; i < count; ++i) z[i] = Complex(v[2 * i], v[2 * i + 1]);
    return z;
}

} // namespace

TEST(ComplexKernel, AxpyMatchesStdComplexBitForBit) {
    constexpr std::size_t n = 4096;
    const std::vector<Complex> x = awkward_complex(1, n);
    const std::vector<Complex> y0 = awkward_complex(2, n);
    const std::vector<Complex> as = awkward_complex(3, 64);
    for (const Complex& a : as) {
        std::vector<Complex> sub = y0, add = y0;
        detail::axpy<true>(a, x.data(), sub.data(), n);
        detail::axpy<false>(a, x.data(), add.data(), n);
        for (std::size_t j = 0; j < n; ++j) {
            Complex want_sub = y0[j], want_add = y0[j];
            want_sub -= a * x[j];
            want_add += a * x[j];
            ASSERT_TRUE(same_bits(sub[j], want_sub))
                << "a=" << a << " x=" << x[j] << " y=" << y0[j];
            ASSERT_TRUE(same_bits(add[j], want_add))
                << "a=" << a << " x=" << x[j] << " y=" << y0[j];
        }
    }
}

TEST(ComplexKernel, DotSubMatchesStdComplexBitForBit) {
    const std::vector<Complex> a = awkward_complex(4, 512);
    const std::vector<Complex> x = awkward_complex(5, 512);
    const std::vector<Complex> acc0 = awkward_complex(6, 32);
    for (const Complex& acc : acc0)
        for (const std::size_t n : {0u, 1u, 7u, 64u, 512u}) {
            Complex want = acc;
            for (std::size_t j = 0; j < n; ++j) want -= a[j] * x[j];
            ASSERT_TRUE(same_bits(detail::dot_sub(acc, a.data(), x.data(), n),
                                  want))
                << "n=" << n;
        }
}

TEST(ComplexKernel, DotcMatchesStdComplexBitForBit) {
    const std::vector<Complex> a = awkward_complex(7, 512);
    const std::vector<Complex> x = awkward_complex(8, 512);
    for (const std::size_t n : {0u, 1u, 7u, 64u, 512u}) {
        Complex want{};
        for (std::size_t j = 0; j < n; ++j) want += std::conj(a[j]) * x[j];
        ASSERT_TRUE(same_bits(detail::dotc(a.data(), x.data(), n), want))
            << "n=" << n;
    }
    // Sub-ranges start the accumulation anywhere in the awkward values.
    for (std::size_t off = 0; off < 64; ++off) {
        Complex want{};
        for (std::size_t j = off; j < off + 100; ++j)
            want += std::conj(a[j]) * x[j];
        ASSERT_TRUE(
            same_bits(detail::dotc(a.data() + off, x.data() + off, 100), want))
            << "off=" << off;
    }
}

namespace {

std::vector<Complex> entries(const MatrixC& m) {
    std::vector<Complex> v;
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j) v.push_back(m(i, j));
    return v;
}

MatrixC random_complex(std::size_t rows, std::size_t cols, unsigned seed,
                       double diag) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    MatrixC a(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j) a(i, j) = Complex(u(rng), u(rng));
    for (std::size_t i = 0; i < std::min(rows, cols); ++i)
        a(i, i) += Complex(diag, 0.5 * diag);
    return a;
}

} // namespace

// Digests of the complex LU and GEMM results recorded (%.17g) from the
// std::complex loops the multiply-add kernel replaced. The matrices cross
// the 64-wide factorization and substitution blocks. The determinant stands
// for the factor (it is the product of the pivots).
TEST(ComplexKernel, LuAndGemmReproduceRecordedDigests) {
    const std::size_t n = 150, nrhs = 70;
    const MatrixC a = random_complex(n, n, 11, 0.0);
    const MatrixC b = random_complex(n, nrhs, 12, 0.0);
    const Lu<Complex> lu(a);
    VectorC b0(n);
    for (std::size_t i = 0; i < n; ++i) b0[i] = b(i, 0);
    const VectorC x1 = lu.solve(b0);
    const MatrixC xk = lu.solve(b);

    const MatrixC ga = random_complex(90, 300, 13, 0.0);
    const MatrixC gb = random_complex(300, 80, 14, 0.0);
    MatrixC gc = random_complex(90, 80, 15, 0.0);
    detail::gemm_update(Complex(0.75, -0.25), ga.row(0), ga.cols(), gb.row(0),
                        gb.cols(), gc.row(0), gc.cols(), 90, 300, 80);

    const std::uint64_t got[] = {digest({lu.determinant()}), digest(x1),
                                 digest(entries(xk)), digest(entries(gc))};
    const std::uint64_t want[] = {0xd9028d590de36f73ull, 0xdc97e3c756cb414dull,
                                  0xcdcb9f974cd5e0b9ull, 0x42a78e331a9b4b01ull};
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(got[i], want[i]) << i << ": 0x" << std::hex << got[i];
}

// Unit tests for the dense matrix/vector layer.
#include <gtest/gtest.h>

#include "numeric/matrix.hpp"
#include "tests/test_util.hpp"

using namespace pgsi;

TEST(Matrix, ConstructAndIndex) {
    MatrixD m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    m(1, 2) = 4.5;
    EXPECT_DOUBLE_EQ(m(1, 2), 4.5);
    EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(Matrix, InitializerList) {
    const MatrixD m{{1, 2}, {3, 4}};
    EXPECT_DOUBLE_EQ(m(0, 1), 2);
    EXPECT_DOUBLE_EQ(m(1, 0), 3);
    EXPECT_THROW((MatrixD{{1, 2}, {3}}), InvalidArgument);
}

TEST(Matrix, Identity) {
    const MatrixD i = MatrixD::identity(3);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, AddSubScale) {
    const MatrixD a{{1, 2}, {3, 4}};
    const MatrixD b{{5, 6}, {7, 8}};
    const MatrixD s = a + b;
    EXPECT_DOUBLE_EQ(s(0, 0), 6);
    const MatrixD d = b - a;
    EXPECT_DOUBLE_EQ(d(1, 1), 4);
    const MatrixD sc = 2.0 * a;
    EXPECT_DOUBLE_EQ(sc(1, 0), 6);
}

TEST(Matrix, Product) {
    const MatrixD a{{1, 2}, {3, 4}};
    const MatrixD b{{5, 6}, {7, 8}};
    const MatrixD p = a * b;
    EXPECT_DOUBLE_EQ(p(0, 0), 19);
    EXPECT_DOUBLE_EQ(p(0, 1), 22);
    EXPECT_DOUBLE_EQ(p(1, 0), 43);
    EXPECT_DOUBLE_EQ(p(1, 1), 50);
}

TEST(Matrix, MatVec) {
    const MatrixD a{{1, 2}, {3, 4}};
    const VectorD x{1, 1};
    const VectorD y = a * x;
    EXPECT_DOUBLE_EQ(y[0], 3);
    EXPECT_DOUBLE_EQ(y[1], 7);
}

TEST(Matrix, Transpose) {
    const MatrixD a{{1, 2, 3}, {4, 5, 6}};
    const MatrixD t = a.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6);
}

TEST(Matrix, Submatrix) {
    const MatrixD a{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
    const MatrixD s = a.submatrix({0, 2}, {1, 2});
    EXPECT_EQ(s.rows(), 2u);
    EXPECT_DOUBLE_EQ(s(0, 0), 2);
    EXPECT_DOUBLE_EQ(s(1, 1), 9);
}

TEST(Matrix, Asymmetry) {
    MatrixD a{{1, 2}, {2, 1}};
    EXPECT_DOUBLE_EQ(a.asymmetry(), 0.0);
    a(0, 1) = 2.5;
    EXPECT_NEAR(a.asymmetry(), 0.5, 1e-15);
}

TEST(Matrix, ComplexOps) {
    MatrixC m(2, 2);
    m(0, 0) = Complex(1, 1);
    m(1, 1) = Complex(0, -2);
    const MatrixD re = real_part(m);
    const MatrixD im = imag_part(m);
    EXPECT_DOUBLE_EQ(re(0, 0), 1);
    EXPECT_DOUBLE_EQ(im(1, 1), -2);
    const MatrixC back = to_complex(re);
    EXPECT_DOUBLE_EQ(back(0, 0).real(), 1);
    EXPECT_DOUBLE_EQ(back(0, 0).imag(), 0);
}

TEST(Vector, Norms) {
    const VectorD v{3, 4};
    EXPECT_DOUBLE_EQ(norm2(v), 5.0);
    EXPECT_DOUBLE_EQ(max_abs(v), 4.0);
    EXPECT_DOUBLE_EQ(dot(v, v), 25.0);
}

TEST(Vector, Axpy) {
    VectorD y{1, 1};
    axpy(2.0, {1, 2}, y);
    EXPECT_DOUBLE_EQ(y[0], 3);
    EXPECT_DOUBLE_EQ(y[1], 5);
}

TEST(Matrix, ShapeMismatchThrows) {
    MatrixD a(2, 2), b(3, 3);
    EXPECT_THROW(a += b, InvalidArgument);
    EXPECT_THROW((void)(a * VectorD{1, 2, 3}), InvalidArgument);
}

// --- Blocked parallel GEMM (numeric/gemm.hpp) -------------------------------

#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "common/parallel.hpp"
#include "numeric/gemm.hpp"

namespace {

MatrixD random_matrix(std::size_t rows, std::size_t cols, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    MatrixD m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j) m(i, j) = u(rng);
    return m;
}

MatrixC random_complex(std::size_t rows, std::size_t cols, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    MatrixC m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j) m(i, j) = Complex(u(rng), u(rng));
    return m;
}

// Scalar triple-loop reference the blocked kernel must agree with.
template <class T>
Matrix<T> naive_product(const Matrix<T>& a, const Matrix<T>& b) {
    Matrix<T> c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t k = 0; k < a.cols(); ++k)
            for (std::size_t j = 0; j < b.cols(); ++j)
                c(i, j) += a(i, k) * b(k, j);
    return c;
}

} // namespace

TEST(Gemm, BlockedMatchesNaiveRealRaggedShapes) {
    const MatrixD a = random_matrix(37, 53, 1);
    const MatrixD b = random_matrix(53, 41, 2);
    const MatrixD c = a * b;
    const MatrixD ref = naive_product(a, b);
    for (std::size_t i = 0; i < c.rows(); ++i)
        for (std::size_t j = 0; j < c.cols(); ++j)
            EXPECT_NEAR(c(i, j), ref(i, j), 1e-12);
}

TEST(Gemm, BlockedMatchesNaiveAcrossPanelBoundary) {
    // k = 300 crosses the 256-row packing panel.
    const MatrixD a = random_matrix(65, 300, 3);
    const MatrixD b = random_matrix(300, 67, 4);
    const MatrixD c = a * b;
    const MatrixD ref = naive_product(a, b);
    for (std::size_t i = 0; i < c.rows(); ++i)
        for (std::size_t j = 0; j < c.cols(); ++j)
            EXPECT_NEAR(c(i, j), ref(i, j), 1e-11);
}

TEST(Gemm, BlockedMatchesNaiveComplex) {
    const MatrixC a = random_complex(29, 31, 5);
    const MatrixC b = random_complex(31, 23, 6);
    const MatrixC c = a * b;
    const MatrixC ref = naive_product(a, b);
    for (std::size_t i = 0; i < c.rows(); ++i)
        for (std::size_t j = 0; j < c.cols(); ++j)
            EXPECT_NEAR(std::abs(c(i, j) - ref(i, j)), 0.0, 1e-12);
}

TEST(Gemm, ProductBitIdenticalAcrossThreadCounts) {
    const MatrixD a = random_matrix(120, 90, 7);
    const MatrixD b = random_matrix(90, 110, 8);
    pgsi::test::ScopedThreadCount pin(1);
    const MatrixD c1 = a * b;
    for (const std::size_t threads : {2u, 8u}) {
        pin.repin(threads);
        const MatrixD cn = a * b;
        double d = 0;
        for (std::size_t i = 0; i < c1.rows(); ++i)
            for (std::size_t j = 0; j < c1.cols(); ++j)
                d = std::max(d, std::abs(c1(i, j) - cn(i, j)));
        EXPECT_EQ(d, 0.0) << "threads=" << threads;
    }
}

namespace {

// C += alpha·A·B on submatrix views: every operand sits at an offset inside
// a wider allocation, so lda/ldb/ldc exceed the shape. Every fifth entry of
// A is zero (the sparse-operand skip), and one A row is entirely zero.
MatrixD strided_update(std::size_t m, std::size_t k, std::size_t n, double alpha,
                       unsigned seed) {
    MatrixD a = random_matrix(m + 2, k + 3, seed);
    const MatrixD b = random_matrix(k + 1, n + 5, seed + 1);
    MatrixD c = random_matrix(m + 1, n + 2, seed + 2);
    for (std::size_t i = 0; i < m + 2; ++i)
        for (std::size_t p = 0; p < k + 3; ++p)
            if ((i * 7 + p) % 5 == 0 || i == m / 2) a(i, p) = 0.0;
    detail::gemm_update(alpha, a.row(1) + 2, a.cols(), b.row(1) + 3, b.cols(),
                        c.row(1) + 1, c.cols(), m, k, n);
    return c;
}

} // namespace

// Digests (%.17g, see test_util.hpp) of the real rank-k update, recorded
// from the row-by-row axpy kernel: ragged shapes on both sides of any
// 4-wide tile, and k crossing the 256-row packing panel once and twice.
TEST(Gemm, RealUpdateReproducesRecordedDigests) {
    struct Shape {
        std::size_t m, k, n;
        double alpha;
    };
    const Shape shapes[] = {{1, 1, 1, 1.0},      {3, 5, 7, -1.0},
                            {4, 4, 4, 0.75},     {37, 53, 41, -1.0},
                            {53, 585, 53, 1.0},  {65, 300, 67, -0.5},
                            {17, 513, 9, -1.0},  {130, 64, 53, -1.0}};
    const std::uint64_t want[] = {
        0xb7a605f8724a61baull, 0xdab7815cc9349440ull, 0x1dbb3d96e101a708ull,
        0xaa179edd1bb3f1bdull, 0xe369a3c8f14bec83ull, 0xe248b450db711f8aull,
        0x49da3e8eee4b417full, 0x8daeb2b56a3a360cull};
    for (std::size_t s = 0; s < 8; ++s) {
        const Shape& sh = shapes[s];
        const std::uint64_t got = pgsi::test::digest(
            strided_update(sh.m, sh.k, sh.n, sh.alpha, 90 + static_cast<unsigned>(s)));
        EXPECT_EQ(got, want[s]) << sh.m << "x" << sh.k << "x" << sh.n << ": 0x"
                                << std::hex << got;
    }
}

// The sparse-operand contract of the real update: a zero alpha·A(i,p) skips
// row p of B for row i of C, so an Inf or NaN there never reaches C and a
// −0.0 in C is never rewritten to +0.0 by an added zero product.
TEST(Gemm, ZeroEntriesOfASkipNonFiniteRowsOfB) {
    const auto bits = [](double x) {
        std::uint64_t u;
        std::memcpy(&u, &x, sizeof u);
        return u;
    };
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double alpha = 0.5;
    for (const std::size_t m : {1u, 6u, 13u})
        for (const std::size_t n : {1u, 7u, 16u}) {
            const std::size_t k = 300; // two packing panels
            MatrixD a = random_matrix(m, k, 21);
            MatrixD b = random_matrix(k, n, 22);
            MatrixD c = random_matrix(m, n, 23);
            for (std::size_t i = 0; i < m; ++i) {
                a(i, 3) = 0.0;    // B row 3: ±Inf
                a(i, 270) = -0.0; // B row 270: NaN
                // alpha·A(i, 100) rounds to +0: B row 100 (Inf) is skipped.
                a(i, 100) = std::numeric_limits<double>::denorm_min();
                c(i, 0) = -0.0;
            }
            for (std::size_t p = 0; p < k; ++p) a(m - 1, p) = 0.0;
            for (std::size_t j = 0; j < n; ++j) {
                b(3, j) = j % 2 ? -inf : inf;
                b(100, j) = inf;
                b(270, j) = nan;
            }
            MatrixD want = c;
            for (std::size_t i = 0; i < m; ++i)
                for (std::size_t p = 0; p < k; ++p) {
                    const double aik = alpha * a(i, p);
                    if (aik == 0) continue;
                    for (std::size_t j = 0; j < n; ++j) want(i, j) += aik * b(p, j);
                }
            const MatrixD c0 = c;
            detail::gemm_update(alpha, a.row(0), k, b.row(0), n, c.row(0), n, m,
                                k, n);
            for (std::size_t i = 0; i < m; ++i)
                for (std::size_t j = 0; j < n; ++j) {
                    EXPECT_TRUE(std::isfinite(c(i, j))) << i << "," << j;
                    EXPECT_EQ(bits(c(i, j)), bits(want(i, j))) << i << "," << j;
                }
            // The all-zero row of A leaves its row of C untouched, −0.0 too.
            for (std::size_t j = 0; j < n; ++j)
                EXPECT_EQ(bits(c(m - 1, j)), bits(c0(m - 1, j))) << j;
            EXPECT_EQ(bits(c(m - 1, 0)), bits(-0.0));
        }
}

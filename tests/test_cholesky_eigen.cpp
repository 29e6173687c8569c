// Tests for Cholesky factorization and the Jacobi symmetric eigensolver.
#include <gtest/gtest.h>

#include <random>

#include "numeric/cholesky.hpp"
#include "numeric/eigen.hpp"
#include "numeric/lu.hpp"
#include "tests/test_util.hpp"

using namespace pgsi;

namespace {

MatrixD random_spd(int n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    MatrixD b(n, n);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j) b(i, j) = u(rng);
    MatrixD a = b * b.transposed();
    for (int i = 0; i < n; ++i) a(i, i) += 0.5;
    return a;
}

} // namespace

TEST(Cholesky, SolveMatchesLu) {
    const MatrixD a = random_spd(6, 7);
    VectorD b(6);
    for (int i = 0; i < 6; ++i) b[i] = i + 1;
    const VectorD xc = Cholesky(a).solve(b);
    const VectorD xl = Lu<double>(a).solve(b);
    for (int i = 0; i < 6; ++i) EXPECT_NEAR(xc[i], xl[i], 1e-10);
}

TEST(Cholesky, RejectsIndefinite) {
    const MatrixD a{{1, 2}, {2, 1}}; // eigenvalues 3, -1
    EXPECT_THROW((Cholesky{a}), NumericalError);
    EXPECT_FALSE(is_spd(a));
    EXPECT_TRUE(is_spd(random_spd(4, 3)));
}

TEST(Cholesky, FactorReconstructs) {
    const MatrixD a = random_spd(5, 11);
    const MatrixD g = Cholesky(a).factor();
    const MatrixD r = g * g.transposed();
    for (int i = 0; i < 5; ++i)
        for (int j = 0; j < 5; ++j) EXPECT_NEAR(r(i, j), a(i, j), 1e-10);
}

TEST(EigenSymmetric, Diagonal) {
    const MatrixD a{{3, 0}, {0, 1}};
    const SymmetricEigen e = eigen_symmetric(a);
    EXPECT_NEAR(e.values[0], 1.0, 1e-12);
    EXPECT_NEAR(e.values[1], 3.0, 1e-12);
}

TEST(EigenSymmetric, Known2x2) {
    const MatrixD a{{2, 1}, {1, 2}};
    const SymmetricEigen e = eigen_symmetric(a);
    EXPECT_NEAR(e.values[0], 1.0, 1e-10);
    EXPECT_NEAR(e.values[1], 3.0, 1e-10);
}

TEST(EigenSymmetric, RejectsAsymmetric) {
    const MatrixD a{{1, 2}, {0, 1}};
    EXPECT_THROW(eigen_symmetric(a), InvalidArgument);
}

class EigenProperty : public ::testing::TestWithParam<int> {};

TEST_P(EigenProperty, ReconstructsMatrix) {
    const int n = GetParam();
    const MatrixD a = random_spd(n, 100 + n);
    const SymmetricEigen e = eigen_symmetric(a);
    // A = V diag(w) V^T
    MatrixD d(n, n);
    for (int i = 0; i < n; ++i) d(i, i) = e.values[i];
    const MatrixD r = e.vectors * d * e.vectors.transposed();
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j) EXPECT_NEAR(r(i, j), a(i, j), 1e-8);
    // Eigenvalues of an SPD matrix are positive and sorted.
    for (int i = 0; i < n; ++i) EXPECT_GT(e.values[i], 0.0);
    for (int i = 1; i < n; ++i) EXPECT_LE(e.values[i - 1], e.values[i]);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenProperty, ::testing::Values(2, 3, 4, 6, 10, 16));

TEST(EigenSpdProduct, DiagonalizesLC) {
    const MatrixD l = random_spd(3, 21);
    const MatrixD c = random_spd(3, 22);
    const ProductEigen pe = eigen_spd_product(l, c);
    // (L C) t_k = w_k t_k for each column.
    const MatrixD lc = l * c;
    for (int k = 0; k < 3; ++k) {
        VectorD t(3);
        for (int i = 0; i < 3; ++i) t[i] = pe.t(i, k);
        const VectorD lct = lc * t;
        for (int i = 0; i < 3; ++i)
            EXPECT_NEAR(lct[i], pe.values[k] * t[i], 1e-8 * (1.0 + pe.values[k]));
    }
}

// --- Blocked factorization / multi-RHS paths --------------------------------

TEST(Cholesky, BlockedFactorReconstructsAcrossBlockBoundary) {
    // n = 150 crosses the 64-column factorization block.
    const int n = 150;
    const MatrixD a = random_spd(n, 51);
    const MatrixD g = Cholesky(a).factor();
    const MatrixD r = g * g.transposed();
    double worst = 0;
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            worst = std::max(worst, std::abs(r(i, j) - a(i, j)));
    EXPECT_LT(worst, 1e-9 * a.max_abs());
}

TEST(Cholesky, MatrixSolveMatchesColumnwiseVectorSolves) {
    const int n = 130, k = 70; // k crosses the substitution block
    const MatrixD a = random_spd(n, 61);
    std::mt19937 rng(62);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    MatrixD b(n, k);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < k; ++j) b(i, j) = u(rng);
    const Cholesky chol(a);
    const MatrixD x = chol.solve(b);
    for (int j = 0; j < k; j += 17) {
        VectorD col(n);
        for (int i = 0; i < n; ++i) col[i] = b(i, j);
        const VectorD xj = chol.solve(col);
        for (int i = 0; i < n; ++i)
            EXPECT_NEAR(x(i, j), xj[i], 1e-9) << "col=" << j;
    }
}

namespace {

// Symmetric with a dominant positive diagonal, so SPD, built without a
// matrix product: the digests below then pin the factor kernels alone.
MatrixD dominant_spd(std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    MatrixD a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < i; ++j) a(i, j) = a(j, i) = u(rng);
        a(i, i) = static_cast<double>(n) + u(rng);
    }
    return a;
}

} // namespace

// Digests (%.17g, see test_util.hpp) of the factor and of a 53-column solve,
// recorded from the row-by-row dot-product kernels. The sizes sit on both
// sides of the 64-wide blocks and reach the E6 loop count (585).
TEST(Cholesky, FactorAndSolveReproduceRecordedDigests) {
    const std::size_t sizes[] = {1, 3, 63, 65, 130, 585};
    const std::uint64_t want[][2] = {
        {0x5ee42e20ce08ddabull, 0xc1c829d8a78c0a98ull},
        {0x4103b1e66f140439ull, 0xd03153b9e11a2686ull},
        {0xd1ecc7046a330adaull, 0x799edde5e1f04db1ull},
        {0x76dc1461108c1b74ull, 0x2c7573e5991fa8d7ull},
        {0x1531899c4876d05cull, 0x0fe5aa417b2dbeb5ull},
        {0x5a0bb77d40908e85ull, 0x4244b097d423a597ull}};
    for (std::size_t s = 0; s < 6; ++s) {
        const std::size_t n = sizes[s];
        const Cholesky chol(dominant_spd(n, 70 + static_cast<unsigned>(n)));
        std::mt19937 rng(71);
        std::uniform_real_distribution<double> u(-1.0, 1.0);
        MatrixD b(n, 53);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < 53; ++j) b(i, j) = u(rng);
        const std::uint64_t got[] = {test::digest(chol.factor()),
                                     test::digest(chol.solve(b))};
        for (int k = 0; k < 2; ++k)
            EXPECT_EQ(got[k], want[s][k])
                << "n=" << n << " " << k << ": 0x" << std::hex << got[k];
    }
}

// FFT (radix-2 + Bluestein) against the DFT definition.
#include <gtest/gtest.h>

#include <random>

#include "common/constants.hpp"
#include "common/parallel.hpp"
#include "numeric/fft.hpp"
#include "tests/test_util.hpp"

using namespace pgsi;

namespace {

VectorC random_signal(std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    VectorC x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = Complex(u(rng), u(rng));
    return x;
}

// O(n^2) reference straight from the definition.
VectorC naive_dft(const VectorC& x) {
    const std::size_t n = x.size();
    VectorC out(n, Complex{});
    for (std::size_t k = 0; k < n; ++k)
        for (std::size_t j = 0; j < n; ++j) {
            const double ang = -2.0 * pi * static_cast<double>(k * j) /
                               static_cast<double>(n);
            out[k] += x[j] * Complex(std::cos(ang), std::sin(ang));
        }
    return out;
}

double max_abs_diff(const VectorC& a, const VectorC& b) {
    EXPECT_EQ(a.size(), b.size());
    double m = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

} // namespace

TEST_P(FftSizes, ForwardMatchesNaiveDft) {
    const std::size_t n = GetParam();
    const VectorC x = random_signal(n, 17u + static_cast<unsigned>(n));
    const VectorC ref = naive_dft(x);
    const VectorC got = fft(x);
    // Naive DFT accumulates rounding itself; scale the tolerance with n.
    EXPECT_LT(max_abs_diff(got, ref), 1e-11 * static_cast<double>(n) + 1e-12)
        << "n = " << n;
}

TEST_P(FftSizes, InverseRoundTrips) {
    const std::size_t n = GetParam();
    const VectorC x = random_signal(n, 91u + static_cast<unsigned>(n));
    const VectorC back = ifft(fft(x));
    EXPECT_LT(max_abs_diff(back, x), 1e-12 * static_cast<double>(n) + 1e-13)
        << "n = " << n;
}

// Powers of two hit radix-2; primes (3, 5, 7, 31, 97, 127) and composites
// (6, 12, 100, 384) hit Bluestein, including sizes just off a power of two.
INSTANTIATE_TEST_SUITE_P(Sizes, FftSizes,
                         ::testing::Values<std::size_t>(1, 2, 3, 4, 5, 6, 7, 8,
                                                        12, 16, 31, 32, 97, 100,
                                                        127, 128, 384, 512));

TEST(Fft, PlanReportsRadix2Path) {
    EXPECT_TRUE(Fft(8).radix2());
    EXPECT_TRUE(Fft(1).radix2());
    EXPECT_FALSE(Fft(12).radix2());
    EXPECT_FALSE(Fft(97).radix2());
}

TEST(Fft, ImpulseTransformsToAllOnes) {
    for (const std::size_t n : {8u, 13u}) {
        VectorC x(n, Complex{});
        x[0] = 1.0;
        const VectorC got = fft(x);
        for (std::size_t k = 0; k < n; ++k)
            EXPECT_LT(std::abs(got[k] - Complex(1.0, 0.0)), 1e-12);
    }
}

TEST(Fft, NextPow2) {
    EXPECT_EQ(next_pow2(1), 1u);
    EXPECT_EQ(next_pow2(2), 2u);
    EXPECT_EQ(next_pow2(3), 4u);
    EXPECT_EQ(next_pow2(17), 32u);
    EXPECT_EQ(next_pow2(64), 64u);
}

TEST(Fft, TwoDimensionalMatchesRowColumnNaive) {
    const std::size_t ny = 4, nx = 8;
    VectorC grid = random_signal(ny * nx, 7u);
    // Reference: naive DFT on every row, then every column.
    std::vector<VectorC> rows(ny);
    for (std::size_t r = 0; r < ny; ++r)
        rows[r] = naive_dft(VectorC(grid.begin() + r * nx,
                                    grid.begin() + (r + 1) * nx));
    VectorC ref(ny * nx);
    for (std::size_t c = 0; c < nx; ++c) {
        VectorC col(ny);
        for (std::size_t r = 0; r < ny; ++r) col[r] = rows[r][c];
        col = naive_dft(col);
        for (std::size_t r = 0; r < ny; ++r) ref[r * nx + c] = col[r];
    }
    const Fft fy(ny), fx(nx);
    VectorC got = grid;
    fft_2d(got.data(), ny, nx, fy, fx, false);
    EXPECT_LT(max_abs_diff(got, ref), 1e-11);

    fft_2d(got.data(), ny, nx, fy, fx, true);
    EXPECT_LT(max_abs_diff(got, grid), 1e-12);
}

TEST(Fft, TwoDimensionalBitwiseInvariantAcrossThreadCounts) {
    const std::size_t ny = 16, nx = 32;
    const VectorC grid = random_signal(ny * nx, 23u);
    const Fft fy(ny), fx(nx);

    pgsi::test::ScopedThreadCount pin(1);
    VectorC base = grid;
    fft_2d(base.data(), ny, nx, fy, fx, false);

    for (const unsigned threads : {2u, 8u}) {
        pin.repin(threads);
        VectorC got = grid;
        fft_2d(got.data(), ny, nx, fy, fx, false);
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], base[i]) << "thread count " << threads;
    }
}

namespace {

// Row-major ny × nx grid: random values in the rows flagged in `live`, +0
// in the others.
VectorC grid_with_zero_rows(std::size_t ny, std::size_t nx,
                            const std::vector<unsigned char>& live,
                            unsigned seed) {
    VectorC g = random_signal(ny * nx, seed);
    for (std::size_t r = 0; r < ny; ++r)
        if (!live[r])
            for (std::size_t c = 0; c < nx; ++c) g[r * nx + c] = Complex{};
    return g;
}

// fft_2d's arithmetic spelled out with the 1-D plans: every row, then every
// column [0, cols) copied out, transformed and copied back.
VectorC rows_then_columns(VectorC g, std::size_t ny, std::size_t nx,
                          const Fft& fy, const Fft& fx, bool inverse,
                          std::size_t cols) {
    for (std::size_t r = 0; r < ny; ++r) {
        if (inverse)
            fx.inverse(g.data() + r * nx);
        else
            fx.forward(g.data() + r * nx);
    }
    VectorC col(ny);
    for (std::size_t c = 0; c < cols; ++c) {
        for (std::size_t r = 0; r < ny; ++r) col[r] = g[r * nx + c];
        if (inverse)
            fy.inverse(col.data());
        else
            fy.forward(col.data());
        for (std::size_t r = 0; r < ny; ++r) g[r * nx + c] = col[r];
    }
    return g;
}

} // namespace

// The row-segment column butterflies, the zero-row skipping and the
// column-limited inverse must reproduce the per-row and per-column 1-D
// transforms bit for bit: on radix-2 and Bluestein sizes, and on a grid
// large enough to split into pool chunks.
TEST(Fft, TwoDimensionalEqualsOneDimensionalPlansBitForBit) {
    pgsi::test::ScopedThreadCount pin(4);
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {64, 64}, {16, 32}, {32, 8}, {12, 16}, {16, 12}, {1, 8}, {256, 128}};
    unsigned seed = 100;
    for (const auto& [ny, nx] : shapes) {
        const Fft fy(ny), fx(nx);
        std::mt19937 rng(seed);
        std::vector<unsigned char> live(ny);
        for (std::size_t r = 0; r < ny; ++r) live[r] = (r < ny / 3) || rng() % 4 == 0;
        for (const bool inverse : {false, true}) {
            for (const std::size_t cols : {nx, nx / 2 + 1}) {
                const VectorC g = grid_with_zero_rows(ny, nx, live, ++seed);
                const VectorC want =
                    rows_then_columns(g, ny, nx, fy, fx, inverse, cols);
                VectorC got = g;
                fft_2d(got.data(), ny, nx, fy, fx, inverse, live.data(), cols);
                VectorC plain = g;
                fft_2d(plain.data(), ny, nx, fy, fx, inverse, nullptr, cols);
                for (std::size_t i = 0; i < got.size(); ++i) {
                    ASSERT_TRUE(pgsi::test::same_bits(got[i], want[i]))
                        << ny << "x" << nx << " inverse " << inverse
                        << " cols " << cols << " i " << i;
                    ASSERT_TRUE(pgsi::test::same_bits(plain[i], want[i]))
                        << ny << "x" << nx << " inverse " << inverse
                        << " cols " << cols << " i " << i;
                }
            }
        }
    }
}

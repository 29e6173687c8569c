// From-scratch complex FFT (radix-2 plus Bluestein for arbitrary sizes).
//
// The matrix-free BEM solver applies the translation-invariant P/L
// interaction tables as discrete convolutions; those reduce to forward and
// inverse DFTs of the circulant-embedded kernels and of the scattered
// element data. pgsi carries no external numerical dependencies, so the
// transforms are implemented here:
//
//   * power-of-two sizes use the iterative radix-2 Cooley-Tukey algorithm
//     with a precomputed bit-reversal permutation and twiddle table;
//   * every other size goes through Bluestein's chirp-z identity
//     X_k = a_k * sum_j (x_j a_j) b_{k-j},  a_k = e^{-i pi k^2 / n},
//     which rewrites an arbitrary-length DFT as one power-of-two circular
//     convolution (size >= 2n-1) and is exact for prime n.
//
// A plan object (Fft) owns the tables for one size; transforms are
// in-place, serial and allocation-free on the power-of-two path. The radix-2
// butterfly is written out in real arithmetic, (ur + vr, ui + vi) with
// v = x·w = (xr·wr − xi·wi, xr·wi + xi·wr): the exact expression
// std::complex evaluates, without its NaN-recovery branch, so results are
// bitwise those of the std::complex loop on finite data. Forward uses the
// e^{-2*pi*i*jk/n} kernel; inverse includes the 1/n normalization.
//
// fft_2d transforms a row-major grid rows first, then columns. The column
// pass runs each radix-2 butterfly over a whole row segment (contiguous and
// vectorisable, no strided copies), and rows known to be zero are skipped
// where that leaves every bit of the result unchanged. A pass whose work
// exceeds one chunk splits into whole-row or whole-column-block chunks over
// the pgsi::par pool; a smaller pass (a 64 × 64 grid) runs on the calling
// thread with no dispatch. Each element's arithmetic is independent of the
// partition, so results are bitwise identical at any thread count.
#pragma once

#include <memory>

#include "numeric/matrix.hpp"

namespace pgsi {

/// Transform plan for one fixed length n >= 1.
class Fft {
public:
    explicit Fft(std::size_t n);
    ~Fft(); // out of line: Bluestein is incomplete here
    Fft(Fft&&) noexcept;
    Fft& operator=(Fft&&) noexcept;

    std::size_t size() const { return n_; }

    /// In-place forward DFT: X_k = sum_j x_j e^{-2 pi i jk/n}.
    void forward(Complex* data) const;

    /// In-place inverse DFT (scaled by 1/n): exact round trip with forward.
    void inverse(Complex* data) const;

    /// True when this plan runs the radix-2 path (no Bluestein scratch).
    bool radix2() const { return blue_ == nullptr; }

    /// In-place transform of the columns [c0, c1) of the row-major grid
    /// data[size()][ld]: each column receives exactly the arithmetic of
    /// forward()/inverse() on a copy of it. On the radix-2 path every
    /// butterfly runs over the row segment [c0, c1); other sizes copy each
    /// column out and back. `live`, when non-null, flags the rows that may
    /// be nonzero: the other rows must hold +0 in [c0, c1), and the radix-2
    /// path skips each butterfly whose two inputs are such rows (its outputs
    /// would be +0).
    void transform_columns(Complex* data, std::size_t ld, std::size_t c0,
                           std::size_t c1, bool inverse,
                           const unsigned char* live = nullptr) const;

private:
    struct Bluestein;

    void radix2_transform(Complex* data, bool inv) const;
    void radix2_columns(Complex* data, std::size_t ld, std::size_t c0,
                        std::size_t c1, bool inv,
                        const unsigned char* live) const;
    void bluestein_forward(Complex* data) const;

    std::size_t n_ = 1;
    std::vector<std::size_t> rev_;  // bit-reversal permutation (radix-2)
    VectorC tw_;                    // forward twiddles e^{-2 pi i k/n}, k < n/2
    std::unique_ptr<const Bluestein> blue_; // non-null for non-power-of-two n
};

/// Smallest power of two >= n.
std::size_t next_pow2(std::size_t n);

/// One-shot forward/inverse transforms (build a plan internally).
VectorC fft(VectorC data);
VectorC ifft(VectorC data);

/// In-place 2-D transform of row-major data[ny][nx] using prebuilt row and
/// column plans (fx.size() == nx, fy.size() == ny): every row, then every
/// column, each with the arithmetic of the 1-D plans. `live_rows`, when
/// non-null, flags the rows that may be nonzero; the others must hold +0
/// (their transforms are skipped where that is exact). `out_cols` limits the
/// column pass to columns [0, out_cols), for callers that read only those;
/// the other columns are left as the row pass wrote them.
void fft_2d(Complex* data, std::size_t ny, std::size_t nx, const Fft& fy,
            const Fft& fx, bool inverse,
            const unsigned char* live_rows = nullptr,
            std::size_t out_cols = static_cast<std::size_t>(-1));

/// True when fft_2d splits a pass over an ny × nx grid into several pool
/// chunks; false when the whole transform runs on the calling thread.
bool fft_2d_splits(std::size_t ny, std::size_t nx);

} // namespace pgsi

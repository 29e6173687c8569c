#include "numeric/fft.hpp"

#include <algorithm>
#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"

namespace pgsi {

namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// Butterflies per pool chunk of an fft_2d pass. Every pass over a 64 × 64
// grid (12288 butterflies) fits in one chunk and runs on the calling
// thread: below this much work a pool dispatch costs more than it saves.
constexpr std::size_t kChunkButterflies = std::size_t{1} << 15;

// Butterflies of one length-n transform (Bluestein counted at its
// power-of-two convolution size, which is the same order).
std::size_t transform_work(std::size_t n) {
    std::size_t bits = 0;
    while ((std::size_t{1} << bits) < n) ++bits;
    return std::max<std::size_t>(1, (next_pow2(n) / 2) * bits);
}

// Items of `per_item` butterflies each that fill one chunk.
std::size_t chunk_items(std::size_t per_item) {
    return std::max<std::size_t>(1, kChunkButterflies / per_item);
}

// body(begin, end) over [0, n) in chunks of `grain` items; a single chunk
// runs on the calling thread without touching the pool.
template <class F>
void run_chunks(std::size_t n, std::size_t grain, F&& body) {
    if (n == 0) return;
    if (n <= grain)
        body(std::size_t{0}, n);
    else
        par::parallel_for_chunked(n, grain, body);
}

// One radix-2 butterfly (u, x) -> (u + v, u - v), v = x·w, on (re, im)
// pairs: the arithmetic of the std::complex expressions, written out.
inline void butterfly(double* u, double* x, double wr, double wi) {
    const double vr = x[0] * wr - x[1] * wi;
    const double vi = x[0] * wi + x[1] * wr;
    const double ur = u[0], ui = u[1];
    u[0] = ur + vr;
    u[1] = ui + vi;
    x[0] = ur - vr;
    x[1] = ui - vi;
}

// e^{-i pi k^2 / n} evaluated with the quadratic phase reduced mod 2n before
// the multiply by pi/n: k^2 grows past the point where the raw product
// pi*k^2/n keeps absolute accuracy, while k^2 mod 2n stays small and exact
// (k^2 is an exact double well beyond any practical transform length).
Complex chirp(std::size_t k, std::size_t n) {
    const double k2 = std::fmod(static_cast<double>(k) * static_cast<double>(k),
                                2.0 * static_cast<double>(n));
    const double ang = -pi * k2 / static_cast<double>(n);
    return Complex(std::cos(ang), std::sin(ang));
}

} // namespace

struct Fft::Bluestein {
    std::size_t m = 0;        // power-of-two convolution length >= 2n-1
    Fft sub;                  // radix-2 plan of size m
    VectorC a;                // a_k = e^{-i pi k^2/n}, k < n
    VectorC bhat;             // forward transform of the chirp filter b

    explicit Bluestein(std::size_t n)
        : m(next_pow2(2 * n - 1)), sub(m), a(n), bhat(m) {
        for (std::size_t k = 0; k < n; ++k) a[k] = chirp(k, n);
        // b_j = conj(a_|j|) wrapped circularly: b[0..n-1] and b[m-j] = b[j].
        for (std::size_t k = 0; k < n; ++k) {
            const Complex b = std::conj(a[k]);
            bhat[k] = b;
            if (k > 0) bhat[m - k] = b;
        }
        sub.forward(bhat.data());
    }
};

Fft::~Fft() = default;
Fft::Fft(Fft&&) noexcept = default;
Fft& Fft::operator=(Fft&&) noexcept = default;

std::size_t next_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

Fft::Fft(std::size_t n) : n_(n) {
    PGSI_REQUIRE(n >= 1, "Fft: transform length must be >= 1");
    if (!is_pow2(n_)) {
        blue_ = std::make_unique<const Bluestein>(n_);
        return;
    }
    rev_.resize(n_);
    std::size_t bits = 0;
    while ((std::size_t{1} << bits) < n_) ++bits;
    for (std::size_t i = 0; i < n_; ++i) {
        std::size_t r = 0;
        for (std::size_t b = 0; b < bits; ++b)
            if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (bits - 1 - b);
        rev_[i] = r;
    }
    tw_.resize(n_ / 2);
    for (std::size_t k = 0; k < tw_.size(); ++k) {
        const double ang = -2.0 * pi * static_cast<double>(k) / static_cast<double>(n_);
        tw_[k] = Complex(std::cos(ang), std::sin(ang));
    }
}

void Fft::radix2_transform(Complex* data, bool inv) const {
    const std::size_t n = n_;
    for (std::size_t i = 0; i < n; ++i)
        if (i < rev_[i]) std::swap(data[i], data[rev_[i]]);
    // Inverse twiddles are the conjugates: the imaginary part negated.
    const double sign = inv ? -1.0 : 1.0;
    double* x = reinterpret_cast<double*>(data);
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t half = len >> 1;
        const std::size_t step = n / len;
        for (std::size_t base = 0; base < n; base += len) {
            for (std::size_t j = 0; j < half; ++j) {
                const Complex w = tw_[j * step];
                butterfly(x + 2 * (base + j), x + 2 * (base + j + half),
                          w.real(), sign * w.imag());
            }
        }
    }
}

void Fft::radix2_columns(Complex* data, std::size_t ld, std::size_t c0,
                         std::size_t c1, bool inv,
                         const unsigned char* live) const {
    const std::size_t n = n_;
    // nz[i]: row i may be nonzero. The flags follow the rows through the
    // bit-reversal permutation and each butterfly that runs.
    std::vector<unsigned char> nz(live ? live : nullptr, live ? live + n : nullptr);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t r = rev_[i];
        if (i >= r) continue;
        if (!live || nz[i] || nz[r]) {
            std::swap_ranges(data + i * ld + c0, data + i * ld + c1,
                             data + r * ld + c0);
            if (live) std::swap(nz[i], nz[r]);
        }
    }
    const double sign = inv ? -1.0 : 1.0;
    const std::size_t w = c1 - c0;
    double* x = reinterpret_cast<double*>(data);
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t half = len >> 1;
        const std::size_t step = n / len;
        for (std::size_t base = 0; base < n; base += len) {
            for (std::size_t j = 0; j < half; ++j) {
                const std::size_t a = base + j, b = a + half;
                if (live) {
                    // Two +0 rows give two +0 rows: nothing to do.
                    if (!nz[a] && !nz[b]) continue;
                    nz[a] = nz[b] = 1;
                }
                const Complex tw = tw_[j * step];
                const double wr = tw.real(), wi = sign * tw.imag();
                double* u = x + 2 * (a * ld + c0);
                double* v = x + 2 * (b * ld + c0);
                for (std::size_t c = 0; c < w; ++c)
                    butterfly(u + 2 * c, v + 2 * c, wr, wi);
            }
        }
    }
    if (inv) {
        const double s = 1.0 / static_cast<double>(n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = c0; c < c1; ++c) data[r * ld + c] *= s;
    }
}

void Fft::bluestein_forward(Complex* x) const {
    const Bluestein& bl = *blue_;
    VectorC buf(bl.m, Complex{});
    for (std::size_t k = 0; k < n_; ++k) buf[k] = x[k] * bl.a[k];
    bl.sub.forward(buf.data());
    for (std::size_t k = 0; k < bl.m; ++k) buf[k] *= bl.bhat[k];
    bl.sub.inverse(buf.data());
    for (std::size_t k = 0; k < n_; ++k) x[k] = buf[k] * bl.a[k];
}

void Fft::forward(Complex* data) const {
    if (n_ == 1) return;
    if (blue_)
        bluestein_forward(data);
    else
        radix2_transform(data, false);
}

void Fft::inverse(Complex* data) const {
    if (n_ == 1) return;
    if (blue_) {
        // DFT^{-1}(x) = conj(DFT(conj(x))) / n: reuses the forward chirp.
        for (std::size_t k = 0; k < n_; ++k) data[k] = std::conj(data[k]);
        bluestein_forward(data);
        const double s = 1.0 / static_cast<double>(n_);
        for (std::size_t k = 0; k < n_; ++k) data[k] = std::conj(data[k]) * s;
        return;
    }
    radix2_transform(data, true);
    const double s = 1.0 / static_cast<double>(n_);
    for (std::size_t k = 0; k < n_; ++k) data[k] *= s;
}

VectorC fft(VectorC data) {
    Fft(data.size()).forward(data.data());
    return data;
}

VectorC ifft(VectorC data) {
    Fft(data.size()).inverse(data.data());
    return data;
}

void Fft::transform_columns(Complex* data, std::size_t ld, std::size_t c0,
                            std::size_t c1, bool inverse,
                            const unsigned char* live) const {
    if (n_ == 1 || c0 >= c1) return;
    if (!blue_) {
        radix2_columns(data, ld, c0, c1, inverse, live);
        return;
    }
    VectorC col(n_);
    for (std::size_t c = c0; c < c1; ++c) {
        for (std::size_t r = 0; r < n_; ++r) col[r] = data[r * ld + c];
        if (inverse)
            this->inverse(col.data());
        else
            forward(col.data());
        for (std::size_t r = 0; r < n_; ++r) data[r * ld + c] = col[r];
    }
}

bool fft_2d_splits(std::size_t ny, std::size_t nx) {
    return ny > chunk_items(transform_work(nx)) ||
           (ny > 1 && nx > chunk_items(transform_work(ny)));
}

void fft_2d(Complex* data, std::size_t ny, std::size_t nx, const Fft& fy,
            const Fft& fx, bool inverse, const unsigned char* live_rows,
            std::size_t out_cols) {
    PGSI_REQUIRE(fx.size() == nx && fy.size() == ny,
                 "fft_2d: plan sizes do not match the grid");
    // A radix-2 transform of a +0 row is a +0 row, so skipping it is exact;
    // a Bluestein one may leave -0 entries and must run.
    const unsigned char* live = fx.radix2() ? live_rows : nullptr;
    run_chunks(ny, chunk_items(transform_work(nx)),
               [&](std::size_t r0, std::size_t r1) {
                   for (std::size_t r = r0; r < r1; ++r) {
                       if (live && !live[r]) continue;
                       Complex* row = data + r * nx;
                       if (inverse)
                           fx.inverse(row);
                       else
                           fx.forward(row);
                   }
               });
    if (ny == 1) return;
    run_chunks(std::min(out_cols, nx), chunk_items(transform_work(ny)),
               [&](std::size_t c0, std::size_t c1) {
                   fy.transform_columns(data, nx, c0, c1, inverse, live);
               });
}

} // namespace pgsi

// Cache-blocked, pool-parallel dense matrix-multiply kernel.
//
// The dense hot paths of the library (matrix products, LU/Cholesky trailing
// updates, multi-RHS substitutions) all reduce to the rank-k update
//
//     C[0..m, 0..n) += alpha * A[0..m, 0..k) * B[0..k, 0..n)
//
// over row-major storage with independent leading dimensions, so factorization
// code can point A/B/C at submatrices of one allocation. The kernel blocks
// over k (panel height kc) and packs each B panel into contiguous storage so
// the innermost loops stream packed data regardless of ldb; rows of C are
// distributed over the shared pgsi::par pool. Each C(i,j) takes its updates
// in a fixed order, p ascending (k panels ascending, rows ascending inside
// each panel), and skips every p where alpha·A(i,p) == 0, so results are
// bit-identical at any thread count and an Inf or NaN in a skipped row of B
// never reaches C.
//
// The real update runs as a 4-row × 4-column register tile: the 16 sums of
// a C tile stay in registers across the whole panel, and each loaded A and
// B value feeds four multiply-adds. A row block whose A is mostly zero (an
// incidence operand such as Bᵀ in extraction) instead runs row at a
// time over its nonzeros. Both schedules perform exactly the row-at-a-time
// sequence per element, so which one runs never shows in the result. The
// complex update keeps the row-at-a-time loop.
//
// Every inner loop of the dense kernels (this GEMM, the LU panel
// elimination and triangular substitutions) is one multiply-add step,
// y ± a·x. For complex operands the step below writes the product out in
// real arithmetic, (ar·xr − ai·xi, ar·xi + ai·xr): the exact expression
// std::complex operator* evaluates, without its NaN-recovery branch (a
// call that keeps the loop from vectorizing). Both parts of a product of
// finite operands can never be NaN together, so the branch never fires on
// finite data and the results are bitwise those of the std::complex loop
// (the build does not contract a·b + c into fused multiply-adds).
#pragma once

#include <complex>
#include <cstddef>

namespace pgsi::detail {

/// c[0..1] ± (ar + j·ai)·(b[0] + j·b[1]) on one (re, im) pair.
template <bool Subtract>
inline void complex_madd(double* c, double ar, double ai, const double* b) {
    const double pr = ar * b[0] - ai * b[1];
    const double pi = ar * b[1] + ai * b[0];
    c[0] = Subtract ? c[0] - pr : c[0] + pr;
    c[1] = Subtract ? c[1] - pi : c[1] + pi;
}

/// y[0..n) += a·x[0..n) (Subtract = false) or −= (Subtract = true).
/// x and y must not overlap.
template <bool Subtract>
inline void axpy(double a, const double* x, double* y, std::size_t n) {
    for (std::size_t j = 0; j < n; ++j)
        y[j] = Subtract ? y[j] - a * x[j] : y[j] + a * x[j];
}

template <bool Subtract>
inline void axpy(std::complex<double> a, const std::complex<double>* x,
                 std::complex<double>* y, std::size_t n) {
    // [complex.numbers]: an array of std::complex<double> may be accessed
    // as an array of double (re, im) pairs.
    const double* xd = reinterpret_cast<const double*>(x);
    double* yd = reinterpret_cast<double*>(y);
    const double ar = a.real(), ai = a.imag();
    for (std::size_t j = 0; j < n; ++j)
        complex_madd<Subtract>(yd + 2 * j, ar, ai, xd + 2 * j);
}

/// acc − Σ a[j]·x[j], subtracted in index order.
inline double dot_sub(double acc, const double* a, const double* x,
                      std::size_t n) {
    for (std::size_t j = 0; j < n; ++j) acc -= a[j] * x[j];
    return acc;
}

inline std::complex<double> dot_sub(std::complex<double> acc,
                                    const std::complex<double>* a,
                                    const std::complex<double>* x,
                                    std::size_t n) {
    const double* ad = reinterpret_cast<const double*>(a);
    const double* xd = reinterpret_cast<const double*>(x);
    double c[2] = {acc.real(), acc.imag()};
    for (std::size_t j = 0; j < n; ++j)
        complex_madd<true>(c, ad[2 * j], ad[2 * j + 1], xd + 2 * j);
    return {c[0], c[1]};
}

/// Σ conj(a[j])·x[j], accumulated in index order from +0: bitwise the
/// std::complex loop `s += std::conj(a[j]) * x[j]`. With a = ar + j·ai the
/// product conj(a)·x is (ar·xr − (−ai)·xi, ar·xi + (−ai)·xr), and
/// negating a factor only flips the sign of a product, so the two parts are
/// exactly ar·xr + ai·xi and ar·xi − ai·xr.
inline std::complex<double> dotc(const std::complex<double>* a,
                                 const std::complex<double>* x,
                                 std::size_t n) {
    const double* ad = reinterpret_cast<const double*>(a);
    const double* xd = reinterpret_cast<const double*>(x);
    double sr = 0.0, si = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        const double ar = ad[2 * j], ai = ad[2 * j + 1];
        const double xr = xd[2 * j], xi = xd[2 * j + 1];
        sr += ar * xr + ai * xi;
        si += ar * xi - ai * xr;
    }
    return {sr, si};
}

/// s[r][c] = Σ_t a[t·lda + r]·b[t·ldb + c] for r, c < 4, each sum taken
/// over t ascending from +0: sixteen dot products side by side, their sums
/// in registers, each loaded value feeding four multiply-adds. Rows of a and
/// b run along t, so both operands are read as transposed panels.
inline void dot_tile(const double* a, std::size_t lda, const double* b,
                     std::size_t ldb, std::size_t kb, double (&s)[4][4]) {
    double s00 = 0, s01 = 0, s02 = 0, s03 = 0, s10 = 0, s11 = 0, s12 = 0, s13 = 0;
    double s20 = 0, s21 = 0, s22 = 0, s23 = 0, s30 = 0, s31 = 0, s32 = 0, s33 = 0;
    for (std::size_t t = 0; t < kb; ++t, a += lda, b += ldb) {
        const double a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3];
        const double b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3];
        s00 += a0 * b0; s01 += a0 * b1; s02 += a0 * b2; s03 += a0 * b3;
        s10 += a1 * b0; s11 += a1 * b1; s12 += a1 * b2; s13 += a1 * b3;
        s20 += a2 * b0; s21 += a2 * b1; s22 += a2 * b2; s23 += a2 * b3;
        s30 += a3 * b0; s31 += a3 * b1; s32 += a3 * b2; s33 += a3 * b3;
    }
    s[0][0] = s00; s[0][1] = s01; s[0][2] = s02; s[0][3] = s03;
    s[1][0] = s10; s[1][1] = s11; s[1][2] = s12; s[1][3] = s13;
    s[2][0] = s20; s[2][1] = s21; s[2][2] = s22; s[2][3] = s23;
    s[3][0] = s30; s[3][1] = s31; s[3][2] = s32; s[3][3] = s33;
}

/// C += alpha * A * B (shapes m×k · k×n, row-major, leading dimensions
/// lda/ldb/ldc). Safe to call from inside a parallel region (runs inline).
template <class T>
void gemm_update(T alpha, const T* a, std::size_t lda, const T* b,
                 std::size_t ldb, T* c, std::size_t ldc, std::size_t m,
                 std::size_t k, std::size_t n);

template <>
void gemm_update<double>(double alpha, const double* a, std::size_t lda,
                         const double* b, std::size_t ldb, double* c,
                         std::size_t ldc, std::size_t m, std::size_t k,
                         std::size_t n);
extern template void gemm_update<std::complex<double>>(
    std::complex<double>, const std::complex<double>*, std::size_t,
    const std::complex<double>*, std::size_t, std::complex<double>*,
    std::size_t, std::size_t, std::size_t, std::size_t);

} // namespace pgsi::detail

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
// the innermost j-loop streams packed data regardless of ldb; rows of C are
// distributed over the shared pgsi::par pool. Per-(i,j) accumulation order is
// fixed (k panels ascending, rows ascending inside each panel), so results
// are bit-identical at any thread count.
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

/// C += alpha * A * B (shapes m×k · k×n, row-major, leading dimensions
/// lda/ldb/ldc). Safe to call from inside a parallel region (runs inline).
template <class T>
void gemm_update(T alpha, const T* a, std::size_t lda, const T* b,
                 std::size_t ldb, T* c, std::size_t ldc, std::size_t m,
                 std::size_t k, std::size_t n);

extern template void gemm_update<double>(double, const double*, std::size_t,
                                         const double*, std::size_t, double*,
                                         std::size_t, std::size_t, std::size_t,
                                         std::size_t);
extern template void gemm_update<std::complex<double>>(
    std::complex<double>, const std::complex<double>*, std::size_t,
    const std::complex<double>*, std::size_t, std::complex<double>*,
    std::size_t, std::size_t, std::size_t, std::size_t);

} // namespace pgsi::detail

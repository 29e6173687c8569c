#include "numeric/lu.hpp"

#include <cmath>

#include "common/parallel.hpp"
#include "common/robust.hpp"
#include "numeric/gemm.hpp"
#include "obs/metrics.hpp"

namespace pgsi {

namespace {

// Panel width of the blocked right-looking factorization and substitution.
// Big enough that the trailing GEMM update dominates, small enough that the
// serial panel factorization stays a few percent of the work.
constexpr std::size_t kBlock = 64;
// RHS-column grain for parallel substitution.
constexpr std::size_t kRhsGrain = 64;

} // namespace

template <class T>
Lu<T>::Lu(Matrix<T> a) : lu_(std::move(a)) {
    PGSI_REQUIRE(lu_.square(), "LU requires a square matrix");
    if (robust::FaultInjector::should_fire("lu.pivot"))
        throw NumericalError(
            "LU: matrix is singular (injected zero pivot, fault site lu.pivot)");
    const std::size_t n = lu_.rows();
    {
        static obs::Counter& factorizations = obs::counter("lu.factorizations");
        static obs::Histogram& sizes = obs::histogram("lu.n");
        ++factorizations;
        sizes.record(static_cast<double>(n));
    }
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

    // Blocked right-looking factorization: eliminate a kBlock-wide panel with
    // the classic scalar algorithm (restricted to the panel columns), then
    // push the update into the trailing matrix as one triangular solve plus
    // one GEMM — which is where the pool parallelism and cache blocking live.
    for (std::size_t k0 = 0; k0 < n; k0 += kBlock) {
        const std::size_t kend = std::min(k0 + kBlock, n);
        for (std::size_t k = k0; k < kend; ++k) {
            // Partial pivot: largest magnitude in column k at or below the
            // diagonal.
            std::size_t p = k;
            double best = std::abs(lu_(k, k));
            for (std::size_t i = k + 1; i < n; ++i) {
                const double v = std::abs(lu_(i, k));
                if (v > best) {
                    best = v;
                    p = i;
                }
            }
            if (best == 0.0)
                throw NumericalError("LU: matrix is singular (zero pivot column " +
                                     std::to_string(k) + ")");
            if (p != k) {
                for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(p, j));
                std::swap(perm_[k], perm_[p]);
                sign_ = -sign_;
            }
            const T pivot = lu_(k, k);
            for (std::size_t i = k + 1; i < n; ++i) {
                const T m = lu_(i, k) / pivot;
                lu_(i, k) = m;
                if (m == T{}) continue;
                detail::axpy<true>(m, lu_.row(k) + k + 1, lu_.row(i) + k + 1,
                                   kend - k - 1);
            }
        }
        if (kend == n) break;
        // U12 = L11^{-1} A12: forward-substitute the unit-lower panel block
        // through the columns right of the panel, parallel over column chunks.
        par::parallel_for_chunked(
            n - kend, kRhsGrain, [&](std::size_t j0, std::size_t j1) {
                const std::size_t c0 = kend + j0, nc = j1 - j0;
                for (std::size_t i = k0 + 1; i < kend; ++i) {
                    T* irow = lu_.row(i) + c0;
                    for (std::size_t t = k0; t < i; ++t) {
                        const T lit = lu_(i, t);
                        if (lit == T{}) continue;
                        detail::axpy<true>(lit, lu_.row(t) + c0, irow, nc);
                    }
                }
            });
        // A22 -= L21 * U12 (the O(n^3) bulk of the factorization).
        detail::gemm_update(T{-1}, lu_.row(kend) + k0, n, lu_.row(k0) + kend, n,
                            lu_.row(kend) + kend, n, n - kend, kend - k0,
                            n - kend);
    }
}

template <class T>
std::vector<T> Lu<T>::solve(const std::vector<T>& b) const {
    const std::size_t n = lu_.rows();
    PGSI_REQUIRE(b.size() == n, "LU solve: rhs size mismatch");
    static obs::Counter& solves = obs::counter("lu.solves");
    static obs::Counter& rhs_cols = obs::counter("lu.rhs_cols");
    ++solves;
    ++rhs_cols;
    std::vector<T> x(n);
    // Apply permutation and forward-substitute L y = P b.
    for (std::size_t i = 0; i < n; ++i)
        x[i] = detail::dot_sub(b[perm_[i]], lu_.row(i), x.data(), i);
    // Back-substitute U x = y.
    for (std::size_t ii = n; ii-- > 0;) {
        const T* row = lu_.row(ii);
        x[ii] = detail::dot_sub(x[ii], row + ii + 1, x.data() + ii + 1,
                                n - ii - 1) /
                row[ii];
    }
    return x;
}

template <class T>
Matrix<T> Lu<T>::solve(const Matrix<T>& b) const {
    const std::size_t n = lu_.rows();
    const std::size_t nrhs = b.cols();
    PGSI_REQUIRE(b.rows() == n, "LU solve: rhs row count mismatch");
    static obs::Counter& solves = obs::counter("lu.solves");
    static obs::Counter& rhs_cols = obs::counter("lu.rhs_cols");
    ++solves;
    rhs_cols.add(nrhs);
    if (nrhs == 0) return Matrix<T>(n, 0);
    // All right-hand sides substitute together: one pass over the factors
    // serves every column (the old per-column loop re-streamed the n^2
    // factor data nrhs times).
    Matrix<T> x(n, nrhs);
    par::parallel_for_chunked(n, kRhsGrain, [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
            const T* src = b.row(perm_[i]);
            T* dst = x.row(i);
            for (std::size_t j = 0; j < nrhs; ++j) dst[j] = src[j];
        }
    });
    // Forward-substitute L (unit lower) blockwise: solve the diagonal block
    // over all RHS columns (parallel over column chunks), then clear the
    // block's contribution to the rows below with one GEMM.
    for (std::size_t k0 = 0; k0 < n; k0 += kBlock) {
        const std::size_t kend = std::min(k0 + kBlock, n);
        par::parallel_for_chunked(
            nrhs, kRhsGrain, [&](std::size_t j0, std::size_t j1) {
                const std::size_t nc = j1 - j0;
                for (std::size_t i = k0 + 1; i < kend; ++i) {
                    T* xi = x.row(i) + j0;
                    for (std::size_t t = k0; t < i; ++t) {
                        const T lit = lu_(i, t);
                        if (lit == T{}) continue;
                        detail::axpy<true>(lit, x.row(t) + j0, xi, nc);
                    }
                }
            });
        if (kend < n)
            detail::gemm_update(T{-1}, lu_.row(kend) + k0, n, x.row(k0), nrhs,
                                x.row(kend), nrhs, n - kend, kend - k0, nrhs);
    }
    // Back-substitute U blockwise from the bottom: solve the diagonal block
    // (with division), then subtract its contribution from the rows above.
    for (std::size_t kend = n; kend > 0;) {
        const std::size_t k0 = kend > kBlock ? kend - kBlock : 0;
        par::parallel_for_chunked(
            nrhs, kRhsGrain, [&](std::size_t j0, std::size_t j1) {
                const std::size_t nc = j1 - j0;
                for (std::size_t ii = kend; ii-- > k0;) {
                    T* xi = x.row(ii) + j0;
                    for (std::size_t t = ii + 1; t < kend; ++t) {
                        const T uit = lu_(ii, t);
                        if (uit == T{}) continue;
                        detail::axpy<true>(uit, x.row(t) + j0, xi, nc);
                    }
                    const T diag = lu_(ii, ii);
                    for (std::size_t j = 0; j < nc; ++j) xi[j] = xi[j] / diag;
                }
            });
        if (k0 > 0)
            detail::gemm_update(T{-1}, lu_.row(0) + k0, n, x.row(k0), nrhs,
                                x.row(0), nrhs, k0, kend - k0, nrhs);
        kend = k0;
    }
    return x;
}

template <class T>
Matrix<T> Lu<T>::inverse() const {
    return solve(Matrix<T>::identity(lu_.rows()));
}

template <class T>
T Lu<T>::determinant() const {
    T d = static_cast<T>(sign_);
    for (std::size_t i = 0; i < lu_.rows(); ++i) d *= lu_(i, i);
    return d;
}

template class Lu<double>;
template class Lu<Complex>;

} // namespace pgsi

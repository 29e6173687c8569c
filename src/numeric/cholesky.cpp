#include "numeric/cholesky.hpp"

#include <cmath>
#include <vector>

#include "common/parallel.hpp"
#include "common/robust.hpp"
#include "numeric/gemm.hpp"
#include "numeric/lu.hpp"
#include "obs/metrics.hpp"

namespace pgsi {

namespace {

// Panel width of the blocked right-looking factorization (see lu.cpp for the
// sizing rationale) and RHS-column grain for parallel substitution.
constexpr std::size_t kBlock = 64;
constexpr std::size_t kRhsGrain = 64;

} // namespace

Cholesky::Cholesky(const MatrixD& a) : g_(a.rows(), a.cols()) {
    PGSI_REQUIRE(a.square(), "Cholesky requires a square matrix");
    const std::size_t n = a.rows();
    {
        static obs::Counter& factorizations =
            obs::counter("cholesky.factorizations");
        static obs::Histogram& sizes = obs::histogram("cholesky.n");
        ++factorizations;
        sizes.record(static_cast<double>(n));
    }
    // ‖A‖₁ = max absolute column sum (A is symmetric: row sums serve), from
    // the input before the in-place factorization.
    for (std::size_t i = 0; i < n; ++i) {
        double s = 0;
        const double* arow = a.row(i);
        for (std::size_t j = 0; j < n; ++j) s += std::abs(arow[j]);
        anorm1_ = std::max(anorm1_, s);
    }
    // Copy the lower triangle of A, then factor in place blockwise: factor
    // the diagonal block, triangular-solve the panel below it, and fold the
    // panel into the trailing lower triangle (the O(n^3) bulk, parallel over
    // row chunks; per-entry accumulation order is fixed, so results are
    // thread-count invariant).
    for (std::size_t i = 0; i < n; ++i) {
        const double* arow = a.row(i);
        double* grow = g_.row(i);
        for (std::size_t j = 0; j <= i; ++j) grow[j] = arow[j];
    }
    for (std::size_t k0 = 0; k0 < n; k0 += kBlock) {
        const std::size_t kend = std::min(k0 + kBlock, n);
        for (std::size_t j = k0; j < kend; ++j) {
            double d = g_(j, j);
            const double* gj = g_.row(j);
            for (std::size_t t = k0; t < j; ++t) d -= gj[t] * gj[t];
            if (d <= 0.0)
                throw NumericalError(
                    "Cholesky: matrix not positive definite at row " +
                    std::to_string(j));
            const double gjj = std::sqrt(d);
            g_(j, j) = gjj;
            for (std::size_t i = j + 1; i < kend; ++i) {
                double s = g_(i, j);
                const double* gi = g_.row(i);
                for (std::size_t t = k0; t < j; ++t) s -= gi[t] * gj[t];
                g_(i, j) = s / gjj;
            }
        }
        if (kend == n) break;
        // Panel solve: G21 = A21 * G11^{-T}, parallel over the rows below.
        par::parallel_for_chunked(
            n - kend, kRhsGrain, [&](std::size_t r0, std::size_t r1) {
                for (std::size_t i = kend + r0; i < kend + r1; ++i) {
                    double* gi = g_.row(i);
                    for (std::size_t j = k0; j < kend; ++j) {
                        double s = gi[j];
                        const double* gj = g_.row(j);
                        for (std::size_t t = k0; t < j; ++t) s -= gi[t] * gj[t];
                        gi[j] = s / gj[j];
                    }
                }
            });
        // Trailing update A22 -= G21 * G21^T, lower triangle only.
        par::parallel_for_chunked(
            n - kend, kRhsGrain, [&](std::size_t r0, std::size_t r1) {
                for (std::size_t i = kend + r0; i < kend + r1; ++i) {
                    const double* gi = g_.row(i);
                    double* grow = g_.row(i);
                    for (std::size_t j = kend; j <= i; ++j) {
                        const double* gj = g_.row(j);
                        double s = 0;
                        for (std::size_t t = k0; t < kend; ++t)
                            s += gi[t] * gj[t];
                        grow[j] -= s;
                    }
                }
            });
    }
}

VectorD Cholesky::solve(const VectorD& b) const {
    const std::size_t n = g_.rows();
    PGSI_REQUIRE(b.size() == n, "Cholesky solve: rhs size mismatch");
    static obs::Counter& solves = obs::counter("cholesky.solves");
    static obs::Counter& rhs_cols = obs::counter("cholesky.rhs_cols");
    ++solves;
    ++rhs_cols;
    VectorD y(n);
    for (std::size_t i = 0; i < n; ++i) {
        double acc = b[i];
        const double* row = g_.row(i);
        for (std::size_t j = 0; j < i; ++j) acc -= row[j] * y[j];
        y[i] = acc / row[i];
    }
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = y[ii];
        for (std::size_t j = ii + 1; j < n; ++j) acc -= g_(j, ii) * y[j];
        y[ii] = acc / g_(ii, ii);
    }
    return y;
}

MatrixD Cholesky::solve(const MatrixD& b) const {
    const std::size_t n = g_.rows();
    const std::size_t nrhs = b.cols();
    PGSI_REQUIRE(b.rows() == n, "Cholesky solve: rhs row count mismatch");
    static obs::Counter& solves = obs::counter("cholesky.solves");
    static obs::Counter& rhs_cols = obs::counter("cholesky.rhs_cols");
    ++solves;
    rhs_cols.add(nrhs);
    if (nrhs == 0) return MatrixD(n, 0);
    MatrixD x = b;
    // Forward-substitute G y = B blockwise, every RHS column at once.
    for (std::size_t k0 = 0; k0 < n; k0 += kBlock) {
        const std::size_t kend = std::min(k0 + kBlock, n);
        par::parallel_for_chunked(
            nrhs, kRhsGrain, [&](std::size_t j0, std::size_t j1) {
                const std::size_t nc = j1 - j0;
                for (std::size_t i = k0; i < kend; ++i) {
                    double* xi = x.row(i) + j0;
                    for (std::size_t t = k0; t < i; ++t) {
                        const double git = g_(i, t);
                        const double* xt = x.row(t) + j0;
                        for (std::size_t j = 0; j < nc; ++j) xi[j] -= git * xt[j];
                    }
                    const double diag = g_(i, i);
                    for (std::size_t j = 0; j < nc; ++j) xi[j] /= diag;
                }
            });
        if (kend < n)
            detail::gemm_update(-1.0, g_.row(kend) + k0, n, x.row(k0), nrhs,
                                x.row(kend), nrhs, n - kend, kend - k0, nrhs);
    }
    // Back-substitute G^T x = y blockwise. G^T's off-diagonal block is the
    // transpose of the panel below the diagonal block; pack it once so the
    // update runs as a plain GEMM over contiguous rows.
    std::vector<double> packed;
    for (std::size_t kend = n; kend > 0;) {
        const std::size_t k0 = kend > kBlock ? kend - kBlock : 0;
        const std::size_t kb = kend - k0;
        if (kend < n) {
            packed.resize(kb * (n - kend));
            for (std::size_t i = k0; i < kend; ++i)
                for (std::size_t r = kend; r < n; ++r)
                    packed[(i - k0) * (n - kend) + (r - kend)] = g_(r, i);
            detail::gemm_update(-1.0, packed.data(), n - kend, x.row(kend),
                                nrhs, x.row(k0), nrhs, kb, n - kend, nrhs);
        }
        par::parallel_for_chunked(
            nrhs, kRhsGrain, [&](std::size_t j0, std::size_t j1) {
                const std::size_t nc = j1 - j0;
                for (std::size_t ii = kend; ii-- > k0;) {
                    double* xi = x.row(ii) + j0;
                    for (std::size_t t = ii + 1; t < kend; ++t) {
                        const double gti = g_(t, ii);
                        const double* xt = x.row(t) + j0;
                        for (std::size_t j = 0; j < nc; ++j) xi[j] -= gti * xt[j];
                    }
                    const double diag = g_(ii, ii);
                    for (std::size_t j = 0; j < nc; ++j) xi[j] /= diag;
                }
            });
        kend = k0;
    }
    return x;
}

MatrixD Cholesky::inverse() const {
    return solve(MatrixD::identity(g_.rows()));
}

double Cholesky::condition_estimate() const {
    // Hager's 1-norm estimator for B = A⁻¹; A (hence B) is symmetric, so the
    // transpose application is the same solve.
    const std::size_t n = g_.rows();
    if (n == 0) return 0;
    VectorD x(n, 1.0 / static_cast<double>(n));
    double est = 0;
    std::size_t last_j = n;
    for (int iter = 0; iter < 5; ++iter) {
        const VectorD y = solve(x);
        double ynorm = 0;
        for (double v : y) ynorm += std::abs(v);
        est = std::max(est, ynorm);
        VectorD xi(n);
        for (std::size_t i = 0; i < n; ++i) xi[i] = y[i] < 0 ? -1.0 : 1.0;
        const VectorD z = solve(xi);
        std::size_t j = 0;
        double zmax = 0, zx = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const double m = std::abs(z[i]);
            if (m > zmax) {
                zmax = m;
                j = i;
            }
            zx += z[i] * x[i];
        }
        if (j == last_j || zmax <= zx) break;
        x.assign(n, 0.0);
        x[j] = 1.0;
        last_j = j;
    }
    return anorm1_ * est;
}

bool is_spd(const MatrixD& a) {
    if (!a.square()) return false;
    try {
        Cholesky c(a);
        return true;
    } catch (const NumericalError&) {
        return false;
    }
}

MatrixD spd_solve(const MatrixD& a, const MatrixD& b, const char* fault_site,
                  const char* recovery_site, const char* what) {
    try {
        if (robust::FaultInjector::should_fire(fault_site))
            throw NumericalError(std::string("injected fault at ") + fault_site);
        return Cholesky(a).solve(b);
    } catch (const NumericalError& e) {
        robust::note_recovery(nullptr, recovery_site,
                              std::string(what) + ": " + e.what() +
                                  "; solved by pivoted LU");
        return Lu<double>(a).solve(b);
    }
}

} // namespace pgsi

#include "numeric/cholesky.hpp"

#include <cmath>
#include <vector>

#include "common/parallel.hpp"
#include "common/robust.hpp"
#include "numeric/gemm.hpp"
#include "numeric/lu.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pgsi {

namespace {

// Panel width of the blocked right-looking factorization (see lu.cpp for the
// sizing rationale), row grain of the parallel panel solve, and RHS-column
// grain of the in-block substitutions.
constexpr std::size_t kBlock = 64;
constexpr std::size_t kRhsGrain = 64;
constexpr std::size_t kSubstGrain = 8;
// 4-row blocks of the trailing update per pool chunk.
constexpr std::size_t kTileGrain = 4;

} // namespace

Cholesky::Cholesky(const MatrixD& a) : g_(a.rows(), a.cols()) {
    PGSI_REQUIRE(a.square(), "Cholesky requires a square matrix");
    PGSI_TRACE_SCOPE("cholesky.factor");
    const std::size_t n = a.rows();
    {
        static obs::Counter& factorizations =
            obs::counter("cholesky.factorizations");
        static obs::Histogram& sizes = obs::histogram("cholesky.n");
        ++factorizations;
        sizes.record(static_cast<double>(n));
    }
    // Copy the lower triangle of A, then factor in place blockwise: factor
    // the diagonal block, triangular-solve the panel below it, and fold the
    // panel into the trailing lower triangle (the O(n^3) bulk, parallel over
    // 4-row blocks; per-entry accumulation order is fixed, so results are
    // thread-count invariant).
    for (std::size_t i = 0; i < n; ++i) {
        const double* arow = a.row(i);
        double* grow = g_.row(i);
        for (std::size_t j = 0; j <= i; ++j) grow[j] = arow[j];
    }
    std::vector<double> panel;
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
        // Trailing update A22 -= G21 * G21^T, lower triangle only. G21 is
        // packed transposed (column t of the panel is one contiguous row,
        // zero-padded to whole 4-row blocks), and each 4×4 tile of A22 runs
        // its 16 dot products side by side: every entry still takes
        // s = Σ_t G(i,t)·G(j,t) over t ascending from +0, then A(i,j) -= s.
        const std::size_t kb = kend - k0, rest = n - kend;
        const std::size_t ld = (rest + 3) / 4 * 4;
        panel.assign(kb * ld, 0.0);
        for (std::size_t r = 0; r < rest; ++r) {
            const double* gr = g_.row(kend + r) + k0;
            for (std::size_t t = 0; t < kb; ++t) panel[t * ld + r] = gr[t];
        }
        par::parallel_for_chunked(
            ld / 4, kTileGrain, [&](std::size_t b0, std::size_t b1) {
                double s[4][4] = {};
                for (std::size_t i0 = 4 * b0; i0 < 4 * b1; i0 += 4)
                    for (std::size_t j0 = 0; j0 <= i0; j0 += 4) {
                        detail::dot_tile(panel.data() + i0, ld, panel.data() + j0,
                                         ld, kb, s);
                        for (std::size_t r = 0; r < 4 && i0 + r < rest; ++r) {
                            double* grow = g_.row(kend + i0 + r) + kend;
                            for (std::size_t c = 0; c < 4 && j0 + c <= i0 + r; ++c)
                                grow[j0 + c] -= s[r][c];
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
    PGSI_TRACE_SCOPE("cholesky.solve");
    static obs::Counter& solves = obs::counter("cholesky.solves");
    static obs::Counter& rhs_cols = obs::counter("cholesky.rhs_cols");
    ++solves;
    rhs_cols.add(nrhs);
    if (nrhs == 0) return MatrixD(n, 0);
    MatrixD x = b;
    // The in-block substitutions run on a copy of the block's rows of X
    // laid out one RHS column per row (xc), so each worker owns whole
    // columns and reads G and X contiguously; every entry still takes
    // x -= G(i,t)·x(t) over t in the row-at-a-time order, then x /= G(i,i).
    std::vector<double> xc(nrhs * std::min(kBlock, n));
    const auto load = [&](std::size_t k0, std::size_t kb) {
        for (std::size_t i = 0; i < kb; ++i)
            for (std::size_t j = 0; j < nrhs; ++j) xc[j * kb + i] = x(k0 + i, j);
    };
    const auto store = [&](std::size_t k0, std::size_t kb) {
        for (std::size_t i = 0; i < kb; ++i)
            for (std::size_t j = 0; j < nrhs; ++j) x(k0 + i, j) = xc[j * kb + i];
    };
    // Forward-substitute G y = B blockwise, every RHS column at once.
    for (std::size_t k0 = 0; k0 < n; k0 += kBlock) {
        const std::size_t kend = std::min(k0 + kBlock, n), kb = kend - k0;
        load(k0, kb);
        par::parallel_for_chunked(
            nrhs, kSubstGrain, [&](std::size_t j0, std::size_t j1) {
                for (std::size_t j = j0; j < j1; ++j) {
                    double* col = xc.data() + j * kb;
                    for (std::size_t i = 0; i < kb; ++i)
                        col[i] = detail::dot_sub(col[i], g_.row(k0 + i) + k0, col, i) /
                                 g_(k0 + i, k0 + i);
                }
            });
        store(k0, kb);
        if (kend < n)
            detail::gemm_update(-1.0, g_.row(kend) + k0, n, x.row(k0), nrhs,
                                x.row(kend), nrhs, n - kend, kb, nrhs);
    }
    // Back-substitute G^T x = y blockwise. G^T's off-diagonal block is the
    // transpose of the panel below the diagonal block; pack it once, 16
    // panel rows at a time, so the update runs as a plain GEMM over
    // contiguous rows. The diagonal block's transpose goes to gt.
    std::vector<double> packed, gt;
    for (std::size_t kend = n; kend > 0;) {
        const std::size_t k0 = kend > kBlock ? kend - kBlock : 0;
        const std::size_t kb = kend - k0, rest = n - kend;
        if (kend < n) {
            packed.resize(kb * rest);
            for (std::size_t r0 = 0; r0 < rest; r0 += 16)
                for (std::size_t i = 0; i < kb; ++i)
                    for (std::size_t r = r0; r < std::min(r0 + 16, rest); ++r)
                        packed[i * rest + r] = g_(kend + r, k0 + i);
            detail::gemm_update(-1.0, packed.data(), rest, x.row(kend), nrhs,
                                x.row(k0), nrhs, kb, rest, nrhs);
        }
        gt.resize(kb * kb);
        for (std::size_t t = 0; t < kb; ++t)
            for (std::size_t i = 0; i < t; ++i) gt[i * kb + t] = g_(k0 + t, k0 + i);
        load(k0, kb);
        par::parallel_for_chunked(
            nrhs, kSubstGrain, [&](std::size_t j0, std::size_t j1) {
                for (std::size_t j = j0; j < j1; ++j) {
                    double* col = xc.data() + j * kb;
                    for (std::size_t i = kb; i-- > 0;)
                        col[i] = detail::dot_sub(col[i], gt.data() + i * kb + i + 1,
                                                 col + i + 1, kb - i - 1) /
                                 g_(k0 + i, k0 + i);
                }
            });
        store(k0, kb);
        kend = k0;
    }
    return x;
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

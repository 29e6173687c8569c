#include "numeric/gemm.hpp"

#include <algorithm>
#include <vector>

#include "common/parallel.hpp"

namespace pgsi::detail {

namespace {

// Panel height: kc rows of B (~kc*n elements) stay resident in cache while
// every row block of C streams over them. 256 doubles/row keeps the packed
// panel under L2 for the mesh sizes pgsi runs (n up to a few thousand).
constexpr std::size_t kPanelK = 256;
// Row grain handed to the pool: big enough to amortize dispatch, small
// enough to balance ragged trailing updates.
constexpr std::size_t kRowGrain = 16;
// Samples per row block when the real update picks its schedule.
constexpr std::size_t kDensitySamples = 16;

/// c0..c3[0..4) += ap[4p + r]·b[p·ldb + 0..4) for rows r = 0..3, p
/// ascending over [0, kb), where row r skips every p with ap[4p + r] == 0:
/// the per-element sequence of the row-at-a-time update, with the 16 sums
/// held in registers. full[p] marks the p at which all four rows update.
inline void tile4x4(const double* ap, const unsigned char* full,
                    std::size_t kb, const double* b, std::size_t ldb,
                    double* c0, double* c1, double* c2, double* c3) {
    double t00 = c0[0], t01 = c0[1], t02 = c0[2], t03 = c0[3];
    double t10 = c1[0], t11 = c1[1], t12 = c1[2], t13 = c1[3];
    double t20 = c2[0], t21 = c2[1], t22 = c2[2], t23 = c2[3];
    double t30 = c3[0], t31 = c3[1], t32 = c3[2], t33 = c3[3];
    for (std::size_t p = 0; p < kb; ++p, ap += 4, b += ldb) {
        const double b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3];
        const double a0 = ap[0], a1 = ap[1], a2 = ap[2], a3 = ap[3];
        const bool all = full[p];
        if (all || a0 != 0) {
            t00 += a0 * b0; t01 += a0 * b1; t02 += a0 * b2; t03 += a0 * b3;
        }
        if (all || a1 != 0) {
            t10 += a1 * b0; t11 += a1 * b1; t12 += a1 * b2; t13 += a1 * b3;
        }
        if (all || a2 != 0) {
            t20 += a2 * b0; t21 += a2 * b1; t22 += a2 * b2; t23 += a2 * b3;
        }
        if (all || a3 != 0) {
            t30 += a3 * b0; t31 += a3 * b1; t32 += a3 * b2; t33 += a3 * b3;
        }
    }
    c0[0] = t00; c0[1] = t01; c0[2] = t02; c0[3] = t03;
    c1[0] = t10; c1[1] = t11; c1[2] = t12; c1[3] = t13;
    c2[0] = t20; c2[1] = t21; c2[2] = t22; c2[3] = t23;
    c3[0] = t30; c3[1] = t31; c3[2] = t32; c3[3] = t33;
}

} // namespace

template <class T>
void gemm_update(T alpha, const T* a, std::size_t lda, const T* b,
                 std::size_t ldb, T* c, std::size_t ldc, std::size_t m,
                 std::size_t k, std::size_t n) {
    if (m == 0 || n == 0 || k == 0 || alpha == T{}) return;
    std::vector<T> packed(std::min(kPanelK, k) * n);
    for (std::size_t k0 = 0; k0 < k; k0 += kPanelK) {
        const std::size_t kb = std::min(kPanelK, k - k0);
        // Pack the B panel rows [k0, k0+kb) contiguously; a plain copy for
        // full matrices, a gather for strided submatrix views.
        for (std::size_t p = 0; p < kb; ++p) {
            const T* src = b + (k0 + p) * ldb;
            std::copy(src, src + n, packed.data() + p * n);
        }
        par::parallel_for_chunked(m, kRowGrain, [&](std::size_t i0,
                                                    std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i) {
                const T* arow = a + i * lda + k0;
                T* crow = c + i * ldc;
                for (std::size_t p = 0; p < kb; ++p) {
                    const T aik = alpha * arow[p];
                    if (aik == T{}) continue; // sparse operands (incidence)
                    axpy<false>(aik, packed.data() + p * n, crow, n);
                }
            }
        });
    }
}

template <>
void gemm_update<double>(double alpha, const double* a, std::size_t lda,
                         const double* b, std::size_t ldb, double* c,
                         std::size_t ldc, std::size_t m, std::size_t k,
                         std::size_t n) {
    if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
    // Packed B rows are zero-padded to whole 4-column tiles.
    const std::size_t nb = (n + 3) / 4 * 4;
    std::vector<double> packed(std::min(kPanelK, k) * nb);
    for (std::size_t k0 = 0; k0 < k; k0 += kPanelK) {
        const std::size_t kb = std::min(kPanelK, k - k0);
        for (std::size_t p = 0; p < kb; ++p) {
            const double* src = b + (k0 + p) * ldb;
            std::copy(src, src + n, packed.data() + p * nb);
        }
        par::parallel_for_chunked(
            (m + 3) / 4, kRowGrain / 4, [&](std::size_t q0, std::size_t q1) {
                double ap[4 * kPanelK] = {}; // alpha·A, 4 rows per p
                unsigned char full[kPanelK] = {};
                double edge[4][4] = {};
                for (std::size_t q = q0; q < q1; ++q) {
                    // Rows past m repeat the last row; their sums are
                    // computed and dropped.
                    const std::size_t i0 = 4 * q, rows = std::min<std::size_t>(4, m - i0);
                    const double* arow[4] = {};
                    double* crow[4] = {};
                    for (std::size_t r = 0; r < 4; ++r) {
                        const std::size_t i = i0 + std::min(r, rows - 1);
                        arow[r] = a + i * lda + k0;
                        crow[r] = c + i * ldc;
                    }
                    // A mostly-zero block (an incidence operand) runs row at
                    // a time and touches only its nonzeros. Both schedules
                    // give every C element the same sequence of operations.
                    std::size_t nonzero = 0, samples = 0;
                    const std::size_t stride =
                        std::max<std::size_t>(1, kb / kDensitySamples);
                    for (std::size_t p = 0; p < kb; p += stride, samples += 4)
                        for (std::size_t r = 0; r < 4; ++r) nonzero += arow[r][p] != 0;
                    if (4 * nonzero < 3 * samples) {
                        for (std::size_t r = 0; r < rows; ++r)
                            for (std::size_t p = 0; p < kb; ++p) {
                                const double aik = alpha * arow[r][p];
                                if (aik == 0) continue; // sparse operands
                                axpy<false>(aik, packed.data() + p * nb, crow[r], n);
                            }
                        continue;
                    }
                    for (std::size_t p = 0; p < kb; ++p) {
                        bool all = true;
                        for (std::size_t r = 0; r < 4; ++r) {
                            ap[4 * p + r] = alpha * arow[r][p];
                            all &= ap[4 * p + r] != 0;
                        }
                        full[p] = all;
                    }
                    for (std::size_t j0 = 0; j0 < n; j0 += 4) {
                        const std::size_t cols = std::min<std::size_t>(4, n - j0);
                        if (rows == 4 && cols == 4) {
                            tile4x4(ap, full, kb, packed.data() + j0,
                                    nb, crow[0] + j0, crow[1] + j0, crow[2] + j0,
                                    crow[3] + j0);
                            continue;
                        }
                        // Ragged edge: the tile runs on a copy of C.
                        for (std::size_t r = 0; r < 4; ++r)
                            for (std::size_t j = 0; j < 4; ++j)
                                edge[r][j] = j < cols ? crow[r][j0 + j] : 0.0;
                        tile4x4(ap, full, kb, packed.data() + j0, nb,
                                edge[0], edge[1], edge[2], edge[3]);
                        for (std::size_t r = 0; r < rows; ++r)
                            std::copy(edge[r], edge[r] + cols, crow[r] + j0);
                    }
                }
            });
    }
}

template void gemm_update<std::complex<double>>(
    std::complex<double>, const std::complex<double>*, std::size_t,
    const std::complex<double>*, std::size_t, std::complex<double>*,
    std::size_t, std::size_t, std::size_t, std::size_t);

} // namespace pgsi::detail

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

template void gemm_update<double>(double, const double*, std::size_t,
                                  const double*, std::size_t, double*,
                                  std::size_t, std::size_t, std::size_t,
                                  std::size_t);
template void gemm_update<std::complex<double>>(
    std::complex<double>, const std::complex<double>*, std::size_t,
    const std::complex<double>*, std::size_t, std::complex<double>*,
    std::size_t, std::size_t, std::size_t, std::size_t);

} // namespace pgsi::detail

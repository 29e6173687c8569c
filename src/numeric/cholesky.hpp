// Cholesky factorization for symmetric positive-definite matrices.
//
// The partial-inductance and potential-coefficient matrices of the plane BEM
// are SPD by construction (energy matrices of a passive structure); Cholesky
// both halves the factorization cost and acts as a passivity check — a failed
// factorization flags a broken Green's-function evaluation long before it
// could surface as a non-physical extracted circuit.
//
// The factorization is blocked right-looking with 64-column panels. Its
// O(n³) bulk, the trailing update A22 -= G21·G21ᵀ, runs as 4×4 register
// tiles over a transposed, zero-padded copy of the panel
// (detail::dot_tile): each entry's dot product still runs t ascending from
// +0 and is subtracted once, so the factor is bitwise that of the
// row-by-row loop at any thread count. The multi-RHS solve pushes its
// off-diagonal blocks through the real GEMM update and substitutes inside
// each diagonal block one RHS column per worker. Both record spans,
// `cholesky.factor` and `cholesky.solve`.
#pragma once

#include "numeric/matrix.hpp"

namespace pgsi {

/// Cholesky factorization A = G G^T of a symmetric positive-definite matrix.
class Cholesky {
public:
    /// Factor a. Throws NumericalError if a is not positive definite.
    explicit Cholesky(const MatrixD& a);

    /// Solve A X = B for every column of B at once.
    MatrixD solve(const MatrixD& b) const;

    /// Lower-triangular factor G.
    const MatrixD& factor() const { return g_; }

    std::size_t size() const { return g_.rows(); }

private:
    MatrixD g_; // lower triangular
};

/// True if a is symmetric positive definite (attempts a Cholesky factorization).
bool is_spd(const MatrixD& a);

} // namespace pgsi

// LU factorization with partial pivoting for dense real/complex systems.
//
// The factorization is stored so it can be reused across many right-hand
// sides. It serves the matrices that really are dense: BEM extraction,
// transmission-line and S-parameter blocks, and the complex AC solve. The
// sparse DC and transient MNA systems use SparseLu (numeric/sparse_lu.hpp).
#pragma once

#include "numeric/matrix.hpp"

namespace pgsi {

/// LU decomposition with partial pivoting of a square matrix over T.
template <class T>
class Lu {
public:
    /// Factor a (copies it). Throws NumericalError if a is singular to
    /// working precision.
    explicit Lu(Matrix<T> a);

    /// Solve A x = b for a single right-hand side.
    std::vector<T> solve(const std::vector<T>& b) const;

    /// Solve A X = B column by column.
    Matrix<T> solve(const Matrix<T>& b) const;

    /// Inverse of A (solves against the identity).
    Matrix<T> inverse() const;

    /// Determinant of A (product of pivots with permutation sign).
    T determinant() const;

    /// Hager/Higham estimate of the 1-norm condition number κ₁(A) =
    /// ‖A‖₁·‖A⁻¹‖₁, from a handful of O(n²) solves against the stored
    /// factors (a lower bound, usually within a small factor of the truth).
    double condition_estimate() const;

    std::size_t size() const { return lu_.rows(); }

private:
    /// Solve Aᴴ x = b through the stored factors (Hager estimator needs it).
    std::vector<T> solve_adjoint(const std::vector<T>& b) const;

    Matrix<T> lu_;             // combined L (unit lower) and U factors
    std::vector<std::size_t> perm_; // row permutation
    double anorm1_ = 0;        // ‖A‖₁ of the input matrix
    int sign_ = 1;
};

extern template class Lu<double>;
extern template class Lu<Complex>;

} // namespace pgsi

// Sparse LU factorization for the circuit (MNA) systems (§5.1, eq. (28)).
//
// The MNA matrix of an extracted power/ground network is very sparse: the
// E6 post-layout board has 572 unknowns and ~1.9k structural nonzeros. A
// fill-reducing ordering keeps L+U near that size, so a factor costs a few
// thousand multiply-adds and a solve two sweeps over ~2k entries.
//
// Design (after Gilbert & Peierls, "Sparse partial pivoting in time
// proportional to arithmetic operations", and Davis's KLU):
//  - CSC storage (CscMatrix), assembled from (row, col, value) entries with
//    duplicates summed in insertion order, so a stamped matrix carries the
//    same values as its dense counterpart.
//  - Symbolic analysis once per pattern: a minimum-degree column ordering of
//    the pattern of A+Aᵀ. The MNA pattern is fixed for a netlist, so a
//    refactor with new values reuses it.
//  - Left-looking numeric factor: column k of L and U is one sparse
//    triangular solve whose nonzero pattern comes from a depth-first search
//    of L's graph. Threshold partial pivoting keeps the diagonal when
//    |a_kk| ≥ 0.1·max|column|, which preserves the ordering's fill; it still
//    pivots away from the zero diagonals of voltage-source and L = R = 0
//    inductor branch rows.
//  - Serial by design: results are bitwise identical at any thread count.
//
// The fault site `lu.pivot` fires at the start of every numeric factor, and
// the obs counters `lu.factorizations` / `lu.solves` count sparse factors
// and solves alongside the dense Lu's.
#pragma once

#include <cstddef>
#include <vector>

namespace pgsi {

/// One (row, col, value) contribution to a sparse matrix.
struct SparseEntry {
    std::size_t row = 0, col = 0;
    double value = 0;
};

/// Square sparse matrix in compressed sparse column form. Row indices are
/// ascending within a column; explicit zeros are part of the pattern.
struct CscMatrix {
    std::size_t n = 0;
    std::vector<std::size_t> col_ptr{0}; ///< n + 1 column starts
    std::vector<std::size_t> row_idx;    ///< row of each stored entry
    std::vector<double> values;          ///< value of each stored entry

    /// Assemble an n×n matrix. Entries at the same position are summed in
    /// the order given, starting from zero (exactly as stamping into a
    /// zeroed dense matrix would), and zero values still claim a position.
    static CscMatrix from_entries(std::size_t n,
                                  const std::vector<SparseEntry>& entries);

    /// Add v to entry (i, j). Throws InvalidArgument when (i, j) is not in
    /// the pattern.
    void add(std::size_t i, std::size_t j, double v);

    std::size_t nnz() const { return row_idx.size(); }
};

/// Sparse LU with a fill-reducing column ordering: P·A·Q = L·U, L unit
/// lower triangular, U upper triangular.
class SparseLu {
public:
    /// Analyze a's pattern (the minimum-degree column ordering), then factor
    /// its values. Throws NumericalError when a is singular.
    explicit SparseLu(const CscMatrix& a);

    /// Numeric factor of new values on the analyzed pattern (same ordering).
    /// Throws InvalidArgument on a different pattern (the factor is kept)
    /// and NumericalError when a is singular; after that, solves throw
    /// InvalidArgument until a refactor succeeds.
    void refactor(const CscMatrix& a);

    /// Solve A x = b.
    std::vector<double> solve(const std::vector<double>& b) const;

    /// Solve Aᵀ x = b.
    std::vector<double> solve_transpose(const std::vector<double>& b) const;

    /// Hager/Higham estimate of κ₁(A) = ‖A‖₁·‖A⁻¹‖₁ from a handful of
    /// solves and transpose solves (a lower bound, usually within a small
    /// factor of the truth).
    double condition_estimate() const;

    /// nnz(L) + nnz(U): stored entries of the factor (L's unit diagonal is
    /// implicit, U's diagonal is stored).
    std::size_t nnz() const { return li_.size() + ui_.size(); }
    /// Multiply-adds executed by the latest numeric factor.
    std::size_t flops() const { return flops_; }
    /// Column ordering: step k eliminates column order()[k].
    const std::vector<std::size_t>& order() const { return q_; }

private:
    void factor(const CscMatrix& a);
    std::size_t reach(const CscMatrix& a, std::size_t col, std::size_t k);

    std::size_t n_ = 0;
    std::vector<std::size_t> ap_, ai_; // analyzed pattern
    std::vector<std::size_t> q_;       // column ordering
    std::vector<std::size_t> pinv_;    // row i is the pivot of step pinv_[i]
    // L by columns, strictly lower, rows in pivot order.
    std::vector<std::size_t> lp_, li_;
    std::vector<double> lx_;
    // U by columns, rows in pivot order, diagonal last in each column.
    std::vector<std::size_t> up_, ui_;
    std::vector<double> ux_;
    double anorm1_ = 0; // ‖A‖₁ of the factored values
    std::size_t flops_ = 0;
    bool factored_ = false; // the last numeric factor completed
    // Factor workspace: dense column, DFS output/stacks and visit marks.
    std::vector<double> x_;
    std::vector<std::size_t> xi_, stack_, pstack_, mark_;
};

} // namespace pgsi

// Dense, row-major matrix and vector utilities.
//
// pgsi carries its own small dense linear-algebra layer: the BEM system
// matrices (potential coefficients, partial inductances) are inherently dense,
// and the meshes used for power/ground plane extraction are sized so that
// dense factorizations stay within seconds on a workstation — the operating
// point the paper targets (§2).
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <initializer_list>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "numeric/gemm.hpp"
#include "obs/resource.hpp"

namespace pgsi {

using Complex = std::complex<double>;

/// Dense row-major matrix over T (double or std::complex<double>).
template <class T>
class Matrix {
public:
    /// Empty 0x0 matrix.
    Matrix() = default;

    /// rows x cols matrix, zero-initialized.
    Matrix(std::size_t rows, std::size_t cols, T init = T{})
        : rows_(rows), cols_(cols), data_(rows * cols, init) {
        obs::note_matrix_alloc(data_.size() * sizeof(T));
    }

    /// Build from nested initializer list (row by row). Rows must be equal length.
    Matrix(std::initializer_list<std::initializer_list<T>> rows) {
        rows_ = rows.size();
        cols_ = rows_ ? rows.begin()->size() : 0;
        data_.reserve(rows_ * cols_);
        for (const auto& r : rows) {
            PGSI_REQUIRE(r.size() == cols_, "ragged initializer list");
            data_.insert(data_.end(), r.begin(), r.end());
        }
        obs::note_matrix_alloc(data_.size() * sizeof(T));
    }

    /// Identity matrix of size n.
    static Matrix identity(std::size_t n) {
        Matrix m(n, n);
        for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
        return m;
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return data_.empty(); }
    bool square() const { return rows_ == cols_; }

    T& operator()(std::size_t i, std::size_t j) { return data_[i * cols_ + j]; }
    const T& operator()(std::size_t i, std::size_t j) const { return data_[i * cols_ + j]; }

    /// Raw storage access (row-major), for tight inner loops.
    T* data() { return data_.data(); }
    const T* data() const { return data_.data(); }
    /// Pointer to the start of row i.
    T* row(std::size_t i) { return data_.data() + i * cols_; }
    const T* row(std::size_t i) const { return data_.data() + i * cols_; }

    /// Transposed copy.
    Matrix transposed() const {
        Matrix t(cols_, rows_);
        for (std::size_t i = 0; i < rows_; ++i)
            for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
        return t;
    }

    /// Extract the submatrix with the given row and column index sets.
    Matrix submatrix(const std::vector<std::size_t>& ri,
                     const std::vector<std::size_t>& ci) const {
        Matrix s(ri.size(), ci.size());
        for (std::size_t i = 0; i < ri.size(); ++i) {
            PGSI_REQUIRE(ri[i] < rows_, "row index out of range");
            for (std::size_t j = 0; j < ci.size(); ++j) {
                PGSI_REQUIRE(ci[j] < cols_, "column index out of range");
                s(i, j) = (*this)(ri[i], ci[j]);
            }
        }
        return s;
    }

    Matrix& operator+=(const Matrix& o) {
        PGSI_REQUIRE(rows_ == o.rows_ && cols_ == o.cols_, "shape mismatch in +=");
        for (std::size_t k = 0; k < data_.size(); ++k) data_[k] += o.data_[k];
        return *this;
    }
    Matrix& operator-=(const Matrix& o) {
        PGSI_REQUIRE(rows_ == o.rows_ && cols_ == o.cols_, "shape mismatch in -=");
        for (std::size_t k = 0; k < data_.size(); ++k) data_[k] -= o.data_[k];
        return *this;
    }
    Matrix& operator*=(T s) {
        for (auto& v : data_) v *= s;
        return *this;
    }

    friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
    friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
    friend Matrix operator*(Matrix a, T s) { return a *= s; }
    friend Matrix operator*(T s, Matrix a) { return a *= s; }

    /// Matrix-matrix product. Cache-blocked and pool-parallel for the
    /// double/complex instantiations (numeric/gemm.hpp); scalar fallback
    /// otherwise.
    friend Matrix operator*(const Matrix& a, const Matrix& b) {
        PGSI_REQUIRE(a.cols_ == b.rows_, "shape mismatch in matrix product");
        Matrix c(a.rows_, b.cols_);
        if constexpr (std::is_same_v<T, double> ||
                      std::is_same_v<T, std::complex<double>>) {
            detail::gemm_update(T{1}, a.data(), a.cols_, b.data(), b.cols_,
                                c.data(), c.cols_, a.rows_, a.cols_, b.cols_);
        } else {
            for (std::size_t i = 0; i < a.rows_; ++i) {
                for (std::size_t k = 0; k < a.cols_; ++k) {
                    const T aik = a(i, k);
                    if (aik == T{}) continue;
                    const T* brow = b.row(k);
                    T* crow = c.row(i);
                    for (std::size_t j = 0; j < b.cols_; ++j)
                        crow[j] += aik * brow[j];
                }
            }
        }
        return c;
    }

    /// Matrix-vector product.
    friend std::vector<T> operator*(const Matrix& a, const std::vector<T>& x) {
        PGSI_REQUIRE(a.cols_ == x.size(), "shape mismatch in matrix-vector product");
        std::vector<T> y(a.rows_, T{});
        for (std::size_t i = 0; i < a.rows_; ++i) {
            const T* arow = a.row(i);
            T acc{};
            for (std::size_t j = 0; j < a.cols_; ++j) acc += arow[j] * x[j];
            y[i] = acc;
        }
        return y;
    }

    /// Maximum absolute entry (infinity norm of the flattened matrix).
    double max_abs() const {
        double m = 0;
        for (const auto& v : data_) m = std::max(m, std::abs(v));
        return m;
    }

    /// Symmetry defect: max |A - A^T| entry. Zero for symmetric matrices.
    double asymmetry() const {
        PGSI_REQUIRE(square(), "asymmetry() requires a square matrix");
        double m = 0;
        for (std::size_t i = 0; i < rows_; ++i)
            for (std::size_t j = i + 1; j < cols_; ++j)
                m = std::max(m, std::abs((*this)(i, j) - (*this)(j, i)));
        return m;
    }

private:
    std::size_t rows_ = 0, cols_ = 0;
    std::vector<T> data_;
};

using MatrixD = Matrix<double>;
using MatrixC = Matrix<Complex>;
using VectorD = std::vector<double>;
using VectorC = std::vector<Complex>;

/// Euclidean norm of a vector.
double norm2(const VectorD& v);
double norm2(const VectorC& v);

/// Maximum absolute entry of a vector.
double max_abs(const VectorD& v);
double max_abs(const VectorC& v);

/// Dot product (no conjugation).
double dot(const VectorD& a, const VectorD& b);
/// Conjugated inner product <a, b> = sum conj(a_i) b_i, accumulated serially
/// so results are bitwise independent of the thread count.
Complex dot(const VectorC& a, const VectorC& b);

/// y += s * x
void axpy(double s, const VectorD& x, VectorD& y);

/// Copy the strict lower triangle of square a onto its upper triangle.
/// Pool-parallel: each task owns a band of 32 upper rows and fills it in
/// 32×32 tiles, reading the matching lower tile column-wise.
void mirror_lower(MatrixD& a);

/// Promote a real matrix to a complex one.
MatrixC to_complex(const MatrixD& m);

/// Real and imaginary parts of a complex matrix.
MatrixD real_part(const MatrixC& m);
MatrixD imag_part(const MatrixC& m);

} // namespace pgsi

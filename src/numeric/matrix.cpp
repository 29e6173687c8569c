#include "numeric/matrix.hpp"

#include <cmath>

#include "common/parallel.hpp"
#include "numeric/gemm.hpp"

namespace pgsi {

double norm2(const VectorD& v) {
    double s = 0;
    for (double x : v) s += x * x;
    return std::sqrt(s);
}

double norm2(const VectorC& v) {
    double s = 0;
    for (const auto& x : v) s += std::norm(x);
    return std::sqrt(s);
}

double max_abs(const VectorD& v) {
    double m = 0;
    for (double x : v) m = std::max(m, std::abs(x));
    return m;
}

double max_abs(const VectorC& v) {
    double m = 0;
    for (const auto& x : v) m = std::max(m, std::abs(x));
    return m;
}

double dot(const VectorD& a, const VectorD& b) {
    PGSI_REQUIRE(a.size() == b.size(), "dot: size mismatch");
    double s = 0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
}

Complex dot(const VectorC& a, const VectorC& b) {
    PGSI_REQUIRE(a.size() == b.size(), "dot: size mismatch");
    return detail::dotc(a.data(), b.data(), a.size());
}

void axpy(double s, const VectorD& x, VectorD& y) {
    PGSI_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
    for (std::size_t i = 0; i < x.size(); ++i) y[i] += s * x[i];
}

void mirror_lower(MatrixD& a) {
    PGSI_REQUIRE(a.square(), "mirror_lower: matrix must be square");
    constexpr std::size_t kTile = 32;
    const std::size_t n = a.rows();
    par::parallel_for((n + kTile - 1) / kTile, [&](std::size_t band) {
        const std::size_t i0 = band * kTile, i1 = std::min(i0 + kTile, n);
        for (std::size_t j0 = i0; j0 < n; j0 += kTile) {
            const std::size_t j1 = std::min(j0 + kTile, n);
            for (std::size_t i = i0; i < i1; ++i)
                for (std::size_t j = std::max(j0, i + 1); j < j1; ++j)
                    a(i, j) = a(j, i);
        }
    });
}

MatrixC to_complex(const MatrixD& m) {
    MatrixC c(m.rows(), m.cols());
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j) c(i, j) = Complex(m(i, j), 0.0);
    return c;
}

MatrixD real_part(const MatrixC& m) {
    MatrixD r(m.rows(), m.cols());
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j) r(i, j) = m(i, j).real();
    return r;
}

MatrixD imag_part(const MatrixC& m) {
    MatrixD r(m.rows(), m.cols());
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j) r(i, j) = m(i, j).imag();
    return r;
}

} // namespace pgsi

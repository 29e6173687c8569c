#include "extract/reduction.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "numeric/lu.hpp"

namespace pgsi {

std::vector<std::size_t> complement_indices(std::size_t n,
                                            const std::vector<std::size_t>& keep) {
    std::vector<bool> kept(n, false);
    for (std::size_t k : keep) {
        PGSI_REQUIRE(k < n, "complement_indices: index out of range");
        PGSI_REQUIRE(!kept[k], "complement_indices: duplicate kept index");
        kept[k] = true;
    }
    std::vector<std::size_t> out;
    out.reserve(n - keep.size());
    for (std::size_t i = 0; i < n; ++i)
        if (!kept[i]) out.push_back(i);
    return out;
}

MatrixD schur_reduce(const MatrixD& m, const std::vector<std::size_t>& keep) {
    PGSI_REQUIRE(m.square(), "schur_reduce: matrix must be square");
    PGSI_REQUIRE(!keep.empty(), "schur_reduce: keep set is empty");
    const std::vector<std::size_t> elim = complement_indices(m.rows(), keep);
    if (elim.empty()) return m.submatrix(keep, keep);

    const MatrixD mkk = m.submatrix(keep, keep);
    const MatrixD mke = m.submatrix(keep, elim);
    const MatrixD mek = m.submatrix(elim, keep);
    const MatrixD mee = m.submatrix(elim, elim);

    const MatrixD x = Lu<double>(mee).solve(mek); // mee⁻¹ mek
    MatrixD red = mkk;
    const MatrixD corr = mke * x;
    red -= corr;
    // The inputs are symmetric; restore exact symmetry lost to pivoting.
    symmetrize(red);
    return red;
}

void symmetrize(MatrixD& a) {
    PGSI_REQUIRE(a.square(), "symmetrize: matrix must be square");
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = i + 1; j < a.cols(); ++j) {
            const double v = 0.5 * (a(i, j) + a(j, i));
            a(i, j) = v;
            a(j, i) = v;
        }
}

} // namespace pgsi

// Dense node reduction (§4.2: "for a real design where every external
// connection, such as power/ground pin, is selected as a circuit node").
//
// The BEM produces nodal matrices over every mesh cell; the equivalent
// circuit retains only the designated circuit nodes (pins, probe pads,
// optionally a coarse interior grid). For a Laplacian such as Γ or the DC
// conductance G, internal nodes carry no injected current, so the reduced
// matrix is the Kron (Schur) complement
//
//     M_red = M_kk − M_ke · M_ee⁻¹ · M_ek.
//
// CircuitExtractor no longer calls this: it reduces Γ on a sparse cycle
// basis and G through a sparse LU of G_ee, without forming any all-node
// matrix (extract/equivalent_circuit.hpp). The dense complement stays as
// the reference those paths are tested against (verify::dense_reduction)
// and for callers that already hold an all-node matrix.
#pragma once

#include <vector>

#include "numeric/matrix.hpp"

namespace pgsi {

/// Schur complement of m onto the kept index set:
/// m_kk − m_ke · m_ee⁻¹ · m_ek. Kept indices must be distinct and in range.
MatrixD schur_reduce(const MatrixD& m, const std::vector<std::size_t>& keep);

/// Replace square a by (a + aᵀ)/2: restores the exact symmetry of a
/// symmetric result that rounding or pivoting perturbed.
void symmetrize(MatrixD& a);

/// The complement of `keep` in [0, n).
std::vector<std::size_t> complement_indices(std::size_t n,
                                            const std::vector<std::size_t>& keep);

} // namespace pgsi

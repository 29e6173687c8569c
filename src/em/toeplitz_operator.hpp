// Matrix-free application of the BEM interaction matrices (P and L) via
// circulant embedding of the displacement table plus FFT.
//
// On a uniform-pitch mesh the potential-coefficient and partial-inductance
// matrices are (multilevel) block-Toeplitz: entry (obs, src) depends only on
// the integer lattice displacement and the (z, z') layer pair — exactly the
// structure the displacement-keyed assembly cache exploits. Instead of
// expanding the table into a dense N×N matrix (O(N²) storage) and applying
// it in O(N²), each z-layer pair's offset table is embedded into a circulant
// kernel on an Nx×Ny grid (power-of-two dims ≥ 2·span+1 so circular
// convolution never wraps into occupied sites) whose FFT is precomputed
// once. A matrix-vector product is then
//
//     scatter x to the grid → FFT → multiply by the kernel spectrum →
//     inverse FFT → gather at the element sites
//
// per layer pair: O(N log N) work and O(grid) memory. Meshes with holes or
// irregular outlines simply leave grid sites unoccupied. The result equals
// the dense product up to FFT rounding (~1e-14 relative). The forward
// transform skips the grid rows no element occupies, and the inverse column
// pass stops at the last occupied column; both leave every gathered value
// bitwise unchanged.
//
// One operator application is one pool dispatch: on grids whose transforms
// fit in one chunk, each family applies serially on its own task, so the
// x- and y-directed current families of L run side by side (apply_pair
// runs P's family beside them in the same dispatch). A family whose grid
// is large enough to split instead spreads its row and column chunks over
// the whole pool, one family after another.
//
// InteractionOperator is the uniform front the solvers consume: it applies
// either a set of Toeplitz element families (x/y current cells are separate,
// mutually uncoupled families) or, on meshes without the lattice structure,
// one ACA-compressed H-matrix per family (em/hmatrix.hpp). PlaneBem chooses
// and owns both forms.
#pragma once

#include <memory>
#include <vector>

#include "em/interaction_lattice.hpp"
#include "numeric/fft.hpp"
#include "numeric/matrix.hpp"

namespace pgsi {

class Hmatrix;

/// O(N log N) applier for one congruent element family on a uniform lattice.
class ToeplitzFamily {
public:
    /// lat must be uniform; table is the build_interaction_table layout.
    ToeplitzFamily(Lattice lat, std::vector<double> table);

    std::size_t count() const { return lat_.count(); }

    /// y = T x over the family's elements (both of size count()).
    void apply(const Complex* x, Complex* y) const;

    /// Exact table entry of the (obs, src) element pair.
    double entry(std::size_t obs, std::size_t src) const {
        return table_[table_index(lat_, obs, src)];
    }

    /// Grid memory (complex entries) one application allocates.
    std::size_t grid_size() const { return nx_ * ny_ * lat_.zs.size(); }

    /// True when one application splits its transforms over the pool;
    /// false when it runs entirely on the calling thread.
    bool splits() const { return count() > 0 && fft_2d_splits(ny_, nx_); }

private:
    Lattice lat_;
    std::vector<double> table_;
    std::size_t nx_ = 1, ny_ = 1, nz_ = 1;
    std::size_t cols_ = 1;            ///< grid columns holding elements
    std::vector<std::size_t> site_;   ///< element → grid slot
    /// Per source layer, the grid rows holding an element of that layer:
    /// the other rows of its scattered grid are zero.
    std::vector<std::vector<unsigned char>> live_rows_;
    std::vector<VectorC> kernel_hat_; ///< spectra, indexed zo * nz + zsrc
    Fft fx_, fy_;
};

/// One interaction matrix behind a uniform apply/entry interface, never
/// assembled densely: Toeplitz families on uniform meshes or ACA-compressed
/// H-matrices (em/hmatrix.hpp) otherwise. Cross-family entries are
/// structurally zero.
class InteractionOperator {
public:
    /// Matrix-free form. idx[f] maps family-f-local element order to global
    /// indices; the families must partition [0, size).
    static InteractionOperator toeplitz(std::vector<ToeplitzFamily> families,
                                        std::vector<std::vector<std::size_t>> idx,
                                        std::size_t size);

    /// ACA-compressed form: one H-matrix per element family (same partition
    /// contract as toeplitz()). Parts must be non-null.
    static InteractionOperator hmatrix(
        std::vector<std::shared_ptr<const Hmatrix>> parts,
        std::vector<std::vector<std::size_t>> idx, std::size_t size);

    std::size_t size() const { return size_; }
    /// True for the H-matrix (ACA-compressed) form.
    bool compressed() const { return !hmats_.empty(); }
    /// The H-matrix parts (empty unless compressed()) — build telemetry.
    const std::vector<std::shared_ptr<const Hmatrix>>& hmatrix_parts() const {
        return hmats_;
    }

    /// y = A x (y is resized and overwritten).
    void apply(const VectorC& x, VectorC& y) const;

    /// ya = A xa and yb = B xb, bitwise the two apply() calls. When both
    /// are Toeplitz forms whose grids fit one chunk, every family of both
    /// runs as one task of a single pool dispatch (the P and L applies of
    /// the iterative solver); otherwise A, then B.
    static void apply_pair(const InteractionOperator& a, const VectorC& xa,
                           VectorC& ya, const InteractionOperator& b,
                           const VectorC& xb, VectorC& yb);

    /// Exact matrix entry (table lookup or the H-matrix's entry kernel).
    double entry(std::size_t i, std::size_t j) const;

private:
    InteractionOperator() = default;

    static void apply_pair(const InteractionOperator& a, const VectorC& xa,
                           VectorC& ya, const InteractionOperator* b,
                           const VectorC* xb, VectorC* yb);
    /// Toeplitz form whose families each run serially (one task apiece).
    bool family_tasks() const;
    /// y[idx_[f]] = T_f x[idx_[f]] for Toeplitz family f.
    void apply_family(std::size_t f, const VectorC& x, VectorC& y) const;
    void apply_one(const VectorC& x, VectorC& y) const;

    std::size_t size_ = 0;
    std::vector<ToeplitzFamily> families_;
    std::vector<std::shared_ptr<const Hmatrix>> hmats_;
    std::vector<std::vector<std::size_t>> idx_;
    std::vector<int> family_of_;         ///< global index → family
    std::vector<std::size_t> local_of_;  ///< global index → family-local index
};

} // namespace pgsi

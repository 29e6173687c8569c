// Hierarchical-matrix (H-matrix) compression of the BEM interaction
// operators for meshes without the uniform-lattice structure.
//
// The block-Toeplitz operators (toeplitz_operator.hpp) need every element of
// a family to be congruent and lattice-aligned; on stretched or mixed-pitch
// meshes (and under AssemblyMode::Direct) PlaneBem builds its P and L
// operators from these H-matrices instead, sampling its exact entry kernels,
// so no O(N²) dense assembly or apply is needed. The quasi-static
// kernels 1/r (and their image series) are asymptotically smooth, so the
// interaction between two well-separated element clusters is numerically
// low-rank. This module exploits that directly on the geometry:
//
//  * ClusterTree — recursive median bisection of the element centers
//    (x, y, z), splitting the longest bounding-box axis, down to leaves of
//    `leaf_size` elements. The induced permutation makes every cluster a
//    contiguous index range. Ties are broken by element index, so the tree
//    is deterministic.
//  * Admissibility — a block (t, s) is far-field when
//        eta * dist(bbox_t, bbox_s) >= max(diam_t, diam_s),
//    the standard strong admissibility condition: the kernel restricted to
//    an admissible block is analytic with rapidly decaying singular values.
//  * ACA — adaptive cross approximation with partial pivoting builds a
//    rank-k factorization U Vᵀ of each admissible block from k row and k
//    column slices (O(k(m+n)) kernel evaluations, never the full block).
//    Termination: the new rank-one term satisfies
//        ‖u_k‖·‖v_k‖ <= tol · ‖S_k‖_F
//    with ‖S_k‖_F the running Frobenius estimate of the approximation.
//  * Near field — inadmissible leaf pairs become exact dense blocks (the
//    same role the NearFieldBlock preconditioner tiles play on the solve
//    side).
//
// Each admissible block gets one rule: ACA runs with its rank budget at the
// storage break-even mn/(m+n), and the block stays low-rank when it converges
// and its recompressed rank still stores less than the dense block
// (rank·(m+n) < m·n). Otherwise it is assembled dense and exact — a storage
// verdict, not a failure, so no recovery event is raised.
//
// apply() is threaded through pgsi::par with deterministic partitioning:
// per-block products are computed in parallel into disjoint scratch slots
// and accumulated serially in fixed block order, so results are bit-identical
// at any thread count. The kernel is assumed symmetric (P and L both are);
// only blocks with row-cluster <= col-cluster are stored and the transposed
// contribution is applied on the fly.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <vector>

#include "numeric/matrix.hpp"

namespace pgsi {

/// Tuning knobs of the ACA/H-matrix operators (BemOptions::hmatrix).
struct HmatrixOptions {
    /// Relative Frobenius tolerance of each admissible block's ACA. The
    /// end-to-end Z(f) error tracks this within about an order of magnitude,
    /// so 1e-10 holds the backend-equivalence budget of 1e-8.
    double aca_tol = 1e-10;
    /// Admissibility parameter: far-field when eta*dist >= max cluster diam.
    double eta = 1.5;
    /// Maximum elements in a cluster-tree leaf.
    std::size_t leaf_size = 32;
};

/// Work telemetry of one H-matrix build (its wall time is the
/// em.hmatrix.build span).
struct HmatrixStats {
    std::size_t elements = 0;        ///< matrix dimension
    std::size_t lowrank_blocks = 0;  ///< admissible blocks kept in ACA form
    std::size_t dense_blocks = 0;    ///< near-field + far blocks kept dense
    std::size_t rank_total = 0;      ///< sum of ACA ranks
    std::size_t max_rank_seen = 0;   ///< largest ACA rank
    std::size_t kernel_evals = 0;    ///< total kernel entry evaluations
    std::size_t stored_entries = 0;  ///< coefficients kept (U, V, dense)
    /// stored_entries / elements², <1 once compression wins.
    double compression() const {
        const double n = static_cast<double>(elements);
        return n > 0 ? static_cast<double>(stored_entries) / (n * n) : 1.0;
    }
    double average_rank() const {
        return lowrank_blocks
                   ? static_cast<double>(rank_total) /
                         static_cast<double>(lowrank_blocks)
                   : 0.0;
    }
};

/// One node of the geometric cluster tree: a contiguous range of the
/// permuted element order plus its bounding box.
struct ClusterNode {
    std::size_t begin = 0, end = 0; ///< range into ClusterTree::perm()
    int child0 = -1, child1 = -1;   ///< node ids, -1 for a leaf
    std::array<double, 3> lo{}, hi{};

    bool leaf() const { return child0 < 0; }
    std::size_t count() const { return end - begin; }
    /// Bounding-box diagonal.
    double diameter() const;
};

/// Binary geometric cluster tree by median bisection of element centers.
class ClusterTree {
public:
    ClusterTree(std::vector<std::array<double, 3>> points,
                std::size_t leaf_size);

    std::size_t size() const { return perm_.size(); }
    const std::vector<ClusterNode>& nodes() const { return nodes_; }
    const ClusterNode& root() const { return nodes_.front(); }
    /// perm()[k] = element id at cluster-ordered position k.
    const std::vector<std::size_t>& perm() const { return perm_; }

    /// Distance between two cluster bounding boxes (0 when they overlap).
    static double distance(const ClusterNode& a, const ClusterNode& b);

private:
    int build(std::size_t begin, std::size_t end, std::size_t leaf_size);

    std::vector<std::array<double, 3>> pts_;
    std::vector<std::size_t> perm_;
    std::vector<ClusterNode> nodes_;
};

/// Strong admissibility: eta * dist(a, b) >= max(diam(a), diam(b)) > 0.
bool admissible(const ClusterNode& a, const ClusterNode& b, double eta);

/// Exact interaction entry (i, j) over the element ids the cluster tree was
/// built on. Must be symmetric: kernel(i, j) == kernel(j, i).
using KernelFn = std::function<double(std::size_t, std::size_t)>;

/// Low-rank factorization S ≈ U·V of one block (U: m×k, V: k×n).
struct AcaResult {
    MatrixD u, v;
    bool converged = false;
    std::size_t evals = 0; ///< kernel evaluations spent
};

/// ACA with partial pivoting over the block rows[0..nrows) × cols[0..ncols)
/// (spans of global element ids). Deterministic: the pivot walk starts at
/// row 0 and follows the largest residual entry of the previous cross.
AcaResult aca_lowrank(const std::size_t* rows, std::size_t nrows,
                      const std::size_t* cols, std::size_t ncols,
                      const KernelFn& kernel, double tol,
                      std::size_t max_rank);

/// Symmetric H-matrix over one element set: cluster tree + ACA far field +
/// dense near field. Thread-safe const apply; deterministic at any thread
/// count.
class Hmatrix {
public:
    Hmatrix(std::vector<std::array<double, 3>> points, KernelFn kernel,
            const HmatrixOptions& opt);

    std::size_t size() const { return tree_.size(); }

    /// y = H x over the element set (both arrays of size()). Overwrites y.
    void apply(const Complex* x, Complex* y) const;

    /// Exact kernel entry — the near-field/preconditioner tiles want the
    /// uncompressed value, not the ACA reconstruction.
    double entry(std::size_t i, std::size_t j) const { return kernel_(i, j); }

    const HmatrixStats& stats() const { return stats_; }
    const ClusterTree& tree() const { return tree_; }

private:
    /// One block of the partition. row == col only for dense diagonal
    /// leaves; off-diagonal blocks also apply their transpose (symmetry).
    struct Block {
        std::size_t row = 0, col = 0; ///< cluster node ids
        bool lowrank = false;
        MatrixD u; ///< rows × k (lowrank)
        MatrixD v; ///< k × cols (lowrank)
        MatrixD d; ///< rows × cols (dense)
    };

    void build();

    ClusterTree tree_;
    KernelFn kernel_;
    HmatrixOptions opt_;
    std::vector<Block> blocks_;
    std::vector<std::size_t> scratch_off_; ///< per-block scratch offsets
    std::size_t scratch_len_ = 0;
    HmatrixStats stats_;
};

} // namespace pgsi

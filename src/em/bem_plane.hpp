// Boundary-element assembly of the mixed-potential integral equation for
// plane structures (§3.2, eqs (6)–(11)).
//
// Discretization (see geometry/rectmesh.hpp): N charge cells (nodes) and M
// current cells (branches between adjacent nodes). The MPIE becomes
//
//     (Zs + jωL) I − P V = 0            (eq 10)
//     Pᵀ I + jω C V     = J_i           (eq 11)
//
// with
//   * L  — M×M dense partial-inductance matrix of the current cells
//          (vector-potential Green's function integrated over cell pairs),
//   * Zs — M×M diagonal surface-impedance resistance,
//   * C  — N×N Maxwell capacitance = Ppot⁻¹, where Ppot is the dense
//          potential-coefficient matrix (scalar-potential Green's function),
//   * P  — M×N branch-node incidence operator (+1 tail, −1 head): the
//          discrete gradient that turns node potentials into branch EMFs.
//
// Two testing procedures are provided, as in the paper: point matching
// (collocation at cell centers — fast) and Galerkin (test with the basis
// functions — more accurate and stable at higher assembly cost).
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <vector>

#include "common/lazy.hpp"
#include "em/greens.hpp"
#include "em/hmatrix.hpp"
#include "em/surface_impedance.hpp"
#include "em/toeplitz_operator.hpp"
#include "geometry/rectmesh.hpp"
#include "numeric/matrix.hpp"

namespace pgsi {

struct QuadratureRule;

/// Testing (sampling) procedure for the integral equations (§3.2).
enum class Testing {
    PointMatching, ///< delta test functions at cell centers
    Galerkin       ///< test functions equal to the basis functions
};

/// How the P and L fills evaluate the Green's-function integrals.
///
/// The quasi-static kernels depend only on the observation-source
/// displacement and the (z, z') pair, so on a uniform-pitch mesh (congruent
/// cells on one integer lattice) every matrix entry is a lookup into a table
/// with one entry per *distinct displacement* — O(#offsets) ≈ O(N) expensive
/// quadrature/image-series evaluations instead of O(N²).
enum class AssemblyMode {
    Auto,   ///< cache when the mesh is uniform and the table is smaller
            ///< than the direct evaluation count; direct otherwise
    Direct, ///< always evaluate every pair (reference path)
    Cached  ///< require the cache; throws if the mesh is not uniform
};

/// Assembly options.
struct BemOptions {
    Testing testing = Testing::PointMatching;
    /// Gauss order per axis for Galerkin observation integrals.
    int galerkin_order = 2;
    /// Gauss order per axis for the outer integral of partial inductances.
    int l_quad_order = 4;
    /// Displacement-keyed interaction-table policy for the P and L fills.
    /// It also picks the operator form: Toeplitz/FFT on a uniform lattice
    /// unless Direct, ACA/H-matrix otherwise (see potential_operator()).
    AssemblyMode assembly = AssemblyMode::Auto;
    /// ACA/H-matrix knobs of the compressed operators.
    HmatrixOptions hmatrix = {};
};

/// Work telemetry of the lazy BEM assembly steps. Their wall time is in
/// the spans bem.fill.potential, bem.fill.inductance, bem.invert.potential
/// and bem.gamma (obs/trace.hpp).
struct BemAssemblyStats {
    bool potential_cached = false;   ///< Ppot fill used the interaction table
    bool inductance_cached = false;  ///< L fill used the interaction table
    std::size_t cache_entries = 0;   ///< distinct offset-table entries evaluated
};

/// Assembled BEM operator for one meshed plane structure. Matrices are
/// assembled lazily and cached; all are frequency independent under the
/// quasi-static approximation of §4.1. Each cached member is filled once,
/// even when its first use comes from several threads at once, so a model
/// may be shared by concurrent solves. Movable, not copyable; the cached
/// members, the operators among them, keep their addresses across a move.
class PlaneBem {
public:
    PlaneBem(RectMesh mesh, Greens greens, BemOptions options = {});

    const RectMesh& mesh() const { return model_->mesh; }
    const Greens& greens() const { return model_->greens; }
    const BemOptions& options() const { return model_->options; }

    std::size_t node_count() const { return mesh().node_count(); }
    std::size_t branch_count() const { return mesh().branch_count(); }

    /// Potential-coefficient matrix Ppot (N×N): V = Ppot · Q for total cell
    /// charges Q. Symmetric positive definite.
    const MatrixD& potential_matrix() const;

    /// Maxwell capacitance matrix C = Ppot⁻¹ (N×N).
    const MatrixD& maxwell_capacitance() const;

    /// Partial-inductance matrix L (M×M) of the current cells. Symmetric
    /// positive definite; orthogonal (x/y) cells do not couple.
    const MatrixD& inductance_matrix() const;

    /// DC branch resistances [ohm]: sheet resistance × length / width.
    const VectorD& branch_resistance() const;

    /// Dense incidence matrix P (M×N): row b has +1 at n1(b), −1 at n2(b).
    MatrixD incidence_dense() const;

    /// Nodal inverse-inductance matrix Γ = Pᵀ L⁻¹ P (N×N). Laplacian-like:
    /// symmetric, rows sum to zero. The paper's (Pᵀ L⁻¹ P) of eq (16).
    const MatrixD& gamma() const;

    /// Nodal DC conductance Laplacian G = Pᵀ Zs⁻¹ P (N×N). Requires a lossy
    /// sheet (nonzero sheet resistance on every meshed shape).
    const MatrixD& dc_conductance() const;

    /// Whether every element family (charge cells plus both current-cell
    /// directions) sits on a uniform integer lattice — the structural
    /// precondition for the matrix-free block-Toeplitz operators.
    bool uniform_lattice() const;

    /// Applier of Ppot behind the InteractionOperator interface, built once
    /// on first use and never assembled densely: block-Toeplitz/FFT when
    /// uniform_lattice() and the assembly mode is not Direct, an ACA/H-matrix
    /// (options().hmatrix) sampled from potential_entry() otherwise.
    const InteractionOperator& potential_operator() const;

    /// Applier of L (same policy as potential_operator()). The two branch
    /// directions form separate Toeplitz families or H-matrices;
    /// cross-direction entries are structurally zero.
    const InteractionOperator& inductance_operator() const;

    /// Exact Ppot(i, j) evaluated on demand — no matrix assembly. The dense
    /// Direct fill calls this same kernel on the lower triangle, so the two
    /// match bit-for-bit. This is the kernel the ACA/H-matrix path samples.
    double potential_entry(std::size_t i, std::size_t j) const;

    /// Exact L(a, b) evaluated on demand (zero for orthogonal branch
    /// directions). Matches inductance_matrix() bit-for-bit.
    double inductance_entry(std::size_t a, std::size_t b) const;

    /// Charge-cell centers (x, y, z) — cluster-tree geometry for the P
    /// operator's H-matrix.
    std::vector<std::array<double, 3>> node_points() const;

    /// Assembly work observed so far (table use, cache entries).
    BemAssemblyStats stats() const;

private:
    /// Branch indices and lattices of the two current-cell directions.
    struct BranchFamilies {
        std::array<std::vector<std::size_t>, 2> idx; ///< global branch ids
        std::vector<std::size_t> local; ///< global branch id → family index
        std::array<Lattice, 2> lat;
        bool uniform = false;
    };

    /// What the entry kernels read. Held by shared pointer so the kernels
    /// an H-matrix keeps for entry() stay valid when the PlaneBem moves.
    struct Model {
        RectMesh mesh;
        Greens greens;
        BemOptions options;
        /// Gauss rules resolved once at construction: the rule cache is
        /// mutex-guarded, and the on-demand entry kernels run on pool
        /// workers.
        const QuadratureRule* grule = nullptr;
        const QuadratureRule* lrule = nullptr;

        double potential(std::size_t i, std::size_t j) const;
        double inductance(std::size_t a, std::size_t b) const;
    };

    std::shared_ptr<const Model> model_;

    Lazy<MatrixD> ppot_;
    Lazy<MatrixD> cmax_;
    Lazy<MatrixD> l_;
    Lazy<VectorD> rbranch_;
    Lazy<MatrixD> gamma_;
    Lazy<MatrixD> gdc_;
    Lazy<Lattice> node_lat_;
    Lazy<BranchFamilies> branch_fam_;
    Lazy<std::vector<double>> ptable_;
    Lazy<std::vector<double>> ltable_[2];
    Lazy<InteractionOperator> pop_;
    Lazy<InteractionOperator> lop_;
    /// Fills of different members may run concurrently; they share the
    /// stats record under its mutex.
    struct StatsCell {
        std::mutex mu;
        BemAssemblyStats value;
    };
    std::unique_ptr<StatsCell> stats_ = std::make_unique<StatsCell>();

    MatrixD assemble_potential() const;
    MatrixD assemble_inductance() const;
    const Lattice& node_lattice() const;
    const BranchFamilies& branch_families() const;
    const std::vector<double>& potential_table() const;
    const std::vector<double>& inductance_table(int d) const;
    /// Current-cell centers (x, y, z) of the given branches.
    std::vector<std::array<double, 3>> branch_points(
        const std::vector<std::size_t>& branch_ids) const;
    /// Toeplitz operators (else H-matrices): a uniform lattice and a
    /// non-Direct assembly mode.
    bool toeplitz_operators() const;
    void note_table_entries(std::size_t entries) const;
};

} // namespace pgsi

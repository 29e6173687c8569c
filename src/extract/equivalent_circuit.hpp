// Equivalent-circuit extraction from the quasi-static field solution (§4.2).
//
// From the admittance form Y(ω) = jωC + Pᵀ(Zs + jωL)⁻¹P the paper constructs
// a distributed circuit with a branch between every pair of retained nodes:
// an inductance L_mn in series with a resistance R_mn, in parallel with a
// capacitance C_mn (eq 20, Fig. 2), plus a capacitance from every node to the
// reference plane. The element values follow the paper's element-wise maps:
//
//     Γ = Pᵀ L⁻¹ P  (Kron-reduced to the circuit nodes)
//     L_mn = −1/Γ_mn                      (m ≠ n, eq 24)
//     C_mn = −C^Maxwell_mn                (m ≠ n, eq 25)
//     C_mm = Σ_n C^Maxwell_nm             (node-to-reference, eq 27)
//     L_mm = 0                            (eq 26 — no inductance to reference)
//     R_mn = −1/G_mn from the Kron-reduced DC conductance (first-order loss)
//
// The circuit needs Γ, C and G only at the k kept nodes, so they are
// reduced without forming any of them over all n mesh nodes. The kept nodes
// are merged into one root and a BFS spanning tree of the branch graph
// reaches the e = n − k eliminated nodes. Each of the m − e non-tree
// branches, closed through its tree paths back to the root, is one column
// of a sparse cycle basis Z; every column satisfies KCL at every eliminated
// node (Pₑᵀ Z = 0), which is the loop analysis of Zhu et al. Then, with the
// incidence P_k of the kept nodes,
//
//     M = Zᵀ L Z,  B = Zᵀ P_k,          Γ_red = Bᵀ M⁻¹ B
//     I = Z M⁻¹ B                        (branch currents per kept node)
//     W = [I; −Γ_ee⁻¹ Γ_ek]              (tree-branch EMFs L·I integrated
//                                         out from the root)
//     C_red = Wᵀ Ppot⁻¹ W                (k solves against Ppot)
//     G_red = G_kk − G_ke G_ee⁻¹ G_ek    (sparse LU of the e×e G_ee)
//
// The capacitance is projected by the congruence with W rather than by a
// floating-charge Schur complement: eliminated cells belong to the same
// conductor, so their charge is re-attributed to the kept nodes with the
// voltage distribution the inductive network imposes. W maps constants to
// constants (Γ is a Laplacian), so the total plane capacitance is kept
// exactly. Keeping every node degenerates to Z = I and M = L.
//
// The extracted network is frequency independent and valid "up to a certain
// frequency limit well above most digital signal bandwidth" (§4.1); the
// ablation benches quantify that limit against the direct BEM sweep.
#pragma once

#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "em/bem_plane.hpp"
#include "geometry/point2.hpp"
#include "numeric/matrix.hpp"

namespace pgsi {

/// One branch of the equivalent circuit between retained nodes m and n:
/// series R–L in parallel with C. A zero value means the element is absent.
struct RlcBranch {
    std::size_t m = 0, n = 0;
    double r = 0; ///< [ohm]
    double l = 0; ///< [H]; may be negative for weakly coupled distant pairs
    double c = 0; ///< [F]
};

/// Extracted N-node equivalent circuit with a common reference (Fig. 2).
struct EquivalentCircuit {
    std::vector<Point2> node_position; ///< board location of each node
    VectorD node_z;                    ///< conductor height of each node
    std::vector<RlcBranch> branches;   ///< node-pair branches
    VectorD node_cap;                  ///< node-to-reference capacitance [F]
    bool has_reference = true;

    std::size_t node_count() const { return node_cap.size(); }

    /// Nodal admittance matrix of the model at frequency f (reference node
    /// implicit).
    MatrixC admittance(double freq_hz) const;

    /// Impedance matrix seen at a subset of nodes, all other nodes open.
    MatrixC impedance(double freq_hz, const std::vector<std::size_t>& ports) const;

    /// Stamp the circuit into a netlist. node_map[k] is the netlist node for
    /// circuit node k; ref is the netlist node playing the reference plane.
    /// Element names are prefixed for uniqueness.
    void stamp(Netlist& nl, const std::vector<NodeId>& node_map, NodeId ref,
               const std::string& prefix) const;

    /// Total capacitance to reference (sum of node caps) — a quick sanity
    /// metric against parallel-plate estimates.
    double total_reference_capacitance() const;
};

/// Nodal matrices reduced to the kept nodes; rows and columns follow the
/// keep order.
struct ReducedMatrices {
    MatrixD gamma;       ///< inverse inductance Γ_red [1/H]
    MatrixD capacitance; ///< Maxwell capacitance C_red [F]
    MatrixD conductance; ///< DC conductance G_red [S]; empty when lossless
};

/// Extraction controls.
struct ExtractionOptions {
    /// Drop L/C/R branch elements whose defining matrix entry is smaller than
    /// this fraction of the largest off-diagonal magnitude. 0 keeps all.
    double prune_rel_tol = 0.0;
    /// Extract branch resistances from the DC conductance network (requires
    /// lossy sheets). When false the circuit is purely LC.
    bool include_resistance = true;
    /// Drop negative branch inductances/capacitances. The element-wise map
    /// (eqs 24-25) yields small negative values for weakly coupled node
    /// pairs; a network of positive R/L/C is passive by construction and
    /// therefore unconditionally stable in transient analysis, while the
    /// negative branches create spurious unstable internal loop modes. The
    /// frequency-domain error from dropping them is small (they are weak by
    /// construction); set to false to study the exact element-wise map.
    bool enforce_passive = true;
};

/// Extracts equivalent circuits from an assembled PlaneBem.
class CircuitExtractor {
public:
    explicit CircuitExtractor(const PlaneBem& bem, ExtractionOptions options = {});

    /// Equivalent circuit over an explicit set of retained mesh nodes (the
    /// power/ground pins plus any interior nodes wanted for wave fidelity).
    EquivalentCircuit extract(const std::vector<std::size_t>& keep_nodes) const;

    /// Equivalent circuit over every mesh node (no reduction).
    EquivalentCircuit extract_full() const;

    /// Γ, C and G reduced to keep_nodes on the cycle basis (see the file
    /// comment). Throws NumericalError when a mesh component holds no kept
    /// node: its potential is then undefined.
    ReducedMatrices reduce(const std::vector<std::size_t>& keep_nodes) const;

    /// The element maps (eqs 24–27), pruning and passivity options applied
    /// to reduced matrices over keep_nodes.
    EquivalentCircuit circuit(const ReducedMatrices& red,
                              const std::vector<std::size_t>& keep_nodes) const;

    /// Whether the extraction includes branch resistances: requested and
    /// every meshed shape has a lossy sheet.
    bool lossy() const;

    /// Node-selection helper: the given port nodes plus roughly
    /// `interior_target` interior nodes sampled uniformly across the mesh.
    std::vector<std::size_t> select_nodes(const std::vector<std::size_t>& ports,
                                          std::size_t interior_target) const;

private:
    const PlaneBem& bem_;
    ExtractionOptions options_;
};

} // namespace pgsi

#include "extract/equivalent_circuit.hpp"

#include <algorithm>
#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/robust.hpp"
#include "extract/reduction.hpp"
#include "numeric/cholesky.hpp"
#include "numeric/gemm.hpp"
#include "numeric/lu.hpp"
#include "numeric/sparse_lu.hpp"
#include "obs/trace.hpp"

namespace pgsi {

MatrixC EquivalentCircuit::admittance(double freq_hz) const {
    PGSI_REQUIRE(freq_hz > 0, "EquivalentCircuit: frequency must be positive");
    const double omega = 2.0 * pi * freq_hz;
    const Complex jw(0.0, omega);
    const std::size_t n = node_count();
    MatrixC y(n, n);
    for (const RlcBranch& b : branches) {
        Complex yb(0.0, 0.0);
        if (b.c != 0) yb += jw * b.c;
        if (b.l != 0 || b.r != 0) yb += 1.0 / (Complex(b.r, 0.0) + jw * b.l);
        y(b.m, b.m) += yb;
        y(b.n, b.n) += yb;
        y(b.m, b.n) -= yb;
        y(b.n, b.m) -= yb;
    }
    for (std::size_t k = 0; k < n; ++k) y(k, k) += jw * node_cap[k];
    return y;
}

MatrixC EquivalentCircuit::impedance(double freq_hz,
                                     const std::vector<std::size_t>& ports) const {
    // Z[ports, ports] = rows `ports` of Y⁻¹·E, E the identity's port columns:
    // solve only the p columns instead of inverting all of Y.
    const std::size_t n = node_count();
    MatrixC e(n, ports.size());
    for (std::size_t k = 0; k < ports.size(); ++k) {
        PGSI_REQUIRE(ports[k] < n, "EquivalentCircuit: port out of range");
        e(ports[k], k) = 1.0;
    }
    const MatrixC x = Lu<Complex>(admittance(freq_hz)).solve(e);
    MatrixC z(ports.size(), ports.size());
    for (std::size_t a = 0; a < ports.size(); ++a)
        for (std::size_t b = 0; b < ports.size(); ++b)
            z(a, b) = x(ports[a], b);
    return z;
}

void EquivalentCircuit::stamp(Netlist& nl, const std::vector<NodeId>& node_map,
                              NodeId ref, const std::string& prefix) const {
    PGSI_REQUIRE(node_map.size() == node_count(),
                 "EquivalentCircuit::stamp: node_map size mismatch");
    for (const RlcBranch& b : branches) {
        const std::string tag =
            prefix + "_" + std::to_string(b.m) + "_" + std::to_string(b.n);
        const NodeId nm = node_map[b.m];
        const NodeId nn = node_map[b.n];
        if (b.c != 0) nl.add_capacitor("C" + tag, nm, nn, b.c);
        if (b.l != 0) {
            nl.add_inductor("L" + tag, nm, nn, b.l, b.r);
        } else if (b.r > 0) {
            nl.add_resistor("R" + tag, nm, nn, b.r);
        }
    }
    for (std::size_t k = 0; k < node_count(); ++k)
        if (node_cap[k] > 0)
            nl.add_capacitor("C" + prefix + "_g" + std::to_string(k), node_map[k],
                             ref, node_cap[k]);
}

double EquivalentCircuit::total_reference_capacitance() const {
    double s = 0;
    for (double c : node_cap) s += c;
    return s;
}

CircuitExtractor::CircuitExtractor(const PlaneBem& bem, ExtractionOptions options)
    : bem_(bem), options_(options) {}

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

std::size_t other_end(const MeshBranch& b, std::size_t node) {
    return b.n1 == node ? b.n2 : b.n1;
}

/// Spanning tree of the branch graph with every kept node merged into one
/// root, and the sparse cycle basis Z (m × (m − e)) it induces.
struct LoopBasis {
    std::vector<std::size_t> order; ///< eliminated nodes, parents first
    std::vector<std::size_t> up;    ///< tree branch toward the root (kNone
                                    ///< for kept nodes)
    /// Z in compressed-column form: one column per non-tree branch, ±1
    /// entries.
    std::vector<std::size_t> col_ptr{0};
    std::vector<std::size_t> row;
    std::vector<double> val;

    std::size_t cols() const { return col_ptr.size() - 1; }
};

LoopBasis loop_basis(const RectMesh& mesh, const std::vector<std::size_t>& kept_pos) {
    const auto& br = mesh.branches();
    const std::size_t n = mesh.node_count(), m = br.size();
    // Node → incident branches, ascending branch order.
    std::vector<std::size_t> adj_ptr(n + 1, 0), adj(2 * m);
    for (const MeshBranch& b : br) {
        ++adj_ptr[b.n1 + 1];
        ++adj_ptr[b.n2 + 1];
    }
    for (std::size_t i = 0; i < n; ++i) adj_ptr[i + 1] += adj_ptr[i];
    std::vector<std::size_t> next(adj_ptr.begin(), adj_ptr.end() - 1);
    for (std::size_t b = 0; b < m; ++b) {
        adj[next[br[b].n1]++] = b;
        adj[next[br[b].n2]++] = b;
    }

    // BFS from the merged root. Kept nodes sit at depth 0.
    LoopBasis lb;
    lb.up.assign(n, kNone);
    std::vector<std::size_t> depth(n, 0);
    std::vector<char> seen(n, 0);
    std::vector<std::size_t> queue;
    for (std::size_t i = 0; i < n; ++i)
        if (kept_pos[i] != kNone) {
            seen[i] = 1;
            queue.push_back(i);
        }
    for (std::size_t q = 0; q < queue.size(); ++q) {
        const std::size_t x = queue[q];
        for (std::size_t p = adj_ptr[x]; p < adj_ptr[x + 1]; ++p) {
            const std::size_t y = other_end(br[adj[p]], x);
            if (seen[y]) continue;
            seen[y] = 1;
            lb.up[y] = adj[p];
            depth[y] = depth[x] + 1;
            queue.push_back(y);
            lb.order.push_back(y);
        }
    }
    if (queue.size() != n)
        throw NumericalError(
            "CircuitExtractor: a mesh component holds no kept node, so its "
            "potential is undefined");

    // One column per non-tree branch b: unit current along b (n1 → n2),
    // back up the tree from n2 and down the tree into n1. The two paths stop
    // where they meet, or at the merged root.
    std::vector<char> tree(m, 0);
    for (std::size_t y : lb.order) tree[lb.up[y]] = 1;
    for (std::size_t b = 0; b < m; ++b) {
        if (tree[b]) continue;
        lb.row.push_back(b);
        lb.val.push_back(1.0);
        std::size_t u = br[b].n1, v = br[b].n2;
        while (u != v && depth[u] + depth[v] > 0) {
            if (depth[u] >= depth[v]) {
                const std::size_t t = lb.up[u];
                lb.row.push_back(t);
                lb.val.push_back(br[t].n1 == u ? -1.0 : 1.0);
                u = other_end(br[t], u);
            } else {
                const std::size_t t = lb.up[v];
                lb.row.push_back(t);
                lb.val.push_back(br[t].n1 == v ? 1.0 : -1.0);
                v = other_end(br[t], v);
            }
        }
        lb.col_ptr.push_back(lb.row.size());
    }
    return lb;
}

/// G_kk − G_ke G_ee⁻¹ G_ek of the sparse DC conductance Laplacian, with one
/// sparse LU of G_ee and k solves.
MatrixD reduce_conductance(const PlaneBem& bem,
                           const std::vector<std::size_t>& kept_pos, std::size_t k) {
    const auto& br = bem.mesh().branches();
    const VectorD& r = bem.branch_resistance();
    const std::size_t n = kept_pos.size();
    std::vector<std::size_t> elim_pos(n, kNone);
    std::size_t e = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (kept_pos[i] == kNone) elim_pos[i] = e++;

    MatrixD g(k, k);   // G_kk
    MatrixD gke(k, e); // G_ke
    std::vector<SparseEntry> gee;
    const auto stamp = [&](std::size_t i, std::size_t j, double v) {
        if (kept_pos[i] != kNone) {
            if (kept_pos[j] != kNone)
                g(kept_pos[i], kept_pos[j]) += v;
            else
                gke(kept_pos[i], elim_pos[j]) += v;
        } else if (kept_pos[j] == kNone) {
            gee.push_back({elim_pos[i], elim_pos[j], v});
        }
    };
    for (std::size_t b = 0; b < br.size(); ++b) {
        const double gb = 1.0 / r[b];
        stamp(br[b].n1, br[b].n1, gb);
        stamp(br[b].n2, br[b].n2, gb);
        stamp(br[b].n1, br[b].n2, -gb);
        stamp(br[b].n2, br[b].n1, -gb);
    }
    if (e > 0) {
        const SparseLu lu(CscMatrix::from_entries(e, gee));
        // One solve per kept column j, in parallel; row j of corr holds
        // (G_ke G_ee⁻¹ G_ek)(:, j), and one serial pass subtracts it.
        MatrixD corr(k, k);
        par::parallel_for(k, [&](std::size_t j) {
            const std::vector<double> x = lu.solve( // G_ee⁻¹ G_ek(:, j)
                std::vector<double>(gke.row(j), gke.row(j) + e));
            double* out = corr.row(j);
            for (std::size_t i = 0; i < k; ++i) {
                const double* gi = gke.row(i);
                double s = 0;
                for (std::size_t q = 0; q < e; ++q) s += gi[q] * x[q];
                out[i] = s;
            }
        });
        for (std::size_t i = 0; i < k; ++i)
            for (std::size_t j = 0; j < k; ++j) g(i, j) -= corr(j, i);
    }
    symmetrize(g);
    return g;
}

/// A⁻¹B for an SPD energy matrix (the loop inductance M or Ppot). A failed
/// Cholesky means the extracted circuit could not be passive, so it throws
/// NumericalError naming the matrix; the `extract.cholesky` fault site
/// injects that failure.
MatrixD energy_solve(const MatrixD& a, const MatrixD& b, const char* what) {
    try {
        if (robust::FaultInjector::should_fire("extract.cholesky"))
            throw NumericalError("injected fault at extract.cholesky");
        return Cholesky(a).solve(b);
    } catch (NumericalError& e) {
        e.with_context(std::string("while factoring the ") + what);
        throw;
    }
}

} // namespace

bool CircuitExtractor::lossy() const {
    if (!options_.include_resistance) return false;
    for (const auto& s : bem_.mesh().shapes())
        if (s.sheet_resistance <= 0) return false;
    return true;
}

ReducedMatrices CircuitExtractor::reduce(
    const std::vector<std::size_t>& keep_nodes) const {
    PGSI_REQUIRE(!keep_nodes.empty(), "CircuitExtractor: keep set is empty");
    const RectMesh& mesh = bem_.mesh();
    const auto& br = mesh.branches();
    const std::size_t n = mesh.node_count(), m = br.size(), k = keep_nodes.size();
    std::vector<std::size_t> kept_pos(n, kNone);
    for (std::size_t j = 0; j < k; ++j) {
        PGSI_REQUIRE(keep_nodes[j] < n, "CircuitExtractor: kept node out of range");
        PGSI_REQUIRE(kept_pos[keep_nodes[j]] == kNone,
                     "CircuitExtractor: duplicate kept node");
        kept_pos[keep_nodes[j]] = j;
    }
    const MatrixD& l = bem_.inductance_matrix();
    const MatrixD& ppot = bem_.potential_matrix();

    LoopBasis z;
    MatrixD b; // B = Zᵀ P_k
    {
        PGSI_TRACE_SCOPE("extract.loops");
        z = loop_basis(mesh, kept_pos);
        b = MatrixD(z.cols(), k);
        for (std::size_t c = 0; c < z.cols(); ++c)
            for (std::size_t p = z.col_ptr[c]; p < z.col_ptr[c + 1]; ++p) {
                const MeshBranch& e = br[z.row[p]];
                if (kept_pos[e.n1] != kNone) b(c, kept_pos[e.n1]) += z.val[p];
                if (kept_pos[e.n2] != kNone) b(c, kept_pos[e.n2]) -= z.val[p];
            }
    }

    ReducedMatrices red;
    MatrixD w(n, k); // W, rows by mesh node
    {
        PGSI_TRACE_SCOPE("extract.gamma");
        const std::size_t c = z.cols();
        // LZ and the lower triangle of M = Zᵀ(LZ), row-parallel: every output
        // row has one owner and a fixed accumulation order.
        MatrixD lz(m, c);
        MatrixD mz(c, c);
        {
            PGSI_TRACE_SCOPE("extract.loop_matrix");
            par::parallel_for(m, [&](std::size_t a) {
                const double* la = l.row(a);
                double* out = lz.row(a);
                for (std::size_t j = 0; j < c; ++j) {
                    double s = 0;
                    for (std::size_t p = z.col_ptr[j]; p < z.col_ptr[j + 1]; ++p)
                        s += z.val[p] * la[z.row[p]];
                    out[j] = s;
                }
            });
            par::parallel_for(c, [&](std::size_t i) {
                double* out = mz.row(i);
                for (std::size_t p = z.col_ptr[i]; p < z.col_ptr[i + 1]; ++p) {
                    const double zv = z.val[p];
                    const double* lzr = lz.row(z.row[p]);
                    for (std::size_t j = 0; j <= i; ++j) out[j] += zv * lzr[j];
                }
            });
            mirror_lower(mz);
        }

        const MatrixD x = energy_solve(mz, b, "loop inductance"); // M⁻¹ B
        red.gamma = b.transposed() * x;
        symmetrize(red.gamma);

        // Tree-branch EMFs (L I = LZ X), integrated out from the root. Four
        // EMF rows × four columns at a time, the 16 sums in registers (see
        // detail::dot_tile): each entry sums LZ(a, i)·X(i, j) over i
        // ascending from +0 and is stored once, so no two threads write one
        // cache line over and over.
        const std::size_t e = z.order.size();
        MatrixD emf(e, k);
        {
            PGSI_TRACE_SCOPE("extract.emf");
            const std::size_t kp = (k + 3) / 4 * 4; // X rows padded to tiles
            std::vector<double> xp(c * kp, 0.0);
            for (std::size_t i = 0; i < c; ++i)
                std::copy(x.row(i), x.row(i) + k, xp.data() + i * kp);
            par::parallel_for_chunked((e + 3) / 4, 1, [&](std::size_t b0,
                                                          std::size_t b1) {
                std::vector<double> ap(4 * c); // four LZ rows, interleaved
                double s[4][4] = {};
                for (std::size_t blk = b0; blk < b1; ++blk) {
                    // Rows past e repeat the last row; their sums are dropped.
                    const std::size_t q0 = 4 * blk;
                    const std::size_t rows = std::min<std::size_t>(4, e - q0);
                    for (std::size_t r = 0; r < 4; ++r) {
                        const std::size_t q = q0 + std::min(r, rows - 1);
                        const double* lzr = lz.row(z.up[z.order[q]]);
                        for (std::size_t i = 0; i < c; ++i) ap[4 * i + r] = lzr[i];
                    }
                    for (std::size_t j0 = 0; j0 < k; j0 += 4) {
                        detail::dot_tile(ap.data(), 4, xp.data() + j0, kp, c, s);
                        for (std::size_t r = 0; r < rows; ++r)
                            for (std::size_t jj = 0; jj < 4 && j0 + jj < k; ++jj)
                                emf(q0 + r, j0 + jj) = s[r][jj];
                    }
                }
            });
        }
        for (std::size_t j = 0; j < k; ++j) w(keep_nodes[j], j) = 1.0;
        for (std::size_t q = 0; q < e; ++q) {
            const std::size_t y = z.order[q];
            const MeshBranch& t = br[z.up[y]];
            // EMF of t is φ(n1) − φ(n2).
            const double sign = t.n1 == y ? 1.0 : -1.0;
            const double* parent = w.row(other_end(t, y));
            const double* eq = emf.row(q);
            double* wy = w.row(y);
            for (std::size_t j = 0; j < k; ++j) wy[j] = parent[j] + sign * eq[j];
        }
    }
    {
        PGSI_TRACE_SCOPE("extract.capacitance");
        // Ppot⁻¹ W
        const MatrixD y = energy_solve(ppot, w, "potential coefficients");
        red.capacitance = w.transposed() * y;
        symmetrize(red.capacitance);
    }
    if (lossy()) {
        PGSI_TRACE_SCOPE("extract.conductance");
        red.conductance = reduce_conductance(bem_, kept_pos, k);
    }
    return red;
}

EquivalentCircuit CircuitExtractor::extract(
    const std::vector<std::size_t>& keep_nodes) const {
    return circuit(reduce(keep_nodes), keep_nodes);
}

EquivalentCircuit CircuitExtractor::circuit(
    const ReducedMatrices& red, const std::vector<std::size_t>& keep_nodes) const {
    const std::size_t n = keep_nodes.size();
    const MatrixD& gamma = red.gamma;
    const MatrixD& cmax = red.capacitance;
    const MatrixD& gdc = red.conductance;
    PGSI_REQUIRE(gamma.rows() == n && cmax.rows() == n,
                 "CircuitExtractor: reduced matrices do not match the keep set");
    const bool lossy = gdc.rows() == n;

    // Pruning thresholds from the largest off-diagonal magnitudes.
    double gmax = 0, cmx = 0, dmax = 0;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j) {
            gmax = std::max(gmax, std::abs(gamma(i, j)));
            cmx = std::max(cmx, std::abs(cmax(i, j)));
            if (lossy) dmax = std::max(dmax, std::abs(gdc(i, j)));
        }
    const double gtol = options_.prune_rel_tol * gmax;
    const double ctol = options_.prune_rel_tol * cmx;
    const double dtol = options_.prune_rel_tol * dmax;

    EquivalentCircuit ec;
    ec.has_reference = bem_.greens().has_reference();
    ec.node_position.reserve(n);
    ec.node_z.reserve(n);
    for (std::size_t k : keep_nodes) {
        ec.node_position.push_back(bem_.mesh().nodes()[k].center);
        ec.node_z.push_back(bem_.mesh().nodes()[k].z);
    }

    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j) {
            RlcBranch b;
            b.m = i;
            b.n = j;
            if (std::abs(gamma(i, j)) > gtol && gamma(i, j) != 0.0)
                b.l = -1.0 / gamma(i, j);
            if (std::abs(cmax(i, j)) > ctol) b.c = -cmax(i, j);
            if (options_.enforce_passive) {
                if (b.l < 0) b.l = 0;
                if (b.c < 0) b.c = 0;
            }
            if (lossy && b.l != 0 && std::abs(gdc(i, j)) > dtol &&
                gdc(i, j) < 0.0)
                b.r = -1.0 / gdc(i, j);
            if (b.l != 0 || b.c != 0 || b.r != 0) ec.branches.push_back(b);
        }

    ec.node_cap.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double s = 0;
        for (std::size_t j = 0; j < n; ++j) s += cmax(j, i);
        // Row sums are the capacitance to the reference; without a reference
        // plane they vanish to rounding — clamp tiny negatives.
        ec.node_cap[i] = std::max(0.0, s);
    }
    return ec;
}

EquivalentCircuit CircuitExtractor::extract_full() const {
    std::vector<std::size_t> keep(bem_.node_count());
    for (std::size_t i = 0; i < keep.size(); ++i) keep[i] = i;
    return extract(keep);
}

std::vector<std::size_t> CircuitExtractor::select_nodes(
    const std::vector<std::size_t>& ports, std::size_t interior_target) const {
    std::vector<std::size_t> keep = ports;
    std::sort(keep.begin(), keep.end());
    keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
    if (interior_target > 0) {
        const std::vector<std::size_t> sorted_ports = keep;
        const std::size_t n = bem_.node_count();
        const std::size_t stride = std::max<std::size_t>(1, n / interior_target);
        for (std::size_t i = 0; i < n; i += stride)
            if (!std::binary_search(sorted_ports.begin(), sorted_ports.end(), i))
                keep.push_back(i);
        std::sort(keep.begin(), keep.end());
        keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
    }
    return keep;
}

} // namespace pgsi

#include "em/hmatrix.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pgsi {

namespace {

/// Compressing a block below this edge length never pays: the cross slices
/// alone cost as much as the dense fill.
constexpr std::size_t kMinAcaDim = 8;

/// Thin modified-Gram-Schmidt QR: a (m×k) is replaced by Q with orthonormal
/// columns (a dependent column becomes zero with r_jj = 0), r is k×k upper
/// triangular. Serial and deterministic.
void thin_qr(MatrixD& a, MatrixD& r) {
    const std::size_t m = a.rows(), k = a.cols();
    r = MatrixD(k, k);
    for (std::size_t j = 0; j < k; ++j) {
        for (std::size_t l = 0; l < j; ++l) {
            double dot = 0;
            for (std::size_t i = 0; i < m; ++i) dot += a(i, l) * a(i, j);
            r(l, j) = dot;
            if (dot != 0)
                for (std::size_t i = 0; i < m; ++i) a(i, j) -= dot * a(i, l);
        }
        double nrm2 = 0;
        for (std::size_t i = 0; i < m; ++i) nrm2 += a(i, j) * a(i, j);
        const double nrm = std::sqrt(nrm2);
        r(j, j) = nrm;
        if (nrm > 0)
            for (std::size_t i = 0; i < m; ++i) a(i, j) /= nrm;
    }
}

/// One-sided Jacobi SVD of the small k×k core: g = w·diag(sigma)·yᵀ with
/// sigma descending. Column rotations in a fixed sweep order keep it
/// deterministic, and one-sided Jacobi resolves small singular values to
/// high relative accuracy — which is exactly what the truncation decision
/// below machine-noise eigen methods would botch.
void jacobi_svd(MatrixD g, MatrixD& w, VectorD& sigma, MatrixD& y) {
    const std::size_t k = g.rows();
    y = MatrixD(k, k);
    for (std::size_t i = 0; i < k; ++i) y(i, i) = 1.0;
    for (int sweep = 0; sweep < 64; ++sweep) {
        bool rotated = false;
        for (std::size_t p = 0; p + 1 < k; ++p)
            for (std::size_t q = p + 1; q < k; ++q) {
                double app = 0, aqq = 0, apq = 0;
                for (std::size_t i = 0; i < k; ++i) {
                    app += g(i, p) * g(i, p);
                    aqq += g(i, q) * g(i, q);
                    apq += g(i, p) * g(i, q);
                }
                if (apq == 0 ||
                    std::abs(apq) <= 1e-15 * std::sqrt(app * aqq))
                    continue;
                const double zeta = (aqq - app) / (2.0 * apq);
                const double t =
                    (zeta >= 0 ? 1.0 : -1.0) /
                    (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
                const double cs = 1.0 / std::sqrt(1.0 + t * t);
                const double sn = cs * t;
                for (std::size_t i = 0; i < k; ++i) {
                    const double gp = g(i, p), gq = g(i, q);
                    g(i, p) = cs * gp - sn * gq;
                    g(i, q) = sn * gp + cs * gq;
                    const double yp = y(i, p), yq = y(i, q);
                    y(i, p) = cs * yp - sn * yq;
                    y(i, q) = sn * yp + cs * yq;
                }
                rotated = true;
            }
        if (!rotated) break;
    }
    sigma = VectorD(k);
    w = MatrixD(k, k);
    std::vector<std::size_t> ord(k);
    for (std::size_t j = 0; j < k; ++j) {
        double n2 = 0;
        for (std::size_t i = 0; i < k; ++i) n2 += g(i, j) * g(i, j);
        sigma[j] = std::sqrt(n2);
        ord[j] = j;
    }
    std::sort(ord.begin(), ord.end(), [&](std::size_t a, std::size_t b) {
        if (sigma[a] != sigma[b]) return sigma[a] > sigma[b];
        return a < b;
    });
    VectorD ssort(k);
    MatrixD ysort(k, k);
    for (std::size_t j = 0; j < k; ++j) {
        const std::size_t src = ord[j];
        ssort[j] = sigma[src];
        for (std::size_t i = 0; i < k; ++i) {
            w(i, j) = sigma[src] > 0 ? g(i, src) / sigma[src] : 0.0;
            ysort(i, j) = y(i, src);
        }
    }
    sigma = std::move(ssort);
    y = std::move(ysort);
}

/// QR–SVD recompression of an ACA factorization. The cross basis is
/// rank-revealing but far from orthogonal, so its nominal rank overshoots
/// the ε-rank (typically ~2×ish on the smooth quasi-static kernels).
/// Re-orthogonalize both factors, SVD the small core, and truncate at the
/// same relative-Frobenius tolerance the ACA stop used — halving the rank
/// halves both storage and every future apply.
void recompress(AcaResult& res, double tol) {
    const std::size_t k = res.u.cols();
    if (k < 2) return;
    const std::size_t m = res.u.rows(), n = res.v.cols();
    MatrixD qu = res.u, ru; // copy: the no-reduction path keeps the original
    thin_qr(qu, ru);
    MatrixD qv(n, k);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < k; ++j) qv(i, j) = res.v(j, i);
    MatrixD rv;
    thin_qr(qv, rv);
    MatrixD g(k, k);
    for (std::size_t i = 0; i < k; ++i)
        for (std::size_t j = 0; j < k; ++j) {
            double s = 0;
            for (std::size_t l = std::max(i, j); l < k; ++l)
                s += ru(i, l) * rv(j, l);
            g(i, j) = s;
        }
    MatrixD w, y;
    VectorD sigma;
    jacobi_svd(std::move(g), w, sigma, y);
    double total2 = 0;
    for (std::size_t j = 0; j < k; ++j) total2 += sigma[j] * sigma[j];
    std::size_t keep = k;
    double tail2 = 0;
    while (keep > 0) {
        const double s2 = sigma[keep - 1] * sigma[keep - 1];
        if (tail2 + s2 > tol * tol * total2) break;
        tail2 += s2;
        --keep;
    }
    // No reduction: keep the original factors and skip the extra rounding
    // a recombination would introduce.
    if (keep >= k) return;
    MatrixD u2(m, keep);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < keep; ++j) {
            double s = 0;
            for (std::size_t l = 0; l < k; ++l) s += qu(i, l) * w(l, j);
            u2(i, j) = s * sigma[j];
        }
    MatrixD v2(keep, n);
    for (std::size_t j = 0; j < keep; ++j)
        for (std::size_t i = 0; i < n; ++i) {
            double s = 0;
            for (std::size_t l = 0; l < k; ++l) s += qv(i, l) * y(l, j);
            v2(j, i) = s;
        }
    res.u = std::move(u2);
    res.v = std::move(v2);
}

// Products of one stored block B (rows × cols, row-major, real) with
// complex vectors:
//   Rows: out[i] = Σ_j B(i, j)·x[j], each sum from +0 in ascending j;
//   Cols: out_t[j] += B(i, j)·xt[i] for i ascending.
// Both in one pass over B. These are the exact per-entry operations and
// orders of the `Complex s{}; s += b[j] * x[j]` and `out_t[j] += b[j] * xi`
// loops (a real times a complex scales both parts). Four rows run side by
// side: their sums are independent chains, so the adds overlap instead of
// each waiting on the one before.
template <bool Rows, bool Cols>
void block_product(const MatrixD& b, std::size_t rows, std::size_t cols,
                   const Complex* x, Complex* out, const Complex* xt,
                   Complex* out_t) {
    const double* xd = reinterpret_cast<const double*>(x);
    const double* td = reinterpret_cast<const double*>(xt);
    double* od = reinterpret_cast<double*>(out_t);
    std::size_t i = 0;
    for (; i + 4 <= rows; i += 4) {
        const double* b0 = b.row(i);
        const double* b1 = b.row(i + 1);
        const double* b2 = b.row(i + 2);
        const double* b3 = b.row(i + 3);
        double s0r = 0.0, s0i = 0.0, s1r = 0.0, s1i = 0.0;
        double s2r = 0.0, s2i = 0.0, s3r = 0.0, s3i = 0.0;
        double t0r = 0.0, t0i = 0.0, t1r = 0.0, t1i = 0.0;
        double t2r = 0.0, t2i = 0.0, t3r = 0.0, t3i = 0.0;
        if (Cols) {
            t0r = td[2 * i], t0i = td[2 * i + 1];
            t1r = td[2 * i + 2], t1i = td[2 * i + 3];
            t2r = td[2 * i + 4], t2i = td[2 * i + 5];
            t3r = td[2 * i + 6], t3i = td[2 * i + 7];
        }
        for (std::size_t j = 0; j < cols; ++j) {
            if (Rows) {
                const double xr = xd[2 * j], xi = xd[2 * j + 1];
                s0r += b0[j] * xr;
                s0i += b0[j] * xi;
                s1r += b1[j] * xr;
                s1i += b1[j] * xi;
                s2r += b2[j] * xr;
                s2i += b2[j] * xi;
                s3r += b3[j] * xr;
                s3i += b3[j] * xi;
            }
            if (Cols) {
                double cr = od[2 * j], ci = od[2 * j + 1];
                cr += b0[j] * t0r;
                ci += b0[j] * t0i;
                cr += b1[j] * t1r;
                ci += b1[j] * t1i;
                cr += b2[j] * t2r;
                ci += b2[j] * t2i;
                cr += b3[j] * t3r;
                ci += b3[j] * t3i;
                od[2 * j] = cr;
                od[2 * j + 1] = ci;
            }
        }
        if (Rows) {
            out[i] = Complex(s0r, s0i);
            out[i + 1] = Complex(s1r, s1i);
            out[i + 2] = Complex(s2r, s2i);
            out[i + 3] = Complex(s3r, s3i);
        }
    }
    for (; i < rows; ++i) {
        const double* bi = b.row(i);
        double sr = 0.0, si = 0.0;
        const double tr = Cols ? td[2 * i] : 0.0;
        const double ti = Cols ? td[2 * i + 1] : 0.0;
        for (std::size_t j = 0; j < cols; ++j) {
            if (Rows) {
                sr += bi[j] * xd[2 * j];
                si += bi[j] * xd[2 * j + 1];
            }
            if (Cols) {
                od[2 * j] += bi[j] * tr;
                od[2 * j + 1] += bi[j] * ti;
            }
        }
        if (Rows) out[i] = Complex(sr, si);
    }
}

} // namespace

double ClusterNode::diameter() const {
    double d2 = 0;
    for (int a = 0; a < 3; ++a) d2 += (hi[a] - lo[a]) * (hi[a] - lo[a]);
    return std::sqrt(d2);
}

ClusterTree::ClusterTree(std::vector<std::array<double, 3>> points,
                         std::size_t leaf_size)
    : pts_(std::move(points)) {
    PGSI_REQUIRE(leaf_size >= 1, "ClusterTree: leaf_size must be >= 1");
    perm_.resize(pts_.size());
    for (std::size_t i = 0; i < perm_.size(); ++i) perm_[i] = i;
    nodes_.reserve(pts_.empty() ? 1 : 4 * (pts_.size() / leaf_size + 1));
    build(0, pts_.size(), leaf_size);
}

int ClusterTree::build(std::size_t begin, std::size_t end,
                       std::size_t leaf_size) {
    const int id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    {
        ClusterNode& nd = nodes_.back();
        nd.begin = begin;
        nd.end = end;
        if (begin < end) {
            nd.lo = nd.hi = pts_[perm_[begin]];
            for (std::size_t k = begin + 1; k < end; ++k)
                for (int a = 0; a < 3; ++a) {
                    nd.lo[a] = std::min(nd.lo[a], pts_[perm_[k]][a]);
                    nd.hi[a] = std::max(nd.hi[a], pts_[perm_[k]][a]);
                }
        }
    }
    if (end - begin > leaf_size) {
        // Split the longest box axis at the median; the index tie-break
        // makes nth_element's partition (and therefore the whole tree)
        // deterministic even with coincident coordinates.
        int axis = 0;
        double ext = -1;
        for (int a = 0; a < 3; ++a) {
            const double e = nodes_[id].hi[a] - nodes_[id].lo[a];
            if (e > ext) {
                ext = e;
                axis = a;
            }
        }
        const std::size_t mid = begin + (end - begin) / 2;
        std::nth_element(perm_.begin() + static_cast<std::ptrdiff_t>(begin),
                         perm_.begin() + static_cast<std::ptrdiff_t>(mid),
                         perm_.begin() + static_cast<std::ptrdiff_t>(end),
                         [&](std::size_t a, std::size_t b) {
                             if (pts_[a][axis] != pts_[b][axis])
                                 return pts_[a][axis] < pts_[b][axis];
                             return a < b;
                         });
        // nth_element leaves both sides unordered; sort them into the
        // deterministic (coordinate, index) order so the permutation does
        // not depend on the partition's internal element shuffling.
        const auto less = [&](std::size_t a, std::size_t b) {
            if (pts_[a][axis] != pts_[b][axis])
                return pts_[a][axis] < pts_[b][axis];
            return a < b;
        };
        std::sort(perm_.begin() + static_cast<std::ptrdiff_t>(begin),
                  perm_.begin() + static_cast<std::ptrdiff_t>(mid), less);
        std::sort(perm_.begin() + static_cast<std::ptrdiff_t>(mid),
                  perm_.begin() + static_cast<std::ptrdiff_t>(end), less);
        const int c0 = build(begin, mid, leaf_size);
        const int c1 = build(mid, end, leaf_size);
        nodes_[id].child0 = c0;
        nodes_[id].child1 = c1;
    }
    return id;
}

double ClusterTree::distance(const ClusterNode& a, const ClusterNode& b) {
    double d2 = 0;
    for (int ax = 0; ax < 3; ++ax) {
        const double gap = std::max({a.lo[ax] - b.hi[ax], b.lo[ax] - a.hi[ax],
                                     0.0});
        d2 += gap * gap;
    }
    return std::sqrt(d2);
}

bool admissible(const ClusterNode& a, const ClusterNode& b, double eta) {
    const double diam = std::max(a.diameter(), b.diameter());
    const double dist = ClusterTree::distance(a, b);
    return dist > 0 && eta * dist >= diam;
}

AcaResult aca_lowrank(const std::size_t* rows, std::size_t nrows,
                      const std::size_t* cols, std::size_t ncols,
                      const KernelFn& kernel, double tol,
                      std::size_t max_rank) {
    AcaResult res;
    if (nrows == 0 || ncols == 0) {
        res.converged = true;
        return res;
    }
    max_rank = std::min(max_rank, std::min(nrows, ncols));
    std::vector<VectorD> us, vs; // us[l]: nrows, vs[l]: ncols
    std::vector<char> row_used(nrows, 0);
    double frob2 = 0;          // running ‖S_k‖_F² estimate
    std::size_t next_row = 0;  // partial-pivot walk
    VectorD v(ncols), u(nrows);

    for (std::size_t k = 0; k < max_rank; ++k) {
        // Find a pivot row whose residual is not identically zero. The scan
        // order is deterministic: start at the walk position, wrap once.
        std::size_t i = next_row;
        std::size_t jstar = 0;
        bool found = false;
        for (std::size_t attempts = 0; attempts < nrows; ++attempts) {
            if (!row_used[i]) {
                for (std::size_t j = 0; j < ncols; ++j)
                    v[j] = kernel(rows[i], cols[j]);
                res.evals += ncols;
                for (std::size_t l = 0; l < us.size(); ++l) {
                    const double ui = us[l][i];
                    if (ui == 0) continue;
                    const VectorD& vl = vs[l];
                    for (std::size_t j = 0; j < ncols; ++j)
                        v[j] -= ui * vl[j];
                }
                jstar = 0;
                for (std::size_t j = 1; j < ncols; ++j)
                    if (std::abs(v[j]) > std::abs(v[jstar])) jstar = j;
                if (v[jstar] != 0) {
                    found = true;
                    break;
                }
                row_used[i] = 1; // exactly-zero residual row: skip for good
            }
            i = (i + 1 == nrows) ? 0 : i + 1;
        }
        if (!found) {
            // Every remaining row has a zero residual: the block is exactly
            // rank-k (possibly k == 0 for a zero block).
            res.converged = true;
            break;
        }
        row_used[i] = 1;
        const double piv = v[jstar];
        for (std::size_t j = 0; j < ncols; ++j) v[j] /= piv;

        for (std::size_t r = 0; r < nrows; ++r)
            u[r] = kernel(rows[r], cols[jstar]);
        res.evals += nrows;
        for (std::size_t l = 0; l < us.size(); ++l) {
            const double vj = vs[l][jstar];
            if (vj == 0) continue;
            const VectorD& ul = us[l];
            for (std::size_t r = 0; r < nrows; ++r) u[r] -= vj * ul[r];
        }

        // ‖S_{k+1}‖_F² = ‖S_k‖_F² + ‖u‖²‖v‖² + 2 Σ_l (u·u_l)(v·v_l).
        double un2 = 0, vn2 = 0;
        for (std::size_t r = 0; r < nrows; ++r) un2 += u[r] * u[r];
        for (std::size_t j = 0; j < ncols; ++j) vn2 += v[j] * v[j];
        double cross = 0;
        for (std::size_t l = 0; l < us.size(); ++l) {
            double uu = 0, vv = 0;
            for (std::size_t r = 0; r < nrows; ++r) uu += u[r] * us[l][r];
            for (std::size_t j = 0; j < ncols; ++j) vv += v[j] * vs[l][j];
            cross += uu * vv;
        }
        frob2 += un2 * vn2 + 2.0 * cross;
        us.push_back(u);
        vs.push_back(v);

        // Next pivot row: the largest |u| entry among unused rows.
        next_row = 0;
        double best = -1;
        for (std::size_t r = 0; r < nrows; ++r)
            if (!row_used[r] && std::abs(u[r]) > best) {
                best = std::abs(u[r]);
                next_row = r;
            }

        if (un2 * vn2 <= tol * tol * frob2) {
            res.converged = true;
            break;
        }
    }

    // A cross approximation that consumed every row (or reached the smaller
    // block dimension) interpolates the block exactly — each eliminated
    // pivot row has an identically zero residual by construction.
    if (us.size() == std::min(nrows, ncols)) res.converged = true;

    const std::size_t rank = us.size();
    res.u = MatrixD(nrows, rank);
    res.v = MatrixD(rank, ncols);
    for (std::size_t l = 0; l < rank; ++l) {
        for (std::size_t r = 0; r < nrows; ++r) res.u(r, l) = us[l][r];
        for (std::size_t j = 0; j < ncols; ++j) res.v(l, j) = vs[l][j];
    }
    return res;
}

Hmatrix::Hmatrix(std::vector<std::array<double, 3>> points, KernelFn kernel,
                 const HmatrixOptions& opt)
    : tree_(std::move(points), std::max<std::size_t>(opt.leaf_size, 1)),
      kernel_(std::move(kernel)),
      opt_(opt) {
    PGSI_REQUIRE(opt_.aca_tol > 0, "HmatrixOptions: aca_tol must be positive");
    PGSI_REQUIRE(opt_.eta > 0, "HmatrixOptions: eta must be positive");
    build();
}

void Hmatrix::build() {
    PGSI_TRACE_SCOPE("em.hmatrix.build");
    stats_.elements = tree_.size();
    if (tree_.size() == 0) return;

    // Enumerate the symmetric block partition from (root, root). Diagonal
    // pairs recurse over child pairs (i <= j), so each unordered cluster
    // pair appears exactly once; apply() adds the transposed contribution
    // of off-diagonal blocks.
    struct Pending {
        std::size_t row, col;
        bool far;
    };
    std::vector<Pending> pend;
    const auto& nodes = tree_.nodes();
    const std::function<void(std::size_t, std::size_t)> partition =
        [&](std::size_t t, std::size_t s) {
            const ClusterNode& nt = nodes[t];
            const ClusterNode& ns = nodes[s];
            if (nt.count() == 0 || ns.count() == 0) return;
            if (t != s && admissible(nt, ns, opt_.eta) &&
                std::min(nt.count(), ns.count()) >= kMinAcaDim) {
                pend.push_back({t, s, true});
                return;
            }
            if (nt.leaf() && ns.leaf()) {
                pend.push_back({t, s, false});
                return;
            }
            if (t == s) {
                const std::size_t c0 = static_cast<std::size_t>(nt.child0);
                const std::size_t c1 = static_cast<std::size_t>(nt.child1);
                partition(c0, c0);
                partition(c0, c1);
                partition(c1, c1);
                return;
            }
            // Split whichever side has children; a leaf side stays whole.
            std::array<std::size_t, 2> ts{t, t}, ss{s, s};
            std::size_t nt_parts = 1, ns_parts = 1;
            if (!nt.leaf()) {
                ts = {static_cast<std::size_t>(nt.child0),
                      static_cast<std::size_t>(nt.child1)};
                nt_parts = 2;
            }
            if (!ns.leaf()) {
                ss = {static_cast<std::size_t>(ns.child0),
                      static_cast<std::size_t>(ns.child1)};
                ns_parts = 2;
            }
            for (std::size_t a = 0; a < nt_parts; ++a)
                for (std::size_t b = 0; b < ns_parts; ++b)
                    partition(ts[a], ss[b]);
        };
    partition(0, 0);

    // Parallel fill: every block is independent, writes its own slot, and
    // runs a fully serial ACA inside — deterministic at any thread count.
    blocks_.assign(pend.size(), Block{});
    std::vector<std::size_t> evals(pend.size(), 0);
    const std::vector<std::size_t>& perm = tree_.perm();
    par::parallel_for(pend.size(), [&](std::size_t bi) {
        const Pending& pb = pend[bi];
        Block& blk = blocks_[bi];
        blk.row = pb.row;
        blk.col = pb.col;
        const ClusterNode& nr = nodes[pb.row];
        const ClusterNode& nc = nodes[pb.col];
        const std::size_t m = nr.count(), n = nc.count();
        const std::size_t* rows = perm.data() + nr.begin;
        const std::size_t* cols = perm.data() + nc.begin;
        if (pb.far) {
            // One rule: the block is low-rank when ACA meets aca_tol below
            // the storage break-even rank mn/(m+n) — a rank beyond it stores
            // more than the dense block, so sampling past it is pure waste.
            // A miss, or a recompressed rank still at break-even, is a
            // storage verdict: the block is assembled dense and exact.
            const std::size_t be_cap =
                std::max<std::size_t>(m * n / (m + n), 1);
            AcaResult r =
                aca_lowrank(rows, m, cols, n, kernel_, opt_.aca_tol, be_cap);
            evals[bi] += r.evals;
            if (r.converged) {
                recompress(r, opt_.aca_tol);
                if (r.u.cols() * (m + n) < m * n) {
                    blk.lowrank = true;
                    blk.u = std::move(r.u);
                    blk.v = std::move(r.v);
                    return;
                }
            }
        }
        blk.d = MatrixD(m, n);
        for (std::size_t i = 0; i < m; ++i)
            for (std::size_t j = 0; j < n; ++j)
                blk.d(i, j) = kernel_(rows[i], cols[j]);
        evals[bi] += m * n;
    });

    // Serial reduction: stats, scratch layout, obs surfacing.
    static obs::Counter& c_blocks = obs::counter("em.aca.blocks");
    static obs::Counter& c_dense = obs::counter("em.aca.dense_blocks");
    static obs::Histogram& h_rank = obs::histogram("em.aca.rank");
    scratch_off_.resize(blocks_.size());
    for (std::size_t bi = 0; bi < blocks_.size(); ++bi) {
        const Block& blk = blocks_[bi];
        scratch_off_[bi] = scratch_len_;
        scratch_len_ += nodes[blk.row].count() +
                        (blk.row != blk.col ? nodes[blk.col].count() : 0);
        stats_.kernel_evals += evals[bi];
        if (blk.lowrank) {
            ++stats_.lowrank_blocks;
            const std::size_t rank = blk.u.cols();
            stats_.rank_total += rank;
            stats_.max_rank_seen = std::max(stats_.max_rank_seen, rank);
            stats_.stored_entries +=
                rank * (nodes[blk.row].count() + nodes[blk.col].count());
            ++c_blocks;
            h_rank.record(static_cast<double>(rank));
        } else {
            ++stats_.dense_blocks;
            stats_.stored_entries += blk.d.rows() * blk.d.cols();
            ++c_dense;
        }
    }
    obs::gauge("em.hmatrix.compression").set(stats_.compression());
}

void Hmatrix::apply(const Complex* x, Complex* y) const {
    const std::size_t n = tree_.size();
    if (n == 0) return;
    PGSI_TRACE_SCOPE("em.hmatrix.apply");
    const std::vector<std::size_t>& perm = tree_.perm();
    const auto& nodes = tree_.nodes();

    // Work in cluster order so every block touches contiguous ranges.
    VectorC xp(n);
    for (std::size_t k = 0; k < n; ++k) xp[k] = x[perm[k]];

    // Phase 1 (parallel): per-block products into disjoint scratch slots.
    VectorC scratch(scratch_len_);
    par::parallel_for(blocks_.size(), [&](std::size_t bi) {
        const Block& b = blocks_[bi];
        const ClusterNode& nr = nodes[b.row];
        const ClusterNode& nc = nodes[b.col];
        const std::size_t mr = nr.count(), mc = nc.count();
        const Complex* xr = xp.data() + nr.begin;
        const Complex* xc = xp.data() + nc.begin;
        Complex* out_r = scratch.data() + scratch_off_[bi]; // length mr
        Complex* out_c = out_r + mr; // length mc, off-diagonal blocks only
        const bool transposed = b.row != b.col;
        if (transposed)
            for (std::size_t j = 0; j < mc; ++j) out_c[j] = Complex{};
        if (b.lowrank) {
            // U (V x_c) and, off the diagonal, (U V)ᵀ x_r = Vᵀ (Uᵀ x_r),
            // with U's row product and Uᵀ x_r in one pass over U.
            const std::size_t rank = b.u.cols();
            VectorC t(rank), t2(transposed ? rank : 0, Complex{});
            block_product<true, false>(b.v, rank, mc, xc, t.data(), nullptr,
                                       nullptr);
            if (transposed) {
                block_product<true, true>(b.u, mr, rank, t.data(), out_r, xr,
                                          t2.data());
                block_product<false, true>(b.v, rank, mc, nullptr, nullptr,
                                           t2.data(), out_c);
            } else {
                block_product<true, false>(b.u, mr, rank, t.data(), out_r,
                                           nullptr, nullptr);
            }
        } else if (transposed) {
            // Row product and transposed product in one pass over D.
            block_product<true, true>(b.d, mr, mc, xc, out_r, xr, out_c);
        } else {
            block_product<true, false>(b.d, mr, mc, xc, out_r, nullptr,
                                       nullptr);
        }
    });

    // Phase 2 (serial, fixed order): accumulate — bit-identical results at
    // any thread count because the summation order never changes.
    VectorC yp(n, Complex{});
    for (std::size_t bi = 0; bi < blocks_.size(); ++bi) {
        const Block& b = blocks_[bi];
        const ClusterNode& nr = nodes[b.row];
        const ClusterNode& nc = nodes[b.col];
        const Complex* out_r = scratch.data() + scratch_off_[bi];
        for (std::size_t i = 0; i < nr.count(); ++i)
            yp[nr.begin + i] += out_r[i];
        if (b.row != b.col) {
            const Complex* out_c = out_r + nr.count();
            for (std::size_t j = 0; j < nc.count(); ++j)
                yp[nc.begin + j] += out_c[j];
        }
    }
    for (std::size_t k = 0; k < n; ++k) y[perm[k]] = yp[k];
}

} // namespace pgsi

#include "em/iterative_solver.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <utility>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/robust.hpp"
#include "numeric/lu.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"

namespace pgsi {

namespace {

// Retained recycled-subspace dimension of the sweep engine: the most recent
// solution vectors, orthonormalized, with their operator component products
// cached so re-projecting at a new frequency costs no matvecs. Must sit above
// the solution manifold's numerical rank over the band (typically 20–40 for a
// decade-wide plane sweep) for deep warm starts; below it the eviction churn
// discards the bracketing solutions the projection needs.
constexpr std::size_t kRecycleDim = 48;

// Edge length of a near-field preconditioner tile, in mesh cells. Each tile
// gathers the current cells whose midpoints fall in a square this many
// pitches wide and factors their dense coupling block. Tiles must be large
// enough to capture the local plaquette loop currents; below ~8 cells the
// block approximation degrades visibly on stacked or multi-island meshes.
constexpr std::size_t kPrecondTileCells = 10;

// A frequency whose final true relative residual exceeds this is recovered
// through the dense solver (Recover) or throws (Strict) instead of returning
// a silently inaccurate Z.
constexpr double kFailTol = 1e-8;

// Auto picks Iterative at or above this many mesh nodes (when assembly is
// not Direct), on either operator family.
constexpr std::size_t kAutoNodeThreshold = 400;

} // namespace

IterativeSolver::IterativeSolver(const PlaneBem& bem, SurfaceImpedance zs,
                                 SolverOptions options)
    : bem_(bem), zs_(zs), options_(options) {}

void IterativeSolver::ensure_setup() const {
    std::call_once(setup_once_, [this] { setup(); });
}

void IterativeSolver::setup() const {
    PGSI_TRACE_SCOPE("em.iterative.setup");
    PGSI_ALLOC_SCOPE("em.iterative");
    // The PlaneBem owns the operators: Toeplitz on a uniform lattice,
    // ACA/H-matrix otherwise. Compressed parts only report their build work
    // here.
    const InteractionOperator& pop = bem_.potential_operator();
    const InteractionOperator& lop = bem_.inductance_operator();
    stats_.hmatrix = pop.compressed();
    std::size_t stored = 0;
    double elems2 = 0;
    for (const InteractionOperator* op : {&pop, &lop})
        for (const auto& part : op->hmatrix_parts()) {
            const HmatrixStats& hs = part->stats();
            stats_.aca_blocks += hs.lowrank_blocks;
            stats_.aca_dense_blocks += hs.dense_blocks;
            stored += hs.stored_entries;
            elems2 += static_cast<double>(hs.elements) *
                      static_cast<double>(hs.elements);
        }
    stats_.hmatrix_compression =
        elems2 > 0 ? static_cast<double>(stored) / elems2 : 1.0;

    const auto& branches = bem_.mesh().branches();
    zs_scale_.resize(branches.size());
    for (std::size_t b = 0; b < branches.size(); ++b)
        zs_scale_[b] = branches[b].length() / branches[b].width();

    // A(ω) = Zs + jωL + S/jω is affine in the frequency-independent L and
    // S = Pᵀ Ppot P, so the preconditioner's tile blocks are cached once,
    // here, from the operators' exact entries; every frequency then
    // reassembles them without sampling a single kernel entry (on the
    // compressed path each one is a Galerkin quadrature).

    // Partition the current cells by midpoint into square geometric tiles.
    // A tile mixes x- and y-directed cells on purpose: the local plaquette
    // loop currents (the nullspace of the nodal term) only appear in blocks
    // that couple both directions. std::map keeps the tile order
    // deterministic.
    const double tw =
        static_cast<double>(kPrecondTileCells) * bem_.mesh().pitch();
    std::map<std::pair<long, long>, std::vector<std::size_t>> groups;
    for (std::size_t b = 0; b < branches.size(); ++b) {
        const double mx = 0.5 * (branches[b].x0 + branches[b].x1);
        const double my = 0.5 * (branches[b].y0 + branches[b].y1);
        const std::pair<long, long> key{
            static_cast<long>(std::floor(mx / tw)),
            static_cast<long>(std::floor(my / tw))};
        groups[key].push_back(b);
    }
    tiles_.clear();
    tiles_.reserve(groups.size());
    for (auto& [key, ids] : groups) tiles_.push_back(std::move(ids));

    tile_l_.resize(tiles_.size());
    tile_s_.resize(tiles_.size());
    par::parallel_for(tiles_.size(), [&](std::size_t ti) {
        const auto& ids = tiles_[ti];
        // S entries combine four potential entries of the branch end nodes.
        // Sample the tile's node × node potential block once (both (i, j)
        // and (j, i): table entries for ±d come from separate quadratures)
        // and combine from it.
        std::vector<std::size_t> nodes;
        nodes.reserve(2 * ids.size());
        for (const std::size_t b : ids) {
            nodes.push_back(branches[b].n1);
            nodes.push_back(branches[b].n2);
        }
        std::sort(nodes.begin(), nodes.end());
        nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
        const auto slot = [&](std::size_t node) {
            return static_cast<std::size_t>(
                std::lower_bound(nodes.begin(), nodes.end(), node) -
                nodes.begin());
        };
        MatrixD pn(nodes.size(), nodes.size());
        for (std::size_t i = 0; i < nodes.size(); ++i)
            for (std::size_t j = 0; j < nodes.size(); ++j)
                pn(i, j) = pop.entry(nodes[i], nodes[j]);
        std::vector<std::size_t> e1(ids.size()), e2(ids.size());
        for (std::size_t r = 0; r < ids.size(); ++r) {
            e1[r] = slot(branches[ids[r]].n1);
            e2[r] = slot(branches[ids[r]].n2);
        }
        MatrixD lb(ids.size(), ids.size());
        MatrixD sb(ids.size(), ids.size());
        for (std::size_t r = 0; r < ids.size(); ++r)
            for (std::size_t c = 0; c < ids.size(); ++c) {
                lb(r, c) = lop.entry(ids[r], ids[c]);
                sb(r, c) = pn(e1[r], e1[c]) - pn(e1[r], e2[c]) -
                           pn(e2[r], e1[c]) + pn(e2[r], e2[c]);
            }
        tile_l_[ti] = std::move(lb);
        tile_s_[ti] = std::move(sb);
    });
}

MatrixC IterativeSolver::solve_ports(
    double freq_hz, const std::vector<std::size_t>& port_nodes,
    SweepState* sweep) const {
    PGSI_ALLOC_SCOPE("em.iterative");
    // Cancellation point: one poll per frequency.
    if (options_.recovery.cancel != nullptr)
        options_.recovery.cancel->poll("em.iterative.solve");
    const double omega = 2.0 * pi * freq_hz;
    const Complex jw(0.0, omega);
    const Complex inv_jw = 1.0 / jw;

    const InteractionOperator& pop = bem_.potential_operator();
    const InteractionOperator& lop = bem_.inductance_operator();
    const auto& branches = bem_.mesh().branches();
    const std::size_t m = branches.size();
    const std::size_t n = bem_.node_count();
    const std::size_t p = port_nodes.size();

    const Complex zsv = zs_.at(omega);
    VectorC zsb(m);
    for (std::size_t b = 0; b < m; ++b) zsb[b] = zsv * zs_scale_[b];

    // A x = Zs.x + jw (L x) + (1/jw) P Ppot Pᵀ x, all through the operators.
    VectorC tnode(n), unode(n), wbr(m);
    const LinearOpC apply = [&](const VectorC& x, VectorC& y) {
        PGSI_TRACE_SCOPE("em.op_apply");
        std::fill(tnode.begin(), tnode.end(), Complex{});
        for (std::size_t b = 0; b < m; ++b) {
            tnode[branches[b].n1] += x[b];
            tnode[branches[b].n2] -= x[b];
        }
        InteractionOperator::apply_pair(pop, tnode, unode, lop, x, wbr);
        y.resize(m);
        for (std::size_t b = 0; b < m; ++b)
            y[b] = zsb[b] * x[b] + jw * wbr[b] +
                   inv_jw * (unode[branches[b].n1] - unode[branches[b].n2]);
    };

    // Block-Jacobi preconditioner: the cached tile blocks reassembled at ω
    // and LU-factored once per frequency.
    std::vector<std::unique_ptr<const Lu<Complex>>> tile_lu(tiles_.size());
    {
        PGSI_TRACE_SCOPE("em.precond.factor");
        par::parallel_for(tiles_.size(), [&](std::size_t ti) {
            const auto& ids = tiles_[ti];
            const MatrixD& lb = tile_l_[ti];
            const MatrixD& sb = tile_s_[ti];
            MatrixC blk(ids.size(), ids.size());
            for (std::size_t r = 0; r < ids.size(); ++r) {
                for (std::size_t c = 0; c < ids.size(); ++c)
                    blk(r, c) = jw * lb(r, c) + inv_jw * sb(r, c);
                blk(r, r) += zsb[ids[r]];
            }
            tile_lu[ti] = std::make_unique<const Lu<Complex>>(std::move(blk));
        });
    }
    const LinearOpC precond = [&](const VectorC& x, VectorC& y) {
        PGSI_TRACE_SCOPE("em.precond.apply");
        y.resize(m); // every branch belongs to exactly one tile
        par::parallel_for(tiles_.size(), [&](std::size_t ti) {
            const auto& ids = tiles_[ti];
            VectorC rhs(ids.size());
            for (std::size_t r = 0; r < ids.size(); ++r) rhs[r] = x[ids[r]];
            const VectorC sol = tile_lu[ti]->solve(rhs);
            for (std::size_t r = 0; r < ids.size(); ++r) y[ids[r]] = sol[r];
        });
    };

    std::size_t recycle_hits = 0, recycle_applies = 0;
    bool warm_started = false;
    // Convergence stream: one point per frequency (columns, iterations),
    // with a mark where the frequency fell back to the dense solver.
    const std::size_t sid = obs::streams_enabled()
                                ? obs::stream_open("em.iterative.columns")
                                : obs::kStreamNone;
    if (sid != obs::kStreamNone)
        obs::stream_mark(sid, 0.0, "f=" + std::to_string(freq_hz) + "Hz");

    // Right-hand sides b_k = (1/jw) P Ppot e_port. The P Ppot e_port part is
    // frequency-independent, so a sweep computes it once and every later
    // frequency only rescales by 1/jw.
    std::vector<VectorC> rhs_base_local;
    const std::vector<VectorC>* rhs_base = nullptr;
    if (sweep && sweep->rhs_base.size() == p) {
        rhs_base = &sweep->rhs_base;
    } else {
        rhs_base_local.assign(p, VectorC(m));
        for (std::size_t k = 0; k < p; ++k) {
            std::fill(tnode.begin(), tnode.end(), Complex{});
            tnode[port_nodes[k]] = Complex(1.0, 0.0);
            pop.apply(tnode, unode);
            for (std::size_t b = 0; b < m; ++b)
                rhs_base_local[k][b] =
                    unode[branches[b].n1] - unode[branches[b].n2];
        }
        if (sweep) {
            sweep->rhs_base = std::move(rhs_base_local);
            rhs_base = &sweep->rhs_base;
        } else {
            rhs_base = &rhs_base_local;
        }
    }
    std::vector<VectorC> rhs(p, VectorC(m));
    for (std::size_t k = 0; k < p; ++k)
        for (std::size_t b = 0; b < m; ++b)
            rhs[k][b] = inv_jw * (*rhs_base)[k][b];

    // Initial guesses, which GMRES overwrites with the solutions. With a
    // recycled subspace U on hand, A(ω)·U recombines from the cached
    // component products (no operator applications), and each column
    // warm-starts from the least-squares projection
    // x0 = U argmin_y |b − A(ω) U y|.
    std::vector<VectorC> sol(p, VectorC(m, Complex{}));
    if (sweep && !sweep->basis_u.empty()) {
        const std::size_t d = sweep->basis_u.size();
        std::vector<VectorC> au(d, VectorC(m));
        for (std::size_t j = 0; j < d; ++j)
            for (std::size_t b = 0; b < m; ++b)
                au[j][b] = zsv * sweep->basis_d[j][b] +
                           jw * sweep->basis_l[j][b] +
                           inv_jw * sweep->basis_s[j][b];
        // Thin QR of [A·u_1 … A·u_d] by modified Gram-Schmidt; the
        // least squares then solves through Qᴴ and back-substitution.
        // (Normal equations would square A's conditioning and cap the
        // projected residual orders of magnitude above what the
        // subspace actually supports — the warm start lives or dies on
        // that floor.) Columns A maps to near-dependence are dropped.
        MatrixC rq(d, d);
        std::vector<bool> keep(d, true);
        for (std::size_t j = 0; j < d; ++j) {
            const double an0 = norm2(au[j]);
            for (std::size_t i = 0; i < j; ++i) {
                if (!keep[i]) continue;
                const Complex rij = dot(au[i], au[j]);
                rq(i, j) = rij;
                const VectorC& qi = au[i];
                for (std::size_t b = 0; b < m; ++b)
                    au[j][b] -= rij * qi[b];
            }
            const double rjj = norm2(au[j]);
            if (!(rjj > 1e-13 * an0)) {
                keep[j] = false;
                rq(j, j) = Complex(1.0, 0.0);
                continue;
            }
            rq(j, j) = rjj;
            for (std::size_t b = 0; b < m; ++b) au[j][b] /= rjj;
        }
        VectorC qb(d), y(d);
        for (std::size_t k = 0; k < p; ++k) {
            double rnum = 0, rden = 0;
            for (std::size_t b = 0; b < m; ++b)
                rden += std::norm(rhs[k][b]);
            double captured = 0;
            for (std::size_t j = 0; j < d; ++j) {
                qb[j] = keep[j] ? dot(au[j], rhs[k]) : Complex{};
                captured += std::norm(qb[j]);
            }
            rnum = std::max(0.0, rden - captured);
            if (rden > 0 && rnum < 0.98 * rden) {
                // The subspace captures a meaningful part of this
                // column: take the projected guess.
                for (std::size_t j = d; j-- > 0;) {
                    if (!keep[j]) {
                        y[j] = Complex{};
                        continue;
                    }
                    Complex acc = qb[j];
                    for (std::size_t t = j + 1; t < d; ++t)
                        acc -= rq(j, t) * y[t];
                    y[j] = acc / rq(j, j);
                }
                for (std::size_t j = 0; j < d; ++j)
                    for (std::size_t b = 0; b < m; ++b)
                        sol[k][b] += y[j] * sweep->basis_u[j][b];
                ++recycle_hits;
            }
        }
        warm_started = true;
    }

    // One block GMRES over every port column. The block shares one
    // inner-iteration budget across its columns; scale it so each column
    // keeps the allowance of a one-column solve.
    GmresOptions bopt = options_.gmres;
    bopt.max_iterations *= p;
    BlockGmresResult br;
    {
        PGSI_TRACE_SCOPE("em.gmres");
        br = block_gmres(apply, rhs, sol, bopt, precond);
    }
    const std::size_t iters = br.iterations;
    std::size_t matvecs = br.matvecs;
    if (sid != obs::kStreamNone)
        obs::stream_append(sid, static_cast<double>(p),
                           static_cast<double>(iters));
    bool converged = true;
    double worst_ok = 0, worst_bad = 0;
    for (std::size_t k = 0; k < p; ++k) {
        const double res = br.residuals[k];
        if (res <= kFailTol && robust::all_finite(sol[k])) {
            worst_ok = std::max(worst_ok, res);
        } else {
            converged = false;
            worst_bad = std::max(worst_bad, res);
        }
    }
    if (!converged &&
        options_.recovery.policy != robust::RecoveryPolicy::Recover)
        throw NumericalError(
            "IterativeSolver: GMRES stalled at relative residual " +
            std::to_string(worst_bad) + " (fail tolerance " +
            std::to_string(kFailTol) + ") at f = " +
            std::to_string(freq_hz) + " Hz");

    MatrixC z(p, p);
    robust::RecoveryReport local_report;
    if (converged) {
        // V = (1/jw) Ppot (J − Pᵀ I); Z(q, k) = V at port q.
        for (std::size_t k = 0; k < p; ++k) {
            std::fill(tnode.begin(), tnode.end(), Complex{});
            tnode[port_nodes[k]] = Complex(1.0, 0.0);
            for (std::size_t b = 0; b < m; ++b) {
                tnode[branches[b].n1] -= sol[k][b];
                tnode[branches[b].n2] += sol[k][b];
            }
            pop.apply(tnode, unode);
            for (std::size_t q = 0; q < p; ++q)
                z(q, k) = inv_jw * unode[port_nodes[q]];
        }
    } else {
        // Recovery: dense LU for the whole frequency point. The GMRES work
        // stays in the stats; the residuals of the columns that did
        // converge stay in the worst-residual telemetry.
        if (sid != obs::kStreamNone)
            obs::stream_mark(sid, 0.0, "escalate:dense_fallback");
        robust::note_recovery(
            &local_report, "em.dense_fallback",
            "GMRES stalled at residual " + std::to_string(worst_bad) +
                " at f = " + std::to_string(freq_hz) +
                " Hz; recomputed the frequency with the dense solver");
        z = dense_solver().port_impedance(freq_hz, port_nodes);
    }

    // Grow the recycled subspace with this frequency's solutions: modified
    // Gram-Schmidt against the existing basis, then cache the operator
    // component products (one L and one P·Ppot·Pᵀ application per retained
    // vector) so any later frequency recombines A(ω)·u for free. Solutions
    // are the right thing to recycle — they sample the analytic solution
    // manifold x(ω), which the multilevel sweep order then lets every later
    // point interpolate; recycling raw Krylov directions instead floods the
    // basis with one point's fine corrections and evicts that manifold.
    // Oldest vectors are evicted first; dropping a vector from an
    // orthonormal set keeps it orthonormal. A dense-fallback point adds
    // nothing: GMRES did not produce its solutions.
    std::size_t saved_iters = 0;
    if (sweep && converged) {
        for (std::size_t k = 0; k < p; ++k) {
            VectorC u = sol[k];
            const double xn = norm2(u);
            for (std::size_t j = 0; j < sweep->basis_u.size(); ++j) {
                const Complex c = dot(sweep->basis_u[j], u);
                const VectorC& uj = sweep->basis_u[j];
                for (std::size_t b = 0; b < m; ++b) u[b] -= c * uj[b];
            }
            const double un = norm2(u);
            if (!(un > 1e-10 * xn)) continue; // already spanned
            for (std::size_t b = 0; b < m; ++b) u[b] /= un;
            VectorC du(m), lu(m), su(m);
            for (std::size_t b = 0; b < m; ++b)
                du[b] = zs_scale_[b] * u[b];
            lop.apply(u, lu);
            std::fill(tnode.begin(), tnode.end(), Complex{});
            for (std::size_t b = 0; b < m; ++b) {
                tnode[branches[b].n1] += u[b];
                tnode[branches[b].n2] -= u[b];
            }
            pop.apply(tnode, unode);
            for (std::size_t b = 0; b < m; ++b)
                su[b] = unode[branches[b].n1] - unode[branches[b].n2];
            ++recycle_applies;
            ++matvecs; // one full A-component application
            sweep->basis_u.push_back(std::move(u));
            sweep->basis_d.push_back(std::move(du));
            sweep->basis_l.push_back(std::move(lu));
            sweep->basis_s.push_back(std::move(su));
        }
        while (sweep->basis_u.size() > kRecycleDim) {
            sweep->basis_u.erase(sweep->basis_u.begin());
            sweep->basis_d.erase(sweep->basis_d.begin());
            sweep->basis_l.erase(sweep->basis_l.begin());
            sweep->basis_s.erase(sweep->basis_s.begin());
        }
        if (!sweep->have_cold) {
            sweep->have_cold = true;
            sweep->cold_iterations = iters;
        } else if (iters < sweep->cold_iterations) {
            saved_iters = sweep->cold_iterations - iters;
        }
    }

    {
        static obs::Counter& c_warm = obs::counter("em.sweep.warm_starts");
        static obs::Counter& c_hits = obs::counter("em.sweep.recycle_hits");
        static obs::Counter& c_saved =
            obs::counter("em.sweep.saved_iterations");
        const std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.frequencies;
        stats_.solves += p;
        ++stats_.block_solves;
        stats_.iterations += iters;
        stats_.matvecs += matvecs;
        stats_.restarts += br.cycles;
        if (!converged) ++stats_.dense_fallbacks;
        stats_.worst_residual = std::max(stats_.worst_residual, worst_ok);
        if (sweep) {
            ++stats_.sweep_points;
            if (warm_started) {
                ++stats_.warm_starts;
                ++c_warm;
            }
            stats_.recycle_hits += recycle_hits;
            stats_.recycle_applies += recycle_applies;
            stats_.saved_iterations += saved_iters;
            c_hits.add(recycle_hits);
            c_saved.add(saved_iters);
        }
        report_.merge(local_report);
    }
    return z;
}

const DirectSolver& IterativeSolver::dense_solver() const {
    const std::lock_guard<std::mutex> lock(dense_mu_);
    if (!dense_) dense_ = std::make_unique<DirectSolver>(bem_, zs_);
    return *dense_;
}

MatrixC IterativeSolver::port_impedance(
    double freq_hz, const std::vector<std::size_t>& port_nodes) const {
    PGSI_REQUIRE(freq_hz > 0, "IterativeSolver: frequency must be positive");
    PGSI_REQUIRE(!port_nodes.empty(), "IterativeSolver: no port nodes given");
    for (const std::size_t node : port_nodes)
        PGSI_REQUIRE(node < bem_.node_count(),
                     "IterativeSolver: port node out of range");
    PGSI_TRACE_SCOPE("em.solve.port_impedance_iterative");
    ensure_setup();
    return solve_ports(freq_hz, port_nodes, nullptr);
}

std::vector<MatrixC> IterativeSolver::sweep_impedance(
    const VectorD& freqs_hz, const std::vector<std::size_t>& port_nodes) const {
    PGSI_TRACE_SCOPE("em.solve.sweep");
    std::vector<MatrixC> out(freqs_hz.size());
    if (freqs_hz.empty()) return out;
    // Validate the whole grid before setup or any solve, as port_impedance
    // does for its one point: the bisection order below reaches a bad
    // frequency only after solving the points ahead of it.
    for (const double f : freqs_hz)
        PGSI_REQUIRE(f > 0, "IterativeSolver: frequency must be positive");
    PGSI_REQUIRE(!port_nodes.empty(), "IterativeSolver: no port nodes given");
    for (const std::size_t node : port_nodes)
        PGSI_REQUIRE(node < bem_.node_count(),
                     "IterativeSolver: port node out of range");
    if (freqs_hz.size() == 1) {
        // No other frequency to reuse work from.
        out[0] = port_impedance(freqs_hz[0], port_nodes);
        return out;
    }
    ensure_setup();
    // Sweep engine: frequencies run sequentially so each point reuses the
    // previous points' Krylov work (warm starts, recycled subspace, cached
    // rhs bases). The kernels inside each point still use the pool, and all
    // cross-frequency decisions are serial, so results are bitwise
    // independent of the thread count.
    const std::size_t sid = obs::streams_enabled()
                                ? obs::stream_open("em.sweep.iterations")
                                : obs::kStreamNone;
    // Multilevel solve order: endpoints first, then level-by-level segment
    // midpoints (breadth-first bisection). Each later point is bracketed by
    // already-solved frequencies, so the warm-start projection interpolates
    // instead of extrapolating — the projected initial residual drops by
    // orders of magnitude, which is where the sweep's matvec savings come
    // from.
    std::vector<std::size_t> order{0, freqs_hz.size() - 1};
    order.reserve(freqs_hz.size());
    std::vector<std::pair<std::size_t, std::size_t>> level{
        {0, freqs_hz.size() - 1}};
    while (!level.empty()) {
        std::vector<std::pair<std::size_t, std::size_t>> next;
        for (const auto& [lo, hi] : level) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (mid == lo || mid == hi) continue;
            order.push_back(mid);
            next.emplace_back(lo, mid);
            next.emplace_back(mid, hi);
        }
        level = std::move(next);
    }
    SweepState sweep;
    for (const std::size_t i : order) {
        const std::size_t iters_before = stats_.iterations;
        out[i] = solve_ports(freqs_hz[i], port_nodes, &sweep);
        if (sid != obs::kStreamNone)
            obs::stream_append(
                sid, freqs_hz[i],
                static_cast<double>(stats_.iterations - iters_before));
    }
    return out;
}

std::unique_ptr<PlaneSolver> make_solver(const PlaneBem& bem,
                                         SurfaceImpedance zs,
                                         const SolverOptions& options) {
    SolverBackend backend = options.backend;
    if (backend == SolverBackend::Auto) {
        // One crossover: the matrix-free operators (Toeplitz on a uniform
        // lattice, ACA/H-matrix otherwise) win at or above the node
        // threshold unless assembly is Direct; dense direct below it. The
        // chosen operator family is observable via the em.backend.* counters.
        const bool iterative = bem.options().assembly != AssemblyMode::Direct &&
                               bem.node_count() >= kAutoNodeThreshold;
        backend = iterative ? SolverBackend::Iterative : SolverBackend::Direct;
        static obs::Counter& c_toe = obs::counter("em.backend.toeplitz");
        static obs::Counter& c_hm = obs::counter("em.backend.hmatrix");
        static obs::Counter& c_dense = obs::counter("em.backend.dense");
        if (!iterative)
            ++c_dense;
        else if (bem.uniform_lattice())
            ++c_toe;
        else
            ++c_hm;
    }
    if (backend == SolverBackend::Iterative)
        return std::make_unique<IterativeSolver>(bem, zs, options);
    return std::make_unique<DirectSolver>(bem, zs, options.recovery);
}

} // namespace pgsi

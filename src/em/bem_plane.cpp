#include "em/bem_plane.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "numeric/cholesky.hpp"
#include "numeric/quadrature.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/trace.hpp"

namespace pgsi {

PlaneBem::PlaneBem(RectMesh mesh, Greens greens, BemOptions options) {
    PGSI_REQUIRE(options.galerkin_order >= 1 && options.galerkin_order <= 8,
                 "BemOptions: galerkin_order out of range");
    PGSI_REQUIRE(options.l_quad_order >= 1 && options.l_quad_order <= 8,
                 "BemOptions: l_quad_order out of range");
    const QuadratureRule* grule = &gauss_legendre(options.galerkin_order);
    const QuadratureRule* lrule = &gauss_legendre(options.l_quad_order);
    model_ = std::make_shared<const Model>(Model{
        std::move(mesh), std::move(greens), options, grule, lrule});
}

namespace {

Rect cell_rect(const MeshNode& n) {
    return Rect{n.center.x - 0.5 * n.dx, n.center.x + 0.5 * n.dx,
                n.center.y - 0.5 * n.dy, n.center.y + 0.5 * n.dy};
}

Rect branch_rect(const MeshBranch& b) { return Rect{b.x0, b.x1, b.y0, b.y1}; }

// Average of f over rect with the given (n-point per axis) Gauss rule. The
// rule is passed in so hot loops look it up once, outside the mutex-guarded
// rule cache.
template <class F>
double cell_average(const Rect& r, const QuadratureRule& rule, F&& f) {
    const std::size_t n = rule.nodes.size();
    const double mx = 0.5 * (r.x0 + r.x1), hx = 0.5 * (r.x1 - r.x0);
    const double my = 0.5 * (r.y0 + r.y1), hy = 0.5 * (r.y1 - r.y0);
    double s = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = mx + hx * rule.nodes[i];
        double row = 0;
        for (std::size_t j = 0; j < n; ++j)
            row += rule.weights[j] * f(Point2{x, my + hy * rule.nodes[j]});
        s += rule.weights[i] * row;
    }
    return 0.25 * s; // Gauss weights sum to 2 per axis; /4 yields the average
}

// The translation-invariant interaction lattice/table machinery lives in
// em/interaction_lattice.hpp, shared with the block-Toeplitz operators.

// Symmetric n×n matrix from its lower triangle: entry(i, j) for i >= j,
// row-parallel (each worker owns whole rows, so workers share a cache line
// only where two rows meet), then mirrored on the pool (mirror_lower).
template <class F>
MatrixD symmetric_fill(std::size_t n, F&& entry) {
    MatrixD a(n, n);
    par::parallel_for(n, [&](std::size_t i) {
        double* row = a.row(i);
        for (std::size_t j = 0; j <= i; ++j) row[j] = entry(i, j);
    });
    mirror_lower(a);
    return a;
}

obs::Counter& cached_fill_counter() {
    static obs::Counter& c = obs::counter("bem.assembly.cached_fills");
    return c;
}
obs::Counter& direct_fill_counter() {
    static obs::Counter& c = obs::counter("bem.assembly.direct_fills");
    return c;
}
obs::Counter& cache_entry_counter() {
    static obs::Counter& c = obs::counter("bem.cache.entries");
    return c;
}

} // namespace

MatrixD PlaneBem::assemble_potential() const {
    PGSI_TRACE_SCOPE("bem.fill.potential");
    PGSI_ALLOC_SCOPE("em.assembly");
    const std::size_t n = node_count();
    const AssemblyMode mode = options().assembly;

    Lattice lat;
    if (mode != AssemblyMode::Direct) lat = node_lattice();
    if (mode == AssemblyMode::Cached)
        PGSI_REQUIRE(lat.uniform,
                     "AssemblyMode::Cached requires a uniform-pitch mesh "
                     "(congruent cells on one lattice)");
    const bool cached =
        mode == AssemblyMode::Cached ||
        (mode == AssemblyMode::Auto && cache_profitable(lat, n * (n + 1) / 2));

    if (cached) {
        const std::vector<double>& table = potential_table();
        MatrixD p = symmetric_fill(n, [&](std::size_t i, std::size_t j) {
            return table[table_index(lat, i, j)];
        });
        {
            const std::lock_guard<std::mutex> lock(stats_->mu);
            stats_->value.potential_cached = true;
        }
        ++cached_fill_counter();
        return p;
    }
    const Model& model = *model_;
    MatrixD p = symmetric_fill(n, [&](std::size_t i, std::size_t j) {
        return model.potential(i, j);
    });
    ++direct_fill_counter();
    return p;
}

const MatrixD& PlaneBem::potential_matrix() const {
    return ppot_.get([&] { return assemble_potential(); });
}

const MatrixD& PlaneBem::maxwell_capacitance() const {
    return cmax_.get([&] {
        const MatrixD& p = potential_matrix();
        PGSI_TRACE_SCOPE("bem.invert.potential");
        PGSI_ALLOC_SCOPE("em.assembly");
        return Cholesky(p).solve(MatrixD::identity(p.rows()));
    });
}

MatrixD PlaneBem::assemble_inductance() const {
    PGSI_TRACE_SCOPE("bem.fill.inductance");
    PGSI_ALLOC_SCOPE("em.assembly");
    const auto& branches = mesh().branches();
    const std::size_t m = branches.size();
    const AssemblyMode mode = options().assembly;

    // x- and y-directed current cells are two separate congruent families
    // (and do not couple to each other), each with its own lattice/table.
    bool uniform = false;
    std::size_t entries = 0, direct_evals = 0;
    if (mode != AssemblyMode::Direct) {
        const BranchFamilies& bf = branch_families();
        uniform = bf.uniform;
        for (int d = 0; d < 2; ++d) {
            if (!bf.idx[d].empty()) entries += bf.lat[d].table_entries();
            direct_evals += bf.idx[d].size() * (bf.idx[d].size() + 1) / 2;
        }
    }
    if (mode == AssemblyMode::Cached)
        PGSI_REQUIRE(uniform,
                     "AssemblyMode::Cached requires a uniform-pitch mesh "
                     "(congruent current cells on one lattice per direction)");
    const bool cached =
        mode == AssemblyMode::Cached ||
        (mode == AssemblyMode::Auto && uniform && entries < direct_evals);

    if (cached) {
        // Family ids ascend with the global ids, so a global lower-triangle
        // pair is a family-local one too.
        const BranchFamilies& bf = branch_families();
        const std::vector<double>* table[2];
        for (int d = 0; d < 2; ++d)
            table[d] = bf.idx[d].empty() ? nullptr : &inductance_table(d);
        MatrixD l = symmetric_fill(m, [&](std::size_t a, std::size_t b) {
            if (branches[a].dir != branches[b].dir) return 0.0;
            const int d = branches[a].dir == BranchDir::Y;
            return (*table[d])[table_index(bf.lat[d], bf.local[a], bf.local[b])];
        });
        {
            const std::lock_guard<std::mutex> lock(stats_->mu);
            stats_->value.inductance_cached = true;
        }
        ++cached_fill_counter();
        return l;
    }
    const Model& model = *model_;
    MatrixD l = symmetric_fill(m, [&](std::size_t a, std::size_t b) {
        return model.inductance(a, b);
    });
    ++direct_fill_counter();
    return l;
}

const MatrixD& PlaneBem::inductance_matrix() const {
    return l_.get([&] { return assemble_inductance(); });
}

const VectorD& PlaneBem::branch_resistance() const {
    return rbranch_.get([&] {
        const auto& branches = mesh().branches();
        VectorD r(branches.size());
        for (std::size_t b = 0; b < branches.size(); ++b) {
            const double rs = mesh().shapes()[branches[b].shape].sheet_resistance;
            r[b] = rs * branches[b].length() / branches[b].width();
        }
        return r;
    });
}

MatrixD PlaneBem::incidence_dense() const {
    const auto& branches = mesh().branches();
    MatrixD a(branches.size(), node_count());
    for (std::size_t b = 0; b < branches.size(); ++b) {
        a(b, branches[b].n1) = 1.0;
        a(b, branches[b].n2) = -1.0;
    }
    return a;
}

const MatrixD& PlaneBem::gamma() const {
    return gamma_.get([&] {
        const MatrixD& l = inductance_matrix();
        PGSI_TRACE_SCOPE("bem.gamma");
        PGSI_ALLOC_SCOPE("em.assembly");
        const MatrixD a = incidence_dense();
        // X = L⁻¹ P, then Γ = Pᵀ X accumulated through the sparse incidence.
        const MatrixD x = Cholesky(l).solve(a);
        const std::size_t n = node_count();
        MatrixD g(n, n);
        const auto& branches = mesh().branches();
        for (std::size_t b = 0; b < branches.size(); ++b) {
            const double* xrow = x.row(b);
            double* r1 = g.row(branches[b].n1);
            double* r2 = g.row(branches[b].n2);
            for (std::size_t j = 0; j < n; ++j) {
                r1[j] += xrow[j];
                r2[j] -= xrow[j];
            }
        }
        // Symmetrize away quadrature noise; Γ is analytically symmetric.
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = i + 1; j < n; ++j) {
                const double v = 0.5 * (g(i, j) + g(j, i));
                g(i, j) = v;
                g(j, i) = v;
            }
        return g;
    });
}

const MatrixD& PlaneBem::dc_conductance() const {
    return gdc_.get([&] {
        const VectorD& r = branch_resistance();
        const auto& branches = mesh().branches();
        const std::size_t n = node_count();
        MatrixD g(n, n);
        for (std::size_t b = 0; b < branches.size(); ++b) {
            PGSI_REQUIRE(r[b] > 0,
                         "dc_conductance requires a lossy sheet (nonzero "
                         "sheet_resistance) on every shape");
            const double gb = 1.0 / r[b];
            const std::size_t i = branches[b].n1, j = branches[b].n2;
            g(i, i) += gb;
            g(j, j) += gb;
            g(i, j) -= gb;
            g(j, i) -= gb;
        }
        return g;
    });
}

const Lattice& PlaneBem::node_lattice() const {
    return node_lat_.get([&] {
        const auto& nodes = mesh().nodes();
        return detect_lattice(
            nodes.size(), [&](std::size_t e) { return nodes[e].center; },
            [&](std::size_t e) { return std::pair{nodes[e].dx, nodes[e].dy}; },
            [&](std::size_t e) { return nodes[e].z; });
    });
}

const PlaneBem::BranchFamilies& PlaneBem::branch_families() const {
    return branch_fam_.get([&] {
        const auto& branches = mesh().branches();
        BranchFamilies bf;
        bf.local.resize(branches.size());
        for (std::size_t b = 0; b < branches.size(); ++b) {
            auto& idx = bf.idx[branches[b].dir == BranchDir::Y];
            bf.local[b] = idx.size();
            idx.push_back(b);
        }
        bf.uniform = true;
        for (int d = 0; d < 2; ++d) {
            const auto& idx = bf.idx[d];
            bf.lat[d] = detect_lattice(
                idx.size(),
                [&](std::size_t e) {
                    return branch_rect(branches[idx[e]]).center();
                },
                [&](std::size_t e) {
                    const Rect r = branch_rect(branches[idx[e]]);
                    return std::pair{r.width(), r.height()};
                },
                [&](std::size_t e) { return branches[idx[e]].z; });
            bf.uniform = bf.uniform && bf.lat[d].uniform;
        }
        return bf;
    });
}

BemAssemblyStats PlaneBem::stats() const {
    const std::lock_guard<std::mutex> lock(stats_->mu);
    return stats_->value;
}

void PlaneBem::note_table_entries(std::size_t entries) const {
    {
        const std::lock_guard<std::mutex> lock(stats_->mu);
        stats_->value.cache_entries += entries;
    }
    cache_entry_counter().add(entries);
}

const std::vector<double>& PlaneBem::potential_table() const {
    return ptable_.get([&] {
        const Lattice& lat = node_lattice();
        PGSI_REQUIRE(lat.uniform,
                     "potential_table requires a uniform-pitch mesh");
        PGSI_TRACE_SCOPE("bem.fill.potential.table");
        const QuadratureRule& grule = *model_->grule;
        const Greens& greens = this->greens();
        const double sx = lat.sx, sy = lat.sy;
        const Rect src{-0.5 * sx, 0.5 * sx, -0.5 * sy, 0.5 * sy};
        const double inv_area = 1.0 / (sx * sy);
        std::vector<double> table = build_interaction_table(
            lat, [&](long di, long dj, double zo, double zs) {
                const Point2 obs{static_cast<double>(di) * sx,
                                 static_cast<double>(dj) * sy};
                if (options().testing == Testing::PointMatching)
                    return greens.phi_integral(obs, zo, src, zs) * inv_area;
                const Rect obsr{obs.x - 0.5 * sx, obs.x + 0.5 * sx,
                                obs.y - 0.5 * sy, obs.y + 0.5 * sy};
                return cell_average(obsr, grule, [&](Point2 q) {
                           return greens.phi_integral(q, zo, src, zs);
                       }) *
                    inv_area;
            });
        note_table_entries(table.size());
        return table;
    });
}

const std::vector<double>& PlaneBem::inductance_table(int d) const {
    return ltable_[d].get([&] {
        const BranchFamilies& bf = branch_families();
        const Lattice& lg = bf.lat[d];
        PGSI_REQUIRE(lg.uniform,
                     "inductance_table requires a uniform-pitch mesh");
        PGSI_TRACE_SCOPE("bem.fill.inductance.table");
        const QuadratureRule& lrule = *model_->lrule;
        const Greens& greens = this->greens();
        const double sx = lg.sx, sy = lg.sy;
        const Rect src{-0.5 * sx, 0.5 * sx, -0.5 * sy, 0.5 * sy};
        // All cells in the family share one width (the current-transverse
        // dimension), so the 1/(wa·wb) normalization is constant.
        const double wdir = d == 0 ? sy : sx;
        const double scale = (sx * sy) / (wdir * wdir);
        std::vector<double> table = build_interaction_table(
            lg, [&](long di, long dj, double zo, double zs) {
                const Rect obs{static_cast<double>(di) * sx - 0.5 * sx,
                               static_cast<double>(di) * sx + 0.5 * sx,
                               static_cast<double>(dj) * sy - 0.5 * sy,
                               static_cast<double>(dj) * sy + 0.5 * sy};
                return cell_average(obs, lrule, [&](Point2 q) {
                           return greens.a_integral(q, zo, src, zs);
                       }) *
                    scale;
            });
        note_table_entries(table.size());
        return table;
    });
}

double PlaneBem::Model::potential(std::size_t i, std::size_t j) const {
    // Entries are evaluated on the lower triangle (obs >= src), as the dense
    // fill computes them; folding here keeps (i, j) and (j, i) bit-identical.
    if (i < j) std::swap(i, j);
    const auto& nodes = mesh.nodes();
    const Rect src = cell_rect(nodes[j]);
    const double inv_area = 1.0 / src.area();
    if (options.testing == Testing::PointMatching)
        return greens.phi_integral(nodes[i].center, nodes[i].z, src,
                                   nodes[j].z) *
               inv_area;
    const Rect obs = cell_rect(nodes[i]);
    return cell_average(obs, *grule, [&](Point2 q) {
               return greens.phi_integral(q, nodes[i].z, src, nodes[j].z);
           }) *
           inv_area;
}

double PlaneBem::Model::inductance(std::size_t a, std::size_t b) const {
    if (a < b) std::swap(a, b);
    const auto& branches = mesh.branches();
    if (branches[a].dir != branches[b].dir) return 0.0; // orthogonal
    const Rect src = branch_rect(branches[b]);
    const double wb = branches[b].width();
    const Rect obs = branch_rect(branches[a]);
    const double wa = branches[a].width();
    // Lp = (1/(wa·wb)) ∬_a GA-integral-over-src dA; the outer integral is
    // smooth (the inner one is exact) so a small Gauss rule suffices.
    const double avg = cell_average(obs, *lrule, [&](Point2 q) {
        return greens.a_integral(q, branches[a].z, src, branches[b].z);
    });
    return avg * obs.area() / (wa * wb);
}

double PlaneBem::potential_entry(std::size_t i, std::size_t j) const {
    return model_->potential(i, j);
}

double PlaneBem::inductance_entry(std::size_t a, std::size_t b) const {
    return model_->inductance(a, b);
}

std::vector<std::array<double, 3>> PlaneBem::node_points() const {
    const auto& nodes = mesh().nodes();
    std::vector<std::array<double, 3>> pts(nodes.size());
    for (std::size_t e = 0; e < nodes.size(); ++e)
        pts[e] = {nodes[e].center.x, nodes[e].center.y, nodes[e].z};
    return pts;
}

std::vector<std::array<double, 3>> PlaneBem::branch_points(
    const std::vector<std::size_t>& branch_ids) const {
    const auto& branches = mesh().branches();
    std::vector<std::array<double, 3>> pts(branch_ids.size());
    for (std::size_t e = 0; e < branch_ids.size(); ++e) {
        const Point2 c = branch_rect(branches[branch_ids[e]]).center();
        pts[e] = {c.x, c.y, branches[branch_ids[e]].z};
    }
    return pts;
}

bool PlaneBem::uniform_lattice() const {
    return node_lattice().uniform && branch_families().uniform;
}

bool PlaneBem::toeplitz_operators() const {
    return options().assembly != AssemblyMode::Direct && uniform_lattice();
}

// The H-matrix kernels share ownership of the model rather than pointing at
// this PlaneBem, which may move.
const InteractionOperator& PlaneBem::potential_operator() const {
    return pop_.get([&] {
        const std::size_t n = node_count();
        std::vector<std::size_t> ident(n);
        std::iota(ident.begin(), ident.end(), std::size_t{0});
        if (toeplitz_operators()) {
            std::vector<ToeplitzFamily> fams;
            fams.emplace_back(node_lattice(), potential_table());
            return InteractionOperator::toeplitz(std::move(fams),
                                                 {std::move(ident)}, n);
        }
        auto h = std::make_shared<const Hmatrix>(
            node_points(),
            [model = model_](std::size_t i, std::size_t j) {
                return model->potential(i, j);
            },
            options().hmatrix);
        return InteractionOperator::hmatrix({std::move(h)}, {std::move(ident)},
                                            n);
    });
}

const InteractionOperator& PlaneBem::inductance_operator() const {
    return lop_.get([&] {
        const BranchFamilies& bf = branch_families();
        std::vector<std::vector<std::size_t>> idx(bf.idx.begin(), bf.idx.end());
        if (toeplitz_operators()) {
            std::vector<ToeplitzFamily> fams;
            for (int d = 0; d < 2; ++d)
                fams.emplace_back(bf.lat[d], bf.idx[d].empty()
                                                 ? std::vector<double>{}
                                                 : inductance_table(d));
            return InteractionOperator::toeplitz(std::move(fams),
                                                 std::move(idx),
                                                 branch_count());
        }
        std::vector<std::shared_ptr<const Hmatrix>> parts;
        for (const std::vector<std::size_t>& ids : idx)
            parts.push_back(std::make_shared<const Hmatrix>(
                branch_points(ids),
                [model = model_, ids](std::size_t a, std::size_t b) {
                    return model->inductance(ids[a], ids[b]);
                },
                options().hmatrix));
        return InteractionOperator::hmatrix(std::move(parts), std::move(idx),
                                            branch_count());
    });
}

} // namespace pgsi

#include "verify/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "circuit/transient.hpp"
#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/robust.hpp"
#include "em/cavity_model.hpp"
#include "em/iterative_solver.hpp"
#include "em/surface_impedance.hpp"
#include "extract/reduction.hpp"
#include "numeric/eigen.hpp"
#include "numeric/lu.hpp"
#include "serve/engine.hpp"
#include "si/board_file.hpp"

namespace pgsi::verify {

namespace {

std::string fmt(double v) {
    std::ostringstream os;
    os.precision(4);
    os << v;
    return os.str();
}

bool all_finite(const MatrixC& z) {
    for (std::size_t i = 0; i < z.rows(); ++i)
        for (std::size_t j = 0; j < z.cols(); ++j)
            if (!std::isfinite(z(i, j).real()) || !std::isfinite(z(i, j).imag()))
                return false;
    return true;
}

CheckResult non_finite(const std::string& name, double freq) {
    CheckResult r;
    r.invariant = name;
    r.pass = false;
    r.error = std::numeric_limits<double>::infinity();
    r.detail = "non-finite impedance entry at f=" + fmt(freq);
    return r;
}

CheckResult skipped(const char* name, const std::string& why) {
    CheckResult r;
    r.invariant = name;
    r.skipped = true;
    r.detail = why;
    return r;
}

} // namespace

CheckResult check_reciprocity(const MatrixC& z, double tol) {
    CheckResult r;
    r.invariant = "reciprocity";
    r.tolerance = tol;
    const double scale = std::max(z.max_abs(), 1e-300);
    double worst = 0;
    for (std::size_t i = 0; i < z.rows(); ++i)
        for (std::size_t j = i + 1; j < z.cols(); ++j)
            worst = std::max(worst, std::abs(z(i, j) - z(j, i)) / scale);
    r.error = worst;
    r.pass = worst <= tol;
    if (!r.pass)
        r.detail = "max rel |Zij - Zji| = " + fmt(worst) + " > " + fmt(tol);
    return r;
}

CheckResult check_passivity(const MatrixC& z, double tol) {
    CheckResult r;
    r.invariant = "passivity";
    r.tolerance = tol;
    const std::size_t n = z.rows();
    // Hermitian part H = (Z + Z^H)/2 = A + iB with A = A^T, B = -B^T. The
    // real symmetric embedding [[A, -B], [B, A]] shares H's spectrum (each
    // eigenvalue doubled), so the Jacobi solver handles the complex case.
    MatrixD s(2 * n, 2 * n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            const Complex h = 0.5 * (z(i, j) + std::conj(z(j, i)));
            s(i, j) = h.real();
            s(n + i, n + j) = h.real();
            s(i, n + j) = -h.imag();
            s(n + i, j) = h.imag();
        }
    const double scale = std::max(z.max_abs(), 1e-300);
    const SymmetricEigen eig = eigen_symmetric(s);
    const double eigmin = eig.values.front();
    r.error = std::max(0.0, -eigmin) / scale;
    r.pass = r.error <= tol;
    if (!r.pass)
        r.detail = "Hermitian part indefinite: eigmin/max|Z| = -" +
                   fmt(r.error) + " < -" + fmt(tol);
    return r;
}

double relative_diff(const MatrixC& a, const MatrixC& b) {
    PGSI_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                 "relative_diff: shape mismatch");
    const double scale = std::max(a.max_abs(), 1e-300);
    double worst = 0;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            worst = std::max(worst, std::abs(a(i, j) - b(i, j)) / scale);
    return worst;
}

double relative_diff(const MatrixD& a, const MatrixD& b) {
    PGSI_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                 "relative_diff: shape mismatch");
    const double scale = std::max(a.max_abs(), 1e-300);
    double worst = 0;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            worst = std::max(worst, std::abs(a(i, j) - b(i, j)) / scale);
    return worst;
}

ReducedMatrices dense_reduction(const PlaneBem& bem,
                                const std::vector<std::size_t>& keep, bool lossy) {
    const MatrixD& g = bem.gamma();
    const MatrixD& c = bem.maxwell_capacitance();
    const std::vector<std::size_t> elim = complement_indices(g.rows(), keep);
    ReducedMatrices red;
    red.gamma = g.submatrix(keep, keep);
    red.capacitance = c.submatrix(keep, keep);
    if (!elim.empty()) {
        const MatrixD x = Lu<double>(g.submatrix(elim, elim))
                              .solve(g.submatrix(elim, keep)); // Γ_ee⁻¹ Γ_ek
        red.gamma -= g.submatrix(keep, elim) * x;
        red.capacitance -= c.submatrix(keep, elim) * x;
        red.capacitance -= x.transposed() * c.submatrix(elim, keep);
        red.capacitance += x.transposed() * c.submatrix(elim, elim) * x;
    }
    symmetrize(red.gamma);
    symmetrize(red.capacitance);
    if (lossy) red.conductance = schur_reduce(bem.dc_conductance(), keep);
    return red;
}

double effective_capacitance(const PlaneBem& bem, std::size_t component) {
    const MatrixD& c = bem.maxwell_capacitance();
    const std::vector<std::size_t>& comp = bem.mesh().component_of();
    const std::size_t k = bem.mesh().component_count();
    PGSI_REQUIRE(component < k, "effective_capacitance: bad component");
    // Block-summed Maxwell capacitance: chat(p, q) = sum_{i in p, j in q} Cij
    // relates component net charges to (uniform) component potentials.
    MatrixD chat(k, k);
    for (std::size_t i = 0; i < c.rows(); ++i)
        for (std::size_t j = 0; j < c.cols(); ++j)
            chat(comp[i], comp[j]) += c(i, j);
    if (k == 1) return chat(0, 0);
    // Other components float (zero net charge): eliminate them by the Schur
    // complement of chat over the driven component.
    const std::size_t m = k - 1;
    MatrixD cbb(m, m);
    VectorD cba(m);
    std::size_t r = 0;
    for (std::size_t p = 0; p < k; ++p) {
        if (p == component) continue;
        std::size_t cidx = 0;
        for (std::size_t q = 0; q < k; ++q) {
            if (q == component) continue;
            cbb(r, cidx++) = chat(p, q);
        }
        cba[r++] = chat(p, component);
    }
    const VectorD x = Lu<double>(cbb).solve(cba);
    double ceff = chat(component, component);
    for (std::size_t p = 0; p < m; ++p) ceff -= cba[p] * x[p];
    return ceff;
}

double dc_path_resistance(const PlaneBem& bem, std::size_t n1, std::size_t n2) {
    PGSI_REQUIRE(n1 != n2, "dc_path_resistance: identical nodes");
    const std::vector<std::size_t>& comp = bem.mesh().component_of();
    PGSI_REQUIRE(comp[n1] == comp[n2],
                 "dc_path_resistance: nodes in different components");
    const MatrixD& g = bem.dc_conductance();
    // Reduced Laplacian over the component, grounding n2.
    std::vector<std::size_t> keep;
    for (std::size_t i = 0; i < g.rows(); ++i)
        if (comp[i] == comp[n1] && i != n2) keep.push_back(i);
    MatrixD gr(keep.size(), keep.size());
    VectorD rhs(keep.size(), 0.0);
    std::size_t row1 = keep.size();
    for (std::size_t a = 0; a < keep.size(); ++a) {
        if (keep[a] == n1) {
            row1 = a;
            rhs[a] = 1.0;
        }
        for (std::size_t b = 0; b < keep.size(); ++b) gr(a, b) = g(keep[a], keep[b]);
    }
    PGSI_REQUIRE(row1 < keep.size(), "dc_path_resistance: n1 not in component");
    const VectorD v = Lu<double>(gr).solve(rhs);
    return v[row1];
}

// --- plane invariants -------------------------------------------------------

namespace {

CheckResult inv_reciprocity(const InvariantContext& ctx) {
    if (ctx.ports.size() < 2)
        return skipped("reciprocity", "needs >= 2 ports");
    CheckResult r;
    r.invariant = "reciprocity";
    r.tolerance = ctx.tol.reciprocity;
    // Quasi-static BEM is a reciprocal RLC network at every frequency; the
    // high point (above first resonance) stresses the inductive terms where
    // the PR 3 cross-layer z-parity bug lived.
    for (const double f : {0.35 * ctx.f10, 2.5 * ctx.f10}) {
        const MatrixC z = ctx.direct.port_impedance(f, ctx.ports);
        if (!all_finite(z)) return non_finite("reciprocity", f);
        const CheckResult at = check_reciprocity(z, ctx.tol.reciprocity);
        if (at.error > r.error) {
            r.error = at.error;
            if (!at.pass)
                r.detail = at.detail + " at f=" + fmt(f);
        }
        r.pass = r.pass && at.pass;
    }
    return r;
}

CheckResult inv_passivity(const InvariantContext& ctx) {
    CheckResult r;
    r.invariant = "passivity";
    r.tolerance = ctx.tol.passivity;
    for (const double f : {0.01 * ctx.f10, 0.35 * ctx.f10, 2.5 * ctx.f10}) {
        const MatrixC z = ctx.direct.port_impedance(f, ctx.ports);
        if (!all_finite(z)) return non_finite("passivity", f);
        const CheckResult at = check_passivity(z, ctx.tol.passivity);
        if (at.error > r.error) {
            r.error = at.error;
            if (!at.pass)
                r.detail = at.detail + " at f=" + fmt(f);
        }
        r.pass = r.pass && at.pass;
    }
    return r;
}

CheckResult inv_dc_capacitance(const InvariantContext& ctx) {
    CheckResult r;
    r.invariant = "dc_capacitance";
    r.tolerance = ctx.tol.dc_capacitance;
    const double f = 1e-3 * ctx.f10;
    const double w = 2 * pi * f;
    const MatrixC z = ctx.direct.port_impedance(f, ctx.ports);
    if (!all_finite(z)) return non_finite("dc_capacitance", f);
    const std::vector<std::size_t>& comp = ctx.bem.mesh().component_of();
    for (std::size_t p = 0; p < ctx.ports.size(); ++p) {
        const double ceff = effective_capacitance(ctx.bem, comp[ctx.ports[p]]);
        const double expect = -1.0 / (w * ceff);
        const double err = std::abs(z(p, p).imag() - expect) / std::abs(expect);
        if (err > r.error) {
            r.error = err;
            if (err > r.tolerance)
                r.detail = "port " + std::to_string(p) + ": imag Zii=" +
                           fmt(z(p, p).imag()) + " vs -1/(wC)=" + fmt(expect);
        }
    }
    r.pass = r.error <= r.tolerance;
    return r;
}

CheckResult inv_dc_resistance(const InvariantContext& ctx) {
    const std::vector<std::size_t>& comp = ctx.bem.mesh().component_of();
    std::size_t pi_ = ctx.ports.size(), pj_ = ctx.ports.size();
    for (std::size_t i = 0; i < ctx.ports.size() && pi_ == ctx.ports.size(); ++i)
        for (std::size_t j = i + 1; j < ctx.ports.size(); ++j)
            if (ctx.ports[i] != ctx.ports[j] &&
                comp[ctx.ports[i]] == comp[ctx.ports[j]]) {
                pi_ = i;
                pj_ = j;
                break;
            }
    if (pi_ == ctx.ports.size())
        return skipped("dc_resistance", "no two ports share a component");
    CheckResult r;
    r.invariant = "dc_resistance";
    r.tolerance = ctx.tol.dc_resistance;
    // The DC limit needs omega*L << Rs, or the AC current distribution no
    // longer matches the DC one and Re(Z_loop) sits above the Laplacian
    // resistance. The per-square plane inductance is ~mu0*d, so pick the
    // frequency from the Rs/L corner rather than from f10.
    double zmax = 0;
    for (const ShapeSpec& sh : ctx.scenario.shapes) zmax = std::max(zmax, sh.z);
    const double f_corner =
        ctx.scenario.sheet_resistance / (2 * pi * mu0 * zmax);
    const double f = std::min(1e-3 * ctx.f10, 1e-2 * f_corner);
    const MatrixC z = ctx.direct.port_impedance(f, ctx.ports);
    if (!all_finite(z)) return non_finite("dc_resistance", f);
    const double r_meas =
        (z(pi_, pi_) - z(pi_, pj_) - z(pj_, pi_) + z(pj_, pj_)).real();
    const double r_dc =
        dc_path_resistance(ctx.bem, ctx.ports[pi_], ctx.ports[pj_]);
    r.error = std::abs(r_meas - r_dc) / std::max(r_dc, 1e-300);
    r.pass = r.error <= r.tolerance;
    if (!r.pass)
        r.detail = "loop R=" + fmt(r_meas) + " vs Laplacian R=" + fmt(r_dc);
    return r;
}

CheckResult inv_assembly_cache(const InvariantContext& ctx) {
    if (!ctx.bem.uniform_lattice())
        return skipped("assembly_cache", "mesh is not on a uniform lattice");
    CheckResult r;
    r.invariant = "assembly_cache";
    r.tolerance = ctx.tol.assembly;
    const PlaneBem direct = ctx.scenario.make_bem(AssemblyMode::Direct);
    const PlaneBem cached = ctx.scenario.make_bem(AssemblyMode::Cached);
    const double dp =
        relative_diff(direct.potential_matrix(), cached.potential_matrix());
    const double dl =
        relative_diff(direct.inductance_matrix(), cached.inductance_matrix());
    r.error = std::max(dp, dl);
    r.pass = r.error <= r.tolerance;
    if (!r.pass)
        r.detail = "cached assembly drifted: P rel=" + fmt(dp) +
                   " L rel=" + fmt(dl);
    return r;
}

CheckResult inv_backend_iterative(const InvariantContext& ctx) {
    if (!ctx.bem.uniform_lattice())
        return skipped("backend_iterative", "mesh is not on a uniform lattice");
    CheckResult r;
    r.invariant = "backend_iterative";
    r.tolerance = ctx.tol.backend_z;
    SolverOptions opt;
    opt.backend = SolverBackend::Iterative;
    const std::unique_ptr<PlaneSolver> iter =
        make_solver(ctx.bem, ctx.scenario.surface_impedance(), opt);
    for (const double f : {0.35 * ctx.f10, 0.9 * ctx.f10}) {
        const MatrixC zd = ctx.direct.port_impedance(f, ctx.ports);
        const MatrixC zi = iter->port_impedance(f, ctx.ports);
        if (!all_finite(zd) || !all_finite(zi))
            return non_finite("backend_iterative", f);
        const double err = relative_diff(zd, zi);
        if (err > r.error) {
            r.error = err;
            if (err > r.tolerance)
                r.detail = "direct vs iterative rel=" + fmt(err) +
                           " at f=" + fmt(f);
        }
    }
    r.pass = r.error <= r.tolerance;
    return r;
}

// ACA/H-matrix operator compression must not move the answer: an H-matrix
// iterative solve has to reproduce the dense direct solve on every generated
// geometry — the stretched, L-shape, and antipad scenarios are exactly the
// non-uniform meshes the compressed path exists for, and a Direct-assembly
// model forces it on the uniform ones. The compressed path has to actually
// engage (a solver on other operators would pass equivalence while testing
// nothing).
CheckResult inv_hmatrix_equivalence(const InvariantContext& ctx) {
    CheckResult r;
    r.invariant = "hmatrix_equivalence";
    r.tolerance = ctx.tol.hmatrix;
    SolverOptions opt;
    opt.backend = SolverBackend::Iterative;
    const PlaneBem bem = ctx.scenario.make_bem(AssemblyMode::Direct);
    const IterativeSolver iter(bem, ctx.scenario.surface_impedance(), opt);
    for (const double f : {0.35 * ctx.f10, 0.9 * ctx.f10}) {
        const MatrixC zd = ctx.direct.port_impedance(f, ctx.ports);
        const MatrixC zh = iter.port_impedance(f, ctx.ports);
        if (!all_finite(zd) || !all_finite(zh))
            return non_finite("hmatrix_equivalence", f);
        const double err = relative_diff(zd, zh);
        if (err > r.error) {
            r.error = err;
            if (err > r.tolerance)
                r.detail = "dense vs H-matrix rel=" + fmt(err) +
                           " at f=" + fmt(f);
        }
    }
    if (!iter.stats().hmatrix) {
        r.pass = false;
        r.error = std::max(r.error, 1.0);
        r.detail = "H-matrix operator path did not engage";
        return r;
    }
    r.pass = r.error <= r.tolerance;
    return r;
}

// Multi-point sweep through the sweep engine (block solves, warm starts,
// recycled subspace): the engine's reuse machinery must not move the answer.
// Every point of an engine sweep has to match an independent cold direct
// solve to the backend tolerance, and the engine has to actually engage
// (warm-started points, sequential sweep accounting) — a silently-cold sweep
// would pass equivalence while testing nothing.
CheckResult inv_sweep_recycle(const InvariantContext& ctx) {
    if (!ctx.bem.uniform_lattice())
        return skipped("sweep_recycle", "mesh is not on a uniform lattice");
    CheckResult r;
    r.invariant = "sweep_recycle";
    r.tolerance = ctx.tol.backend_z;
    SolverOptions opt;
    opt.backend = SolverBackend::Iterative;
    const IterativeSolver iter(ctx.bem, ctx.scenario.surface_impedance(), opt);
    const VectorD freqs{0.25 * ctx.f10, 0.45 * ctx.f10, 0.65 * ctx.f10,
                        0.85 * ctx.f10};
    const std::vector<MatrixC> zi = iter.sweep_impedance(freqs, ctx.ports);
    for (std::size_t i = 0; i < freqs.size(); ++i) {
        const MatrixC zd = ctx.direct.port_impedance(freqs[i], ctx.ports);
        if (!all_finite(zd) || !all_finite(zi[i]))
            return non_finite("sweep_recycle", freqs[i]);
        const double err = relative_diff(zd, zi[i]);
        if (err > r.error) {
            r.error = err;
            if (err > r.tolerance)
                r.detail = "direct vs engine sweep rel=" + fmt(err) +
                           " at f=" + fmt(freqs[i]);
        }
    }
    const IterativeSolverStats& st = iter.stats();
    if (st.sweep_points != freqs.size() || st.warm_starts == 0) {
        r.pass = false;
        r.error = std::max(r.error, 1.0);
        r.detail = "sweep engine did not engage: sweep_points=" +
                   std::to_string(st.sweep_points) +
                   " warm_starts=" + std::to_string(st.warm_starts);
        return r;
    }
    r.pass = r.error <= r.tolerance;
    return r;
}

CheckResult inv_backend_cavity(const InvariantContext& ctx) {
    if (!ctx.scenario.separable())
        return skipped("backend_cavity", "not a single full rectangle");
    {
        const ShapeSpec& sh0 = ctx.scenario.shapes[0];
        const double min_ext =
            std::min(sh0.nx, sh0.ny) * ctx.scenario.pitch;
        if (sh0.z > 0.05 * min_ext)
            return skipped("backend_cavity",
                           "dielectric too thick for the parallel-plate "
                           "cavity comparison (fringing dominates)");
    }
    CheckResult r;
    r.invariant = "backend_cavity";
    r.tolerance = ctx.tol.cavity;
    const ShapeSpec& sh = ctx.scenario.shapes[0];
    CavityModel cav;
    cav.a = sh.nx * ctx.scenario.pitch;
    cav.b = sh.ny * ctx.scenario.pitch;
    cav.d = sh.z;
    cav.eps_r = ctx.scenario.eps_r;
    // The BEM applies the sheet resistance to the meshed plane only (the
    // image plane is ideal); the cavity formula carries both planes.
    cav.rs_total = 2 * ctx.scenario.sheet_resistance;
    cav.max_modes = 50;
    cav.port_w = cav.port_h = ctx.scenario.pitch;
    const double ox = sh.ox * ctx.scenario.pitch;
    const double oy = sh.oy * ctx.scenario.pitch;
    std::vector<Point2> pts;
    for (const std::size_t n : ctx.ports) {
        const Point2 c = ctx.bem.mesh().nodes()[n].center;
        pts.push_back({c.x - ox, c.y - oy});
    }
    const double f10c =
        std::min(cav.mode_frequency(1, 0), cav.mode_frequency(0, 1));
    for (const double f : {0.08 * f10c, 0.15 * f10c}) {
        const MatrixC zb = ctx.direct.port_impedance(f, ctx.ports);
        const MatrixC zc = cav.impedance_matrix(pts, f);
        if (!all_finite(zb) || !all_finite(zc))
            return non_finite("backend_cavity", f);
        const double scale = std::max(zc.max_abs(), 1e-300);
        for (std::size_t i = 0; i < zb.rows(); ++i)
            for (std::size_t j = 0; j < zb.cols(); ++j) {
                const double za = std::abs(zc(i, j));
                const double err = std::abs(std::abs(zb(i, j)) - za) /
                                   std::max(za, 0.05 * scale);
                if (err > r.error) {
                    r.error = err;
                    if (err > r.tolerance)
                        r.detail = "BEM vs cavity |Z(" + std::to_string(i) +
                                   "," + std::to_string(j) + ")| rel=" +
                                   fmt(err) + " at f=" + fmt(f);
                }
            }
    }
    r.pass = r.error <= r.tolerance;
    return r;
}

// Batch-engine equivalence: a campaign routed through pgsi::serve — shared
// model cache, single-flight builds, one fault-injected retry — must
// reproduce the library's direct solve bit for bit. The scenario parameterizes the board (dimensions, dielectric,
// sheet resistance, pitch), so the property is exercised across the whole
// generator distribution, not one fixture.
CheckResult inv_serve_equivalence(const InvariantContext& ctx) {
    CheckResult r;
    r.invariant = "serve_equivalence";
    r.tolerance = 0; // bitwise: digests either match or they do not
    const ShapeSpec& sh = ctx.scenario.shapes[0];
    const double w = sh.nx * ctx.scenario.pitch;
    const double h = sh.ny * ctx.scenario.pitch;
    char board[512];
    std::snprintf(board, sizeof board,
                  "board %.9g %.9g\n"
                  "stackup sep %.9g eps %.9g sheet %.9g\n"
                  "vrm %.9g %.9g\n"
                  "driver d0 vcc %.9g %.9g gnd %.9g %.9g switch rise 1n "
                  "delay 1n width 4n\n"
                  "decap %.9g %.9g\n",
                  w, h, sh.z, ctx.scenario.eps_r,
                  ctx.scenario.sheet_resistance, 0.2 * w, 0.2 * h, 0.5 * w,
                  0.5 * h, 0.5 * w, 0.4 * h, 0.3 * w, 0.7 * h);

    serve::JobSpec spec;
    spec.kind = serve::JobKind::Sweep;
    spec.board_text = board;
    spec.model.mesh_pitch = ctx.scenario.pitch;
    spec.model.interior_nodes = 6;
    spec.freqs_hz = {0.3 * ctx.f10, 0.7 * ctx.f10};
    spec.ports = {{0.3 * w, 0.3 * h}, {0.7 * w, 0.6 * h}};
    spec.backend = SolverBackend::Direct;
    spec.max_retries = 1;

    // The direct solve the campaign must reproduce.
    const Board direct_board = parse_board_file(spec.board_text);
    const auto model =
        std::make_shared<const PlaneModel>(direct_board, spec.model);
    SolverOptions sopt;
    sopt.backend = spec.backend;
    const std::unique_ptr<PlaneSolver> direct = make_solver(
        model->bem(),
        SurfaceImpedance::from_sheet_resistance(
            direct_board.stackup().sheet_resistance),
        sopt);
    std::vector<std::size_t> nodes;
    for (const Point2& p : spec.ports)
        nodes.push_back(model->bem().mesh().nearest_node_any(p));
    const std::uint64_t want = serve::digest_matrices(
        direct->sweep_impedance(spec.freqs_hz, nodes));

    // Three identical jobs: the cache must collapse them to one build, and
    // the injected fault must cost one retry — not the answer.
    std::vector<serve::JobSpec> jobs(3, spec);
    jobs[0].id = "eq-a";
    jobs[1].id = "eq-b";
    jobs[2].id = "eq-c";
    robust::FaultInjector::arm("serve.job", 1, 1);
    serve::ModelCache cache;
    serve::BatchOptions bopt;
    bopt.cache = &cache;
    serve::JobQueue queue(bopt);
    const serve::BatchResult res = queue.run(jobs);
    robust::FaultInjector::disarm_all();

    if (!res.all_completed()) {
        r.pass = false;
        r.error = 1;
        r.detail = "batch did not complete: " +
                   std::to_string(res.stats.failed) + " failed";
        return r;
    }
    for (const serve::JobReport& rep : res.reports)
        if (rep.digest != want) {
            r.pass = false;
            r.error = 1;
            r.detail = "job " + rep.id + " digest diverged from the direct "
                       "solve (attempts=" + std::to_string(rep.attempts) + ")";
            return r;
        }
    if (res.stats.retries != 1 || res.stats.cache_hits != 2 ||
        res.stats.cache_misses != 1) {
        r.pass = false;
        r.error = 1;
        r.detail = "containment accounting off: retries=" +
                   std::to_string(res.stats.retries) + " cache=" +
                   std::to_string(res.stats.cache_hits) + "/" +
                   std::to_string(res.stats.cache_hits +
                                  res.stats.cache_misses);
        return r;
    }
    r.pass = true;
    r.error = 0;
    return r;
}

// The cycle-basis extraction must reproduce the dense reduction: Γ, C and
// G at the kept nodes (the ports plus a sampled interior) against the O(n³)
// all-node path, on every generated geometry — holes, split planes and
// stacked layers give the spanning tree its branching and multi-root cases.
CheckResult inv_extract_equivalence(const InvariantContext& ctx) {
    const CircuitExtractor ex(ctx.bem);
    const std::vector<std::size_t> keep = ex.select_nodes(ctx.ports, 8);
    const RectMesh& mesh = ctx.bem.mesh();
    std::vector<char> covered(mesh.component_count(), 0);
    for (std::size_t k : keep) covered[mesh.component_of()[k]] = 1;
    if (std::find(covered.begin(), covered.end(), 0) != covered.end())
        return skipped("extract_equivalence",
                       "a mesh component holds no kept node");
    CheckResult r;
    r.invariant = "extract_equivalence";
    r.tolerance = ctx.tol.extraction;
    const ReducedMatrices fast = ex.reduce(keep);
    const ReducedMatrices dense = dense_reduction(ctx.bem, keep, ex.lossy());
    const double dg = relative_diff(dense.gamma, fast.gamma);
    const double dc = relative_diff(dense.capacitance, fast.capacitance);
    const double dr = ex.lossy()
                          ? relative_diff(dense.conductance, fast.conductance)
                          : 0.0;
    r.error = std::max({dg, dc, dr});
    r.pass = r.error <= r.tolerance;
    if (!r.pass)
        r.detail = "cycle-basis vs dense reduction: gamma rel=" + fmt(dg) +
                   " C rel=" + fmt(dc) + " G rel=" + fmt(dr) + " at " +
                   std::to_string(keep.size()) + " of " +
                   std::to_string(mesh.node_count()) + " nodes";
    return r;
}

} // namespace

const std::vector<PlaneInvariant>& plane_invariants() {
    static const std::vector<PlaneInvariant> registry = {
        {"reciprocity", "reciprocity", inv_reciprocity},
        {"passivity", "passivity", inv_passivity},
        {"dc_capacitance", "limits", inv_dc_capacitance},
        {"dc_resistance", "limits", inv_dc_resistance},
        {"assembly_cache", "backends", inv_assembly_cache},
        {"backend_iterative", "backends", inv_backend_iterative},
        {"hmatrix_equivalence", "backends", inv_hmatrix_equivalence},
        {"sweep_recycle", "backends", inv_sweep_recycle},
        {"backend_cavity", "backends", inv_backend_cavity},
        {"serve_equivalence", "backends", inv_serve_equivalence},
        {"extract_equivalence", "backends", inv_extract_equivalence},
    };
    return registry;
}

CheckResult run_plane_invariant(const PlaneScenario& scenario,
                                const std::string& invariant,
                                const ToleranceLadder& tol) {
    for (const PlaneInvariant& inv : plane_invariants()) {
        if (invariant != inv.name) continue;
        const PlaneBem bem = scenario.make_bem(AssemblyMode::Auto);
        const DirectSolver direct(bem, scenario.surface_impedance());
        const std::vector<std::size_t> ports = scenario.port_nodes(bem.mesh());
        const InvariantContext ctx{scenario, bem,
                                   direct,   ports,
                                   scenario.est_first_resonance(), tol};
        return inv.fn(ctx);
    }
    throw InvalidArgument("unknown invariant '" + invariant + "'");
}

// --- netlist invariants -----------------------------------------------------

CheckResult check_energy_balance(const Netlist& nl, double dt, double tstop,
                                 double tol) {
    CheckResult r;
    r.invariant = "energy_balance";
    r.tolerance = tol;
    PGSI_REQUIRE(nl.tlines().empty() && nl.sparam_blocks().empty(),
                 "energy balance supports R/L/C/K/V/I, driver and table "
                 "netlists only");

    TransientStepper st(nl, dt);
    const auto volt = [&](NodeId n) { return st.node_voltage(n); };
    const auto cap_energy = [&] {
        double e = 0;
        for (const Capacitor& c : nl.capacitors()) {
            const double v = volt(c.a) - volt(c.b);
            e += 0.5 * c.c * v * v;
        }
        // Each driver's internal output capacitor, out to gnd.
        for (const DriverInstance& d : nl.drivers()) {
            const double v = volt(d.out) - volt(d.gnd);
            e += 0.5 * d.params.c_out * v * v;
        }
        return e;
    };
    const auto ind_energy = [&] {
        double e = 0;
        for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
            const double i = st.inductor_current(k);
            e += 0.5 * nl.inductors()[k].l * i * i;
        }
        for (const MutualCoupling& m : nl.mutuals()) {
            const double mval = m.k * std::sqrt(nl.inductors()[m.l1].l *
                                                nl.inductors()[m.l2].l);
            e += mval * st.inductor_current(m.l1) * st.inductor_current(m.l2);
        }
        return e;
    };
    // Instantaneous power absorbed by sources and dissipated in resistances,
    // driver pull-up/pull-down conductances and table conductances.
    const auto src_power = [&] {
        double p = 0;
        for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
            const VSource& v = nl.vsources()[k];
            p += (volt(v.a) - volt(v.b)) * st.vsource_current(k);
        }
        for (const ISource& i : nl.isources())
            p += (volt(i.a) - volt(i.b)) * i.src.value(st.time());
        return p;
    };
    const auto diss_power = [&] {
        double p = 0;
        for (const Resistor& res : nl.resistors()) {
            const double v = volt(res.a) - volt(res.b);
            p += v * v / res.r;
        }
        for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
            const double i = st.inductor_current(k);
            p += nl.inductors()[k].r * i * i;
        }
        const double t = st.time();
        for (const DriverInstance& d : nl.drivers()) {
            const double vu = volt(d.out) - volt(d.vcc);
            const double vd = volt(d.out) - volt(d.gnd);
            p += d.params.g_up(t) * vu * vu + d.params.g_dn(t) * vd * vd;
        }
        for (const TableConductance& tc : nl.table_conductances()) {
            const double v = volt(tc.a) - volt(tc.b);
            p += v * tc.iv(v);
        }
        return p;
    };

    const double e_cap0 = cap_energy();
    const double e_ind0 = ind_energy();
    double e_src = 0, e_diss = 0;
    double p_src_prev = src_power(), p_diss_prev = diss_power();
    const auto nsteps =
        static_cast<std::size_t>(std::llround(tstop / dt));
    for (std::size_t s = 0; s < nsteps; ++s) {
        st.step();
        const double p_src = src_power();
        const double p_diss = diss_power();
        e_src += 0.5 * (p_src + p_src_prev) * dt;
        e_diss += 0.5 * (p_diss + p_diss_prev) * dt;
        p_src_prev = p_src;
        p_diss_prev = p_diss;
    }
    const double d_cap = cap_energy() - e_cap0;
    const double d_ind = ind_energy() - e_ind0;
    // Tellegen: total absorbed power sums to zero, so the integrated terms
    // must cancel up to time-discretization error.
    const double residual = e_src + e_diss + d_cap + d_ind;
    const double scale =
        std::max({std::abs(e_src), std::abs(e_diss), std::abs(d_cap),
                  std::abs(d_ind), 1e-15});
    r.error = std::abs(residual) / scale;
    r.pass = r.error <= tol;
    if (!r.pass) {
        std::ostringstream os;
        os << "residual=" << fmt(residual) << " src=" << fmt(e_src)
           << " diss=" << fmt(e_diss) << " dC=" << fmt(d_cap)
           << " dL=" << fmt(d_ind);
        r.detail = os.str();
    }
    return r;
}

CheckResult check_fault_recovery(const Netlist& nl, double dt, double tstop,
                                 double tol) {
    CheckResult r;
    r.invariant = "fault_recovery";
    r.tolerance = tol;
    TransientOptions opt;
    opt.dt = dt;
    opt.tstop = tstop;
    const TransientResult golden = transient_analyze(nl, opt);

    const std::uint64_t fired0 =
        robust::FaultInjector::fire_count("transient.newton");
    robust::FaultInjector::arm("transient.newton", 1, 2);
    TransientResult faulted;
    try {
        faulted = transient_analyze(nl, opt);
    } catch (...) {
        robust::FaultInjector::disarm_all();
        throw;
    }
    const std::uint64_t fired =
        robust::FaultInjector::fire_count("transient.newton");
    robust::FaultInjector::disarm_all();
    if (fired <= fired0) {
        r.pass = false;
        r.detail = "injected fault never fired";
        return r;
    }

    double scale = 1e-12;
    for (std::size_t k = 0; k < golden.probes.size(); ++k)
        scale = std::max(scale, golden.peak_abs(golden.probes[k]));
    PGSI_REQUIRE(golden.samples.size() == faulted.samples.size(),
                 "fault_recovery: sample count changed under recovery");
    // The fault fires on the first step attempts, so the recovery ladder's
    // backward-Euler substeps land right at the excitation discontinuity,
    // where the integrator switch has a legitimate O(dt) local difference
    // from the trapezoidal golden. Require reconvergence: strict tolerance
    // after a short settling window, and only a gross-divergence bound
    // inside it.
    constexpr std::size_t kSettle = 16;
    double worst_settled = 0;
    double worst_early = 0;
    for (std::size_t s = 0; s < golden.samples.size(); ++s)
        for (std::size_t k = 0; k < golden.probes.size(); ++k) {
            const double d =
                std::abs(golden.samples[s][k] - faulted.samples[s][k]);
            (s < kSettle ? worst_early : worst_settled) =
                std::max(s < kSettle ? worst_early : worst_settled, d);
        }
    r.error = worst_settled / scale;
    r.pass = r.error <= tol && worst_early / scale <= 10 * tol;
    if (!r.pass) {
        r.error = std::max(r.error, worst_early / (10 * scale));
        r.detail = "faulted run deviates from golden: settled rel " +
                   fmt(worst_settled / scale) + ", early rel " +
                   fmt(worst_early / scale) + " (recoveries: " +
                   std::to_string(faulted.recovery.events.size()) + ")";
    }
    return r;
}

} // namespace pgsi::verify

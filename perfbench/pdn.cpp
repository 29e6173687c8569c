// pdn_sweep: power-delivery impedance Z(f) of bare planes (§6.1) through
// make_solver(Auto) — the matrix-free path: Toeplitz/FFT operators on a
// uniform lattice, ACA/H-matrix operators on a stretched mesh, block GMRES
// with recycling in both.
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "em/hmatrix.hpp"
#include "em/iterative_solver.hpp"
#include "em/solver.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pgsi;

namespace {

const char* const kName = "pdn_sweep";

/// One plane of the workload and its log-spaced sweep.
struct PlaneCase {
    const char* name;
    bool stretched;     ///< add the second, incommensurate shape
    std::size_t points; ///< sweep points
    double fmin, fmax;  ///< sweep band [Hz]
};

// n = 24 cells across 0.1 m: 480 nodes on the uniform plane (Toeplitz/FFT),
// 660 on the two-shape stretched one (H-matrix), both above the Auto
// crossover to the iterative backend.
constexpr double kPitch = 0.1 / 24;
const PlaneCase kPlanes[] = {
    {"uniform", false, 32, 50e6, 1e9},
    {"stretched", true, 16, 100e6, 1e9},
};

/// Port pairs on the 0.1 × 0.08 m shape; the seed picks one per plane.
struct PortPair {
    Point2 a, b;
};
const PortPair kPorts[] = {
    {{0.005, 0.005}, {0.095, 0.075}},
    {{0.005, 0.075}, {0.095, 0.005}},
    {{0.020, 0.040}, {0.080, 0.040}},
    {{0.050, 0.010}, {0.050, 0.070}},
};
constexpr std::size_t kPortPairs = sizeof kPorts / sizeof kPorts[0];

// Z(f) may move by 1e-8 relative to its largest entry at each frequency
// under a legitimate solver change (the backend-equivalence gate); a real
// break moves it by far more.
constexpr double kZTol = 1e-8;

// Operator applications timed per probe.
constexpr int kApplies = 8;

constexpr double kSheet = 0.6e-3;

RectMesh make_mesh(const PlaneCase& pc) {
    ConductorShape a;
    a.outline = Polygon::rectangle(0, 0, 0.1, 0.08);
    a.z = 0.5e-3;
    a.sheet_resistance = kSheet;
    std::vector<ConductorShape> shapes{a};
    if (pc.stretched) {
        ConductorShape b = a;
        b.outline = Polygon::rectangle(0.103, 0, 0.103 + 0.0617, 0.0473);
        shapes.push_back(b);
    }
    return RectMesh(shapes, kPitch);
}

VectorD sweep_freqs(const PlaneCase& pc) {
    VectorD f(pc.points);
    for (std::size_t k = 0; k < pc.points; ++k)
        f[k] = pc.fmin * std::pow(pc.fmax / pc.fmin, static_cast<double>(k) /
                                                         static_cast<double>(pc.points - 1));
    return f;
}

std::vector<std::size_t> port_nodes(const PlaneBem& bem, const PortPair& pp) {
    return {bem.mesh().nearest_node(pp.a, 0), bem.mesh().nearest_node(pp.b, 0)};
}

std::vector<std::size_t> port_choice(unsigned long long seed) {
    SplitMix64 rng(seed);
    std::vector<std::size_t> v;
    for (std::size_t p = 0; p < std::size(kPlanes); ++p) v.push_back(rng.below(kPortPairs));
    return v;
}

/// The flow a user runs: mesh → PlaneBem → make_solver(Auto) → sweep.
std::vector<MatrixC> sweep_plane(const PlaneCase& pc, const PortPair& pp,
                                 SolverBackend backend = SolverBackend::Auto) {
    const PlaneBem bem(make_mesh(pc), Greens::homogeneous(4.5, true), BemOptions{});
    SolverOptions opt;
    opt.backend = backend;
    const std::unique_ptr<PlaneSolver> solver =
        make_solver(bem, SurfaceImpedance::from_sheet_resistance(kSheet), opt);
    return solver->sweep_impedance(sweep_freqs(pc), port_nodes(bem, pp));
}

/// Reference Z(f) per (plane, port pair): refs[plane][pair].
using Refs = std::vector<std::vector<std::vector<MatrixC>>>;

Refs read_refs(const RunConfig& cfg) {
    Refs refs(std::size(kPlanes), std::vector<std::vector<MatrixC>>(kPortPairs));
    const JsonValue doc = load_refs(cfg, kName);
    for (const JsonValue& e : doc.at("sweeps").array) {
        const auto p = static_cast<std::size_t>(e.at("plane").number);
        const auto q = static_cast<std::size_t>(e.at("ports").number);
        std::vector<MatrixC>& z = refs.at(p).at(q);
        for (const JsonValue& row : e.at("z").array) {
            // Row-major 2×2 entries as (re, im) pairs.
            MatrixC m(2, 2);
            for (std::size_t k = 0; k < 4; ++k)
                m(k / 2, k % 2) = Complex(row.array.at(2 * k).number,
                                          row.array.at(2 * k + 1).number);
            z.push_back(m);
        }
    }
    return refs;
}

bool matches(const std::vector<MatrixC>& z, const std::vector<MatrixC>& ref,
             const char* what) {
    if (z.size() != ref.size() || ref.empty()) {
        std::fprintf(stderr, "perfbench: %s: no reference of %zu points\n", what,
                     z.size());
        return false;
    }
    // Per frequency, as verify::relative_diff measures the backend gates:
    // the worst entry error over the largest reference entry at that point.
    // A NaN error fails through the negated comparison.
    double worst = 0;
    std::size_t at = 0;
    bool ok = true;
    for (std::size_t k = 0; k < z.size(); ++k) {
        double scale = 0, err = 0;
        for (std::size_t i = 0; i < 2; ++i)
            for (std::size_t j = 0; j < 2; ++j) {
                scale = std::max(scale, std::abs(ref[k](i, j)));
                const double e = std::abs(z[k](i, j) - ref[k](i, j));
                err = std::isnan(e) ? e : std::max(err, e);
            }
        const double rel = err / scale;
        if (!(rel <= kZTol)) ok = false;
        if (!(rel <= worst)) worst = rel, at = k;
    }
    if (!ok)
        std::fprintf(stderr,
                     "perfbench: %s: Z off reference by %.3g relative at point %zu\n",
                     what, worst, at);
    return ok;
}

bool same_z(const std::vector<MatrixC>& a, const std::vector<MatrixC>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t k = 0; k < a.size(); ++k)
        for (std::size_t i = 0; i < 2; ++i)
            for (std::size_t j = 0; j < 2; ++j) {
                const Complex x = a[k](i, j), y = b[k](i, j);
                if (std::memcmp(&x, &y, sizeof x) != 0) return false;
            }
    return true;
}

/// The sweep with a span around each public call, then the operator probes
/// outside the unit: Toeplitz operator applies on the uniform plane, an
/// H-matrix build and applies over node_points() + potential_entry on the
/// stretched one.
struct TracedResult {
    std::vector<MatrixC> z;
    IterativeSolverStats stats;
    bool iterative = false;
};

TracedResult traced_plane(const PlaneCase& pc, const PortPair& pp, int unit) {
    TracedResult out;
    std::optional<PlaneBem> bem;
    {
        const Scope root("bench.unit", unit);
        std::optional<RectMesh> mesh;
        {
            const Scope s("geometry.mesh", unit);
            mesh.emplace(make_mesh(pc));
        }
        {
            const Scope s("em.bem_setup", unit);
            bem.emplace(std::move(*mesh), Greens::homogeneous(4.5, true), BemOptions{});
        }
        if (!pc.stretched) {
            const Scope s("em.toeplitz_setup", unit);
            bem->potential_operator();
            bem->inductance_operator();
        }
        std::unique_ptr<PlaneSolver> solver;
        {
            const Scope s("em.make_solver", unit);
            solver = make_solver(*bem, SurfaceImpedance::from_sheet_resistance(kSheet));
        }
        {
            const Scope s(pc.stretched ? "em.sweep_hmatrix" : "em.sweep_toeplitz", unit);
            out.z = solver->sweep_impedance(sweep_freqs(pc), port_nodes(*bem, pp));
        }
        if (const auto* it = dynamic_cast<const IterativeSolver*>(solver.get())) {
            out.iterative = true;
            out.stats = it->stats();
        }
    }

    auto probe_vector = [](std::size_t n) {
        VectorC x(n);
        for (std::size_t i = 0; i < n; ++i)
            x[i] = Complex(1.0 + 1e-3 * static_cast<double>(i % 97), 0.5);
        return x;
    };
    if (!pc.stretched) {
        for (const InteractionOperator* op :
             {&bem->potential_operator(), &bem->inductance_operator()}) {
            const VectorC x = probe_vector(op->size());
            VectorC y;
            for (int r = 0; r < kApplies; ++r) {
                const Scope s("em.op_apply", -1);
                op->apply(x, y);
            }
        }
    } else {
        std::optional<Hmatrix> h;
        {
            const Scope s("em.hmatrix_build", -1);
            const PlaneBem& b = *bem;
            h.emplace(b.node_points(),
                      [&b](std::size_t i, std::size_t j) { return b.potential_entry(i, j); },
                      HmatrixOptions{});
        }
        const VectorC x = probe_vector(h->size());
        VectorC y(h->size());
        for (int r = 0; r < kApplies; ++r) {
            const Scope s("em.hmatrix_apply", -1);
            h->apply(x.data(), y.data());
        }
    }
    return out;
}

bool same_counts(const IterativeSolverStats& a, const IterativeSolverStats& b) {
    return a.frequencies == b.frequencies && a.solves == b.solves &&
           a.block_solves == b.block_solves && a.iterations == b.iterations &&
           a.matvecs == b.matvecs && a.restarts == b.restarts &&
           a.precond_escalations == b.precond_escalations &&
           a.dense_fallbacks == b.dense_fallbacks && a.warm_starts == b.warm_starts &&
           a.recycle_hits == b.recycle_hits && a.aca_blocks == b.aca_blocks &&
           a.aca_dense_blocks == b.aca_dense_blocks;
}

struct Inputs {
    std::vector<std::size_t> ports; ///< port pair per plane
};

Inputs make_inputs(const RunConfig& cfg) { return {port_choice(cfg.seed)}; }

} // namespace

Outcome pdn_end_to_end(const RunConfig& cfg) {
    const Refs refs = read_refs(cfg);
    return closed_loop(
        cfg,
        [&] {
            pin_pool(cfg.threads);
            return make_inputs(cfg);
        },
        [&](const Inputs& in) {
            RoundResult rr;
            for (std::size_t p = 0; p < std::size(kPlanes); ++p) {
                const auto t0 = Clock::now();
                bool ok = false;
                try {
                    ok = matches(sweep_plane(kPlanes[p], kPorts[in.ports[p]]),
                                 refs[p][in.ports[p]], kPlanes[p].name);
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "perfbench: %s sweep threw: %s\n",
                                 kPlanes[p].name, e.what());
                }
                rr.latencies.push_back(seconds_since(t0));
                ++rr.attempted;
                if (!ok) ++rr.failed;
            }
            return rr;
        });
}

void pdn_ledger(const RunConfig& cfg, Outcome& out) {
    pin_pool(cfg.threads);
    const Inputs in = make_inputs(cfg);
    const Refs refs = read_refs(cfg);
    Tracer& tr = tracer();
    const std::size_t np = std::size(kPlanes);

    double untraced = 0;
    std::vector<TracedResult> traced;
    SpanRange pinned{tr.size(), tr.size()};
    for (std::size_t p = 0; p < np; ++p) {
        const PlaneCase& pc = kPlanes[p];
        const PortPair& pp = kPorts[in.ports[p]];
        const auto t0 = Clock::now();
        const std::vector<MatrixC> z = sweep_plane(pc, pp);
        untraced += seconds_since(t0);
        out.unit(matches(z, refs[p][in.ports[p]], pc.name));

        tr.enable(true);
        traced.push_back(traced_plane(pc, pp, tr.new_unit()));
        tr.enable(false);
        const TracedResult& t = traced.back();
        out.unit(matches(t.z, refs[p][in.ports[p]], pc.name));
        out.check(same_z(t.z, z), std::string(pc.name) + ": traced sweep differs");
        out.check(t.iterative && t.stats.hmatrix == pc.stretched,
                  std::string(pc.name) + ": Auto did not pick the " +
                      (pc.stretched ? "H-matrix" : "Toeplitz") + " iterative path");
    }
    pinned.last = tr.size();

    pin_pool(1);
    SpanRange single{tr.size(), tr.size()};
    for (std::size_t p = 0; p < np; ++p) {
        tr.enable(true);
        const TracedResult t = traced_plane(kPlanes[p], kPorts[in.ports[p]], tr.new_unit());
        tr.enable(false);
        out.unit(matches(t.z, refs[p][in.ports[p]], kPlanes[p].name));
        out.check(same_z(t.z, traced[p].z) && same_counts(t.stats, traced[p].stats),
                  std::string(kPlanes[p].name) +
                      ": one-thread traced sweep differs from the pinned one");
    }
    single.last = tr.size();
    pin_pool(cfg.threads);

    auto total = [&](const char* name) {
        return tr.total_seconds(name, pinned.first, pinned.last);
    };
    auto mean = [&](const char* name) {
        return total(name) / static_cast<double>(tr.count(name, pinned.first, pinned.last));
    };
    IterativeSolverStats sum;
    for (const TracedResult& t : traced) {
        sum.iterations += t.stats.iterations;
        sum.matvecs += t.stats.matvecs;
        sum.restarts += t.stats.restarts;
        sum.warm_starts += t.stats.warm_starts;
        sum.recycle_hits += t.stats.recycle_hits;
        sum.precond_escalations += t.stats.precond_escalations;
        sum.dense_fallbacks += t.stats.dense_fallbacks;
    }
    const IterativeSolverStats& hm = traced[1].stats; // the stretched plane
    out.add("em.toeplitz_setup_s", total("em.toeplitz_setup"), "s");
    out.add("em.op_apply_s", mean("em.op_apply"), "s");
    out.add("em.hmatrix_build_s", total("em.hmatrix_build"), "s");
    out.add("em.hmatrix_apply_s", mean("em.hmatrix_apply"), "s");
    out.add("em.aca_blocks", static_cast<double>(hm.aca_blocks), "count");
    out.add("em.hmatrix_compression", hm.hmatrix_compression, "ratio");
    out.add("em.sweep_toeplitz_s", total("em.sweep_toeplitz"), "s");
    out.add("em.sweep_hmatrix_s", total("em.sweep_hmatrix"), "s");
    out.add("em.gmres_iterations", static_cast<double>(sum.iterations), "count");
    out.add("em.matvecs", static_cast<double>(sum.matvecs), "count");
    out.add("em.restarts", static_cast<double>(sum.restarts), "count");
    out.add("em.warm_starts", static_cast<double>(sum.warm_starts), "count");
    out.add("em.recycle_hits", static_cast<double>(sum.recycle_hits), "count");
    out.add("em.precond_escalations", static_cast<double>(sum.precond_escalations),
            "count");
    out.add("em.dense_fallbacks", static_cast<double>(sum.dense_fallbacks), "count");
    add_layer_ledger(out, kName, {"geometry", "em"}, untraced, pinned, single,
                     cfg.threads);
}

void pdn_write_refs(const RunConfig& cfg) {
    pin_pool(cfg.threads);
    std::string text = "{\n  \"workload\": \"pdn_sweep\",\n  \"sweeps\": [\n";
    const std::size_t np = std::size(kPlanes);
    for (std::size_t p = 0; p < np; ++p)
        for (std::size_t q = 0; q < kPortPairs; ++q) {
            // Dense direct LU, so the check against these references is the
            // backend gate itself: the iterative path against the direct one.
            const std::vector<MatrixC> z =
                sweep_plane(kPlanes[p], kPorts[q], SolverBackend::Direct);
            text += "    {\"plane\": " + std::to_string(p) + ", \"name\": \"" +
                    kPlanes[p].name + "\", \"ports\": " + std::to_string(q) +
                    ", \"z\": [\n";
            for (std::size_t k = 0; k < z.size(); ++k) {
                // A single part may be 0; the whole matrix, the check's
                // scale, may not.
                exact(z[k].max_abs());
                text += "      [";
                for (std::size_t e = 0; e < 4; ++e) {
                    const Complex v = z[k](e / 2, e % 2);
                    text += exact(v.real(), true) + ", " + exact(v.imag(), true) +
                            (e < 3 ? ", " : "");
                }
                text += k + 1 < z.size() ? "],\n" : "]\n";
            }
            text += (p + 1 < np || q + 1 < kPortPairs) ? "    ]},\n" : "    ]}\n";
        }
    text += "  ]\n}\n";
    write_file(cfg, kName, text);
}

} // namespace perfbench

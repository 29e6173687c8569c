// A3 — ablation: mesh convergence and solver scaling (§2: the method must
// "handle the complexity of real IC/MCM/PCB designs within the practical
// computational constraints of an engineering workstation environment").
//
// Reports (a) convergence of the extracted port quantities with mesh
// density and (b) wall-time scaling of the assembly + extraction pipeline,
// which is dominated by the dense partial-inductance factorization.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include <vector>

#include "common/parallel.hpp"
#include "em/iterative_solver.hpp"
#include "em/solver.hpp"
#include "extract/equivalent_circuit.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/trace.hpp"

using namespace pgsi;

namespace {

PlaneBem make_plane(int n, AssemblyMode assembly = AssemblyMode::Auto) {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, 0.1, 0.08);
    s.z = 0.5e-3;
    s.sheet_resistance = 0.6e-3;
    BemOptions opt;
    opt.assembly = assembly;
    return PlaneBem(RectMesh({s}, 0.1 / n), Greens::homogeneous(4.5, true),
                    opt);
}

// Two planes with incommensurate widths at the same pitch request: RectMesh
// rounds each shape's cell size independently, so the lattice is non-uniform
// and the Toeplitz/FFT path is off the table — the regime the H-matrix
// backend exists for.
PlaneBem make_stretched_plane(int n, HmatrixOptions hopt = {}) {
    ConductorShape a;
    a.outline = Polygon::rectangle(0, 0, 0.1, 0.08);
    a.z = 0.5e-3;
    a.sheet_resistance = 0.6e-3;
    ConductorShape b = a;
    b.outline = Polygon::rectangle(0.103, 0, 0.103 + 0.0617, 0.0473);
    BemOptions opt;
    opt.hmatrix = hopt;
    return PlaneBem(RectMesh({a, b}, 0.1 / n), Greens::homogeneous(4.5, true),
                    opt);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

// Span recording over a stretch of the bench: on from construction, back to
// its previous state on destruction. seconds(leaf) is the wall time spans
// with that leaf name gained since construction, so spans recorded earlier
// (PGSI_TRACE=1) are neither counted nor dropped.
class StageClock {
public:
    StageClock() : was_on_(obs::trace_enabled()), before_(obs::span_totals()) {
        obs::set_trace_enabled(true);
    }
    ~StageClock() { obs::set_trace_enabled(was_on_); }
    StageClock(const StageClock&) = delete;
    StageClock& operator=(const StageClock&) = delete;

    double seconds(std::string_view leaf) const {
        return obs::leaf_seconds(obs::span_totals(), leaf) -
               obs::leaf_seconds(before_, leaf);
    }

private:
    bool was_on_;
    std::vector<obs::SpanTotal> before_;
};

double max_rel_diff(const MatrixD& a, const MatrixD& b) {
    const double scale = std::max(a.max_abs(), 1e-300);
    double m = 0;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            m = std::max(m, std::abs(a(i, j) - b(i, j)) / scale);
    return m;
}

double max_rel_diff(const std::vector<MatrixC>& a,
                    const std::vector<MatrixC>& b) {
    double scale = 1e-300, m = 0;
    for (std::size_t k = 0; k < a.size(); ++k)
        for (std::size_t i = 0; i < a[k].rows(); ++i)
            for (std::size_t j = 0; j < a[k].cols(); ++j)
                scale = std::max(scale, std::abs(a[k](i, j)));
    for (std::size_t k = 0; k < a.size(); ++k)
        for (std::size_t i = 0; i < a[k].rows(); ++i)
            for (std::size_t j = 0; j < a[k].cols(); ++j)
                m = std::max(m, std::abs(a[k](i, j) - b[k](i, j)) / scale);
    return m;
}

// Machine-readable scaling record: per mesh density, the direct vs cached
// fill time, the cached-reconstruction error (must stay <= 1e-10), the
// downstream dense-solver stages, and a short DirectSolver frequency sweep.
// Committed as BENCH_scaling.json so trajectories across commits resolve
// which stage moved.
void write_scaling_json(const char* path, bool smoke) {
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        return;
    }
    std::printf("=== scaling record -> %s (threads=%zu%s) ===\n", path,
                par::thread_count(), smoke ? ", smoke" : "");
    std::fprintf(f, "{\n  \"bench\": \"scaling\",\n  \"threads\": %zu,\n",
                 par::thread_count());
    std::fprintf(f, "  \"cases\": [\n");
    // The smoke subset (PGSI_BENCH_SMOKE) keeps the per-size labels of the
    // full run so bench_compare matches its cases against the golden by "n".
    const std::vector<int> sizes =
        smoke ? std::vector<int>{6, 10, 14} : std::vector<int>{6, 10, 14, 18, 24};
    const std::size_t nsizes = sizes.size();
    for (std::size_t si = 0; si < nsizes; ++si) {
        const int n = sizes[si];

        auto t0 = std::chrono::steady_clock::now();
        const PlaneBem direct = make_plane(n, AssemblyMode::Direct);
        direct.potential_matrix();
        direct.inductance_matrix();
        const double fill_direct_s = seconds_since(t0);

        t0 = std::chrono::steady_clock::now();
        const PlaneBem cached = make_plane(n, AssemblyMode::Cached);
        cached.potential_matrix();
        cached.inductance_matrix();
        const double fill_cached_s = seconds_since(t0);

        const double rel_err = std::max(
            max_rel_diff(cached.potential_matrix(), direct.potential_matrix()),
            max_rel_diff(cached.inductance_matrix(),
                         direct.inductance_matrix()));

        t0 = std::chrono::steady_clock::now();
        cached.maxwell_capacitance();
        const double invert_s = seconds_since(t0);
        t0 = std::chrono::steady_clock::now();
        cached.gamma();
        const double gamma_s = seconds_since(t0);

        // Short parallel frequency sweep at two corner pins.
        const DirectSolver solver(cached, SurfaceImpedance{});
        const std::vector<std::size_t> ports = {
            cached.mesh().nearest_node({0.005, 0.005}, 0),
            cached.mesh().nearest_node({0.095, 0.075}, 0)};
        const VectorD freqs{1e8, 3e8, 1e9};
        t0 = std::chrono::steady_clock::now();
        const auto z = solver.sweep_impedance(freqs, ports);
        const double sweep_s = seconds_since(t0);
        benchmark::DoNotOptimize(z.size());

        std::fprintf(f,
                     "    {\"n\": %d, \"nodes\": %zu, \"branches\": %zu, "
                     "\"cache_entries\": %zu,\n"
                     "     \"fill_direct_s\": %.6f, \"fill_cached_s\": %.6f, "
                     "\"fill_speedup\": %.2f, \"cached_rel_err\": %.3e,\n"
                     "     \"invert_s\": %.6f, \"gamma_s\": %.6f, "
                     "\"sweep_freqs\": %zu, \"sweep_s\": %.6f}%s\n",
                     n, cached.node_count(), cached.mesh().branch_count(),
                     cached.stats().cache_entries, fill_direct_s, fill_cached_s,
                     fill_direct_s / std::max(fill_cached_s, 1e-9), rel_err,
                     invert_s, gamma_s, freqs.size(), sweep_s,
                     si + 1 < nsizes ? "," : "");
        std::printf("  n=%2d: fill %.3fs direct / %.3fs cached (%.1fx), "
                    "rel err %.1e, sweep(%zu f) %.3fs\n",
                    n, fill_direct_s, fill_cached_s,
                    fill_direct_s / std::max(fill_cached_s, 1e-9), rel_err,
                    freqs.size(), sweep_s);
    }
    std::fprintf(f, "  ],\n");

    // Dense-LU vs matrix-free FFT/GMRES frequency sweeps over the same mesh
    // family: where the iterative backend's O(N log N) matvecs overtake the
    // direct backend's dense factorizations (the crossover the Auto backend
    // selection is tuned against).
    std::fprintf(f, "  \"backends\": [\n");
    const std::vector<int> bsizes =
        smoke ? std::vector<int>{12, 18} : std::vector<int>{12, 18, 24, 34, 48};
    const std::size_t nb = bsizes.size();
    for (std::size_t si = 0; si < nb; ++si) {
        const int n = bsizes[si];
        const PlaneBem bem = make_plane(n);
        const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(
            0.6e-3);
        const std::vector<std::size_t> ports = {
            bem.mesh().nearest_node({0.005, 0.005}, 0),
            bem.mesh().nearest_node({0.095, 0.075}, 0)};
        const VectorD freqs{1e8, 3e8};

        const DirectSolver direct(bem, zs);
        auto t0 = std::chrono::steady_clock::now();
        const auto zd = direct.sweep_impedance(freqs, ports);
        const double direct_s = seconds_since(t0);

        SolverOptions iopt;
        iopt.backend = SolverBackend::Iterative;
        const IterativeSolver iterative(bem, zs, iopt);
        const std::uint64_t restarts0 = obs::counter("gmres.restarts").value();
        t0 = std::chrono::steady_clock::now();
        const auto zi = iterative.sweep_impedance(freqs, ports);
        const double iterative_s = seconds_since(t0);
        const std::uint64_t restarts =
            obs::counter("gmres.restarts").value() - restarts0;

        const double rel_err = max_rel_diff(zi, zd);
        const IterativeSolverStats& st = iterative.stats();
        std::fprintf(f,
                     "    {\"n\": %d, \"nodes\": %zu, \"branches\": %zu, "
                     "\"sweep_freqs\": %zu,\n"
                     "     \"direct_s\": %.6f, \"iterative_s\": %.6f, "
                     "\"speedup\": %.2f, \"z_rel_err\": %.3e,\n"
                     "     \"gmres_iterations\": %zu, \"gmres_matvecs\": %zu, "
                     "\"gmres_restarts\": %llu, \"worst_residual\": %.3e}%s\n",
                     n, bem.node_count(), bem.mesh().branch_count(),
                     freqs.size(), direct_s, iterative_s,
                     direct_s / std::max(iterative_s, 1e-9), rel_err,
                     st.iterations, st.matvecs,
                     static_cast<unsigned long long>(restarts),
                     st.worst_residual, si + 1 < nb ? "," : "");
        std::printf("  n=%2d backends: direct %.3fs / iterative %.3fs "
                    "(%.1fx), z rel err %.1e, %zu gmres iters\n",
                    n, direct_s, iterative_s,
                    direct_s / std::max(iterative_s, 1e-9), rel_err,
                    st.iterations);
    }
    std::fprintf(f, "  ],\n");

    // Dense-grid frequency sweeps through the iterative backend's sweep
    // engine (block multi-RHS GMRES, warm starts, subspace recycling) vs the
    // same grid solved cold: independent per-point port_impedance block
    // solves fanned out over the pool. The matvec reduction is the headline
    // number the engine exists for.
    std::fprintf(f, "  \"sweep\": [\n");
    const std::vector<int> ssizes =
        smoke ? std::vector<int>{18} : std::vector<int>{18, 48};
    const std::size_t ns = ssizes.size();
    for (std::size_t si = 0; si < ns; ++si) {
        const int n = ssizes[si];
        const PlaneBem bem = make_plane(n);
        const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(
            0.6e-3);
        const std::vector<std::size_t> ports = {
            bem.mesh().nearest_node({0.005, 0.005}, 0),
            bem.mesh().nearest_node({0.095, 0.075}, 0)};
        // 64 points up to the plane's first resonances: the warm-start
        // regime a production PDN impedance scan actually runs in.
        const std::size_t nf = 64;
        VectorD freqs(nf);
        for (std::size_t i = 0; i < nf; ++i)
            freqs[i] = 1e8 + (9e8 - 1e8) * static_cast<double>(i) /
                                 static_cast<double>(nf - 1);

        SolverOptions iopt;
        iopt.backend = SolverBackend::Iterative;
        const IterativeSolver cold(bem, zs, iopt);
        std::vector<MatrixC> zc(nf);
        auto t0 = std::chrono::steady_clock::now();
        par::parallel_for(nf, [&](std::size_t i) {
            zc[i] = cold.port_impedance(freqs[i], ports);
        });
        const double cold_s = seconds_since(t0);

        const IterativeSolver engine(bem, zs, iopt);
        t0 = std::chrono::steady_clock::now();
        const auto ze = engine.sweep_impedance(freqs, ports);
        const double engine_s = seconds_since(t0);

        const double rel_err = max_rel_diff(ze, zc);
        const IterativeSolverStats& est = engine.stats();
        const double reduction =
            static_cast<double>(cold.stats().matvecs) /
            static_cast<double>(std::max<std::size_t>(est.matvecs, 1));

        std::fprintf(f,
                     "    {\"n\": %d, \"nodes\": %zu, \"sweep_freqs\": %zu,\n"
                     "     \"cold_s\": %.6f, \"engine_s\": %.6f, "
                     "\"cold_matvecs\": %zu, \"engine_matvecs\": %zu, "
                     "\"matvec_reduction\": %.2f,\n"
                     "     \"engine_z_rel_err\": %.3e, \"warm_starts\": %zu, "
                     "\"recycle_hits\": %zu, \"saved_iterations\": %zu}%s\n",
                     n, bem.node_count(), nf, cold_s, engine_s,
                     cold.stats().matvecs, est.matvecs, reduction, rel_err,
                     est.warm_starts, est.recycle_hits, est.saved_iterations,
                     si + 1 < ns ? "," : "");
        std::printf("  n=%2d sweep(%zu f): cold %.3fs/%zu matvecs, engine "
                    "%.3fs/%zu matvecs (%.1fx fewer), z rel err %.1e\n",
                    n, nf, cold_s, cold.stats().matvecs, engine_s, est.matvecs,
                    reduction, rel_err);
    }
    std::fprintf(f, "  ],\n");

    // Non-uniform (stretched, incommensurate two-shape) meshes: the case the
    // solver used to serve with a dense fallback. Dense assembly + direct
    // solve vs ACA-compressed H-matrix operators + GMRES — the headline is
    // the end-to-end speedup at matching (<= 1e-8) accuracy.
    std::fprintf(f, "  \"hmatrix\": [\n");
    const std::vector<int> hsizes =
        smoke ? std::vector<int>{14} : std::vector<int>{14, 24, 34, 44};
    const std::size_t nh = hsizes.size();
    for (std::size_t si = 0; si < nh; ++si) {
        const int n = hsizes[si];
        const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(
            0.6e-3);
        const VectorD freqs{1e8, 3e8};

        // Fresh BEM per path: the dense baseline pays its lazy O(N^2) fills
        // inside the timed window, exactly as a cold extraction run would.
        const PlaneBem dense_bem = make_stretched_plane(n);
        const std::vector<std::size_t> ports = {
            dense_bem.mesh().nearest_node({0.005, 0.005}, 0),
            dense_bem.mesh().nearest_node({0.095, 0.075}, 0)};
        const DirectSolver direct(dense_bem, zs);
        auto t0 = std::chrono::steady_clock::now();
        const auto zd = direct.sweep_impedance(freqs, ports);
        const double dense_s = seconds_since(t0);

        // Tolerances matched to the case's 1e-8 accuracy target instead of
        // the conservative library defaults (aca 1e-10 / gmres 1e-11): the
        // measured Z error stays ~2e-9 while ACA ranks and GMRES iteration
        // counts drop substantially.
        HmatrixOptions aca;
        aca.aca_tol = 3e-9;
        aca.eta = 2.0;
        const PlaneBem hbem = make_stretched_plane(n, aca);
        SolverOptions hopt;
        hopt.backend = SolverBackend::Iterative;
        hopt.gmres.tol = 1e-10;
        const IterativeSolver compressed(hbem, zs, hopt);
        const StageClock stages;
        t0 = std::chrono::steady_clock::now();
        const auto zh = compressed.sweep_impedance(freqs, ports);
        const double hmatrix_s = seconds_since(t0);
        const double build_s = stages.seconds("em.hmatrix.build");

        const double rel_err = max_rel_diff(zh, zd);
        const IterativeSolverStats& st = compressed.stats();
        std::fprintf(f,
                     "    {\"n\": %d, \"nodes\": %zu, \"branches\": %zu, "
                     "\"sweep_freqs\": %zu,\n"
                     "     \"dense_s\": %.6f, \"hmatrix_s\": %.6f, "
                     "\"speedup\": %.2f, \"z_rel_err\": %.3e,\n"
                     "     \"build_s\": %.6f, \"aca_blocks\": %zu, "
                     "\"aca_dense_blocks\": %zu, \"compression\": %.4f, "
                     "\"gmres_iterations\": %zu}%s\n",
                     n, dense_bem.node_count(),
                     dense_bem.mesh().branch_count(), freqs.size(), dense_s,
                     hmatrix_s, dense_s / std::max(hmatrix_s, 1e-9), rel_err,
                     build_s, st.aca_blocks,
                     st.aca_dense_blocks, st.hmatrix_compression,
                     st.iterations, si + 1 < nh ? "," : "");
        std::printf("  n=%2d hmatrix: dense %.3fs / compressed %.3fs "
                    "(%.1fx), z rel err %.1e, compression %.2f, "
                    "%zu aca blocks\n",
                    n, dense_s, hmatrix_s,
                    dense_s / std::max(hmatrix_s, 1e-9), rel_err,
                    st.hmatrix_compression, st.aca_blocks);
    }
    std::fprintf(f, "  ],\n");

    // Process-level resource accounting (obs/resource): allocation pressure
    // and pool dispatch counts are deterministic per build and gate cheaply;
    // peak RSS is recorded for trending but skipped by the gate (it depends
    // on the machine).
    const obs::MetricsSnapshot ms = obs::metrics_snapshot();
    const par::PoolStats ps = par::pool_stats();
    std::fprintf(f,
                 "  \"resources\": {\"peak_rss_bytes\": %llu, "
                 "\"matrix_alloc_count\": %llu, \"matrix_alloc_bytes\": %llu, "
                 "\"par_jobs\": %llu}\n}\n",
                 static_cast<unsigned long long>(obs::peak_rss_bytes()),
                 static_cast<unsigned long long>(
                     ms.counter_value("alloc.matrix.count")),
                 static_cast<unsigned long long>(
                     ms.counter_value("alloc.matrix.bytes")),
                 static_cast<unsigned long long>(ps.jobs));
    std::fclose(f);
    std::printf("\n");
}

void print_experiment() {
    std::printf("=== A3: mesh convergence and scaling (paper §2 workstation "
                "claim) ===\n");
    std::printf("100x80 mm plane, two corner pins; extracted port values and "
                "wall time vs mesh density\n\n");
    std::printf("%-8s %-8s %-12s %-14s %-16s %-10s %-24s\n", "mesh", "cells",
                "C_tot [nF]", "L_pin [nH]", "Z(100MHz) [mohm]", "time [s]",
                "fill/invert/gamma [s]");
    for (int n : {6, 10, 14, 18, 24}) {
        const StageClock stages;
        const auto t0 = std::chrono::steady_clock::now();
        const PlaneBem bem = make_plane(n);
        const std::size_t p1 = bem.mesh().nearest_node({0.005, 0.005}, 0);
        const std::size_t p2 = bem.mesh().nearest_node({0.095, 0.075}, 0);
        const CircuitExtractor ex(bem, ExtractionOptions{0.0, true, false});
        const EquivalentCircuit ec = ex.extract(ex.select_nodes({p1, p2}, 12));
        std::size_t i1 = 0;
        const auto keep = ex.select_nodes({p1, p2}, 12);
        for (std::size_t i = 0; i < keep.size(); ++i)
            if (keep[i] == p1) i1 = i;
        // Pin-to-pin loop inductance: Kron-reduce Γ onto the two pins alone.
        const EquivalentCircuit two =
            ex.extract(std::vector<std::size_t>{std::min(p1, p2), std::max(p1, p2)});
        double lpin = 0;
        for (const RlcBranch& b : two.branches)
            if (b.l != 0) lpin = b.l;
        const double z100 = std::abs(ec.impedance(100e6, {i1})(0, 0));
        const auto t1 = std::chrono::steady_clock::now();
        const double secs =
            std::chrono::duration<double>(t1 - t0).count();
        std::printf("%2dx%-5d %-8zu %-12.3f %-14.3f %-16.1f %-10.2f "
                    "%.3f/%.3f/%.3f\n",
                    n, (n * 8) / 10, bem.node_count(),
                    ec.total_reference_capacitance() * 1e9, lpin * 1e9,
                    z100 * 1e3, secs,
                    stages.seconds("bem.fill.potential") +
                        stages.seconds("bem.fill.inductance"),
                    stages.seconds("bem.invert.potential"),
                    stages.seconds("bem.gamma"));
    }
    std::printf("\nexpected shape: port quantities settle within a few %% by "
                "moderate densities while cost grows ~N^3 (dense "
                "factorizations) — the engineering trade the paper's "
                "quasi-static method is built around.\n\n");
}

void BM_full_pipeline(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    // Per-stage wall time accumulated across iterations (the assembly stages
    // from their spans); exported as rate counters so BENCH_*.json
    // trajectories resolve which stage moved.
    double extract_s = 0;
    const StageClock stages;
    for (auto _ : state) {
        const PlaneBem bem = make_plane(n);
        // Force the lazy assembly stages up front so the extract window below
        // times the cycle-basis reduction, not hidden fills. The extractor
        // reads only the L and Ppot fills; the all-node inverse and Γ are
        // still built to keep their stage trajectories (invert_s, gamma_s).
        bem.maxwell_capacitance();
        bem.gamma();
        const CircuitExtractor ex(bem);
        const auto t0 = std::chrono::steady_clock::now();
        const EquivalentCircuit ec = ex.extract(ex.select_nodes(
            {bem.mesh().nearest_node({0.005, 0.005}, 0)}, 12));
        const auto t1 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(ec.branches.size());
        extract_s += std::chrono::duration<double>(t1 - t0).count();
    }
    state.counters["fill_s"] = benchmark::Counter(
        stages.seconds("bem.fill.potential") +
            stages.seconds("bem.fill.inductance"),
        benchmark::Counter::kAvgIterations);
    state.counters["invert_s"] = benchmark::Counter(
        stages.seconds("bem.invert.potential"),
        benchmark::Counter::kAvgIterations);
    state.counters["gamma_s"] = benchmark::Counter(
        stages.seconds("bem.gamma"), benchmark::Counter::kAvgIterations);
    state.counters["extract_s"] =
        benchmark::Counter(extract_s, benchmark::Counter::kAvgIterations);
    state.SetComplexityN(n * n);
}
BENCHMARK(BM_full_pipeline)->Arg(6)->Arg(10)->Arg(14)->Arg(18)
    ->Unit(benchmark::kMillisecond)->Complexity();

} // namespace

int main(int argc, char** argv) {
    // Feeds the "resources" section of the JSON record.
    obs::set_resources_enabled(true);
    // PGSI_BENCH_SMOKE runs a reduced size subset and skips the exploratory
    // output — just enough signal for bench_compare to gate a commit.
    const bool smoke = std::getenv("PGSI_BENCH_SMOKE") != nullptr;
    if (!smoke) print_experiment();
    // PGSI_BENCH_JSON overrides the output path (default: cwd).
    const char* json_path = std::getenv("PGSI_BENCH_JSON");
    write_scaling_json(json_path ? json_path : "BENCH_scaling.json", smoke);
    if (smoke) return 0;
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

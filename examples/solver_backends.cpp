// Solver backend comparison: dense direct LU vs the matrix-free FFT/GMRES
// path over one power plane.
//
// On a uniform-pitch mesh the BEM interaction matrices are block-Toeplitz,
// so the iterative backend never forms them: each GMRES matvec applies the
// potential and inductance operators through circulant embedding + FFT in
// O(N log N). This example sweeps the same two-pin plane with both backends
// at increasing mesh density, prints the wall time and the worst relative
// deviation between the two impedance sweeps, and shows what the Auto
// backend would have picked at each size.
//
// Build & run:  ./example_solver_backends
#include <chrono>
#include <cmath>
#include <cstdio>

#include "em/iterative_solver.hpp"
#include "em/solver.hpp"

using namespace pgsi;

namespace {

PlaneBem make_plane(int n) {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, 0.1, 0.08);
    s.z = 0.5e-3;
    s.sheet_resistance = 0.6e-3;
    return PlaneBem(RectMesh({s}, 0.1 / n), Greens::homogeneous(4.5, true),
                    BemOptions{});
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int main() {
    std::printf("dense direct LU vs matrix-free FFT/GMRES, 100x80 mm plane, "
                "two corner pins, f = {100, 300} MHz\n\n");
    std::printf("%-6s %-8s %-10s %-12s %-10s %-12s %-8s\n", "mesh", "nodes",
                "direct[s]", "iterative[s]", "speedup", "max rel dev", "auto");

    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(0.6e-3);
    const VectorD freqs{1e8, 3e8};
    for (const int n : {12, 18, 24, 34}) {
        const PlaneBem bem = make_plane(n);
        const std::vector<std::size_t> ports = {
            bem.mesh().nearest_node({0.005, 0.005}, 0),
            bem.mesh().nearest_node({0.095, 0.075}, 0)};

        const DirectSolver direct(bem, zs);
        auto t0 = std::chrono::steady_clock::now();
        const auto zd = direct.sweep_impedance(freqs, ports);
        const double direct_s = seconds_since(t0);

        SolverOptions opt;
        opt.backend = SolverBackend::Iterative;
        const IterativeSolver iterative(bem, zs, opt);
        t0 = std::chrono::steady_clock::now();
        const auto zi = iterative.sweep_impedance(freqs, ports);
        const double iterative_s = seconds_since(t0);

        double dev = 0, scale = 1e-300;
        for (std::size_t k = 0; k < freqs.size(); ++k)
            for (std::size_t i = 0; i < ports.size(); ++i)
                for (std::size_t j = 0; j < ports.size(); ++j) {
                    scale = std::max(scale, std::abs(zd[k](i, j)));
                    dev = std::max(dev, std::abs(zi[k](i, j) - zd[k](i, j)));
                }

        // What would Auto have picked here (its one node threshold)?
        const auto auto_solver = make_solver(bem, zs);
        std::printf("%-6d %-8zu %-10.3f %-12.3f %-10.1f %-12.2e %-8s\n", n,
                    bem.node_count(), direct_s, iterative_s,
                    direct_s / std::max(iterative_s, 1e-9), dev / scale,
                    auto_solver->backend_name());
    }
    std::printf("\nBoth backends solve the same MPIE system; deviations are "
                "pure linear-algebra round-off (target <= 1e-8). The Auto "
                "backend switches to the matrix-free path once the mesh "
                "reaches the node threshold (Toeplitz operators on a uniform "
                "lattice, H-matrix otherwise).\n");
    return 0;
}

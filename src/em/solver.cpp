#include "em/solver.hpp"

#include <memory>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "numeric/lu.hpp"
#include "obs/resource.hpp"
#include "obs/trace.hpp"

namespace pgsi {

DirectSolver::DirectSolver(const PlaneBem& bem, SurfaceImpedance zs,
                           robust::RecoveryOptions recovery)
    : bem_(bem), zs_(zs), recovery_(recovery) {}

MatrixC DirectSolver::nodal_admittance(double freq_hz) const {
    PGSI_REQUIRE(freq_hz > 0, "DirectSolver: frequency must be positive");
    PGSI_TRACE_SCOPE("em.solve.nodal_admittance");
    PGSI_ALLOC_SCOPE("em.solve");
    const double omega = 2.0 * pi * freq_hz;
    const Complex jw(0.0, omega);

    const MatrixD& l = bem_.inductance_matrix();
    const MatrixD& c = bem_.maxwell_capacitance();
    const auto& branches = bem_.mesh().branches();
    const std::size_t m = branches.size();
    const std::size_t n = bem_.node_count();

    // Branch impedance matrix Zb = Zs(ω)·len/width + jωL.
    MatrixC zb(m, m);
    par::parallel_for_chunked(m, 0, [&](std::size_t a0, std::size_t a1) {
        for (std::size_t a = a0; a < a1; ++a) {
            const double* lrow = l.row(a);
            Complex* zrow = zb.row(a);
            for (std::size_t b = 0; b < m; ++b) zrow[b] = jw * lrow[b];
        }
    });
    const Complex zs = zs_.at(omega);
    for (std::size_t b = 0; b < m; ++b)
        zb(b, b) += zs * branches[b].length() / branches[b].width();

    // X = Zb⁻¹ P through a single blocked multi-RHS solve against the dense
    // incidence; Y = Pᵀ X accumulated through the sparse incidence rows.
    std::unique_ptr<const Lu<Complex>> lu;
    try {
        lu = std::make_unique<const Lu<Complex>>(std::move(zb));
    } catch (Error& e) {
        e.with_context("while factoring the branch impedance at f = " +
                       std::to_string(freq_hz) + " Hz");
        throw;
    }

    MatrixC incidence(m, n);
    for (std::size_t b = 0; b < m; ++b) {
        incidence(b, branches[b].n1) = Complex(1.0, 0.0);
        incidence(b, branches[b].n2) = Complex(-1.0, 0.0);
    }
    const MatrixC x = lu->solve(incidence);
    MatrixC y(n, n);
    for (std::size_t b = 0; b < m; ++b) {
        const Complex* xrow = x.row(b);
        Complex* r1 = y.row(branches[b].n1);
        Complex* r2 = y.row(branches[b].n2);
        for (std::size_t j = 0; j < n; ++j) {
            r1[j] += xrow[j];
            r2[j] -= xrow[j];
        }
    }
    par::parallel_for_chunked(n, 0, [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
            const double* crow = c.row(i);
            Complex* yrow = y.row(i);
            for (std::size_t j = 0; j < n; ++j) yrow[j] += jw * crow[j];
        }
    });
    {
        const std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.frequencies;
        ++stats_.factorizations;
        stats_.solves += n;
    }
    return y;
}

MatrixC DirectSolver::port_impedance(
    double freq_hz, const std::vector<std::size_t>& port_nodes) const {
    PGSI_REQUIRE(!port_nodes.empty(), "DirectSolver: no port nodes given");
    // Cancellation point: one poll per frequency point (sweeps reach here
    // from pool workers; the first throw cancels the remaining chunks).
    if (recovery_.cancel != nullptr) recovery_.cancel->poll("em.direct.solve");
    PGSI_TRACE_SCOPE("em.solve.port_impedance");
    PGSI_ALLOC_SCOPE("em.solve");
    const MatrixC y = nodal_admittance(freq_hz);
    const std::size_t n = y.rows();
    const std::size_t p = port_nodes.size();
    for (const std::size_t node : port_nodes)
        PGSI_REQUIRE(node < n, "DirectSolver: port node out of range");

    // Only the port columns of Y⁻¹ are observable: solve Y X = [e_p ...]
    // (|ports| right-hand sides) instead of forming the full inverse, then
    // read the port rows of X.
    const Lu<Complex> lu(y);
    MatrixC rhs(n, p);
    for (std::size_t k = 0; k < p; ++k) rhs(port_nodes[k], k) = Complex(1.0, 0.0);
    const MatrixC cols = lu.solve(rhs);
    MatrixC z(p, p);
    for (std::size_t q = 0; q < p; ++q)
        for (std::size_t k = 0; k < p; ++k) z(q, k) = cols(port_nodes[q], k);
    {
        const std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.factorizations;
        stats_.solves += p;
    }
    return z;
}

std::vector<MatrixC> DirectSolver::sweep_impedance(
    const VectorD& freqs_hz, const std::vector<std::size_t>& port_nodes) const {
    PGSI_TRACE_SCOPE("em.solve.sweep");
    PGSI_ALLOC_SCOPE("em.solve");
    // Force the lazy assemblies before fanning out: the frequency points are
    // embarrassingly parallel once the frequency-independent matrices exist,
    // and the per-frequency dense kernels run inline inside the pool workers
    // (the sweep level owns the parallelism).
    bem_.inductance_matrix();
    bem_.maxwell_capacitance();
    std::vector<MatrixC> out(freqs_hz.size());
    par::parallel_for(freqs_hz.size(), [&](std::size_t i) {
        out[i] = port_impedance(freqs_hz[i], port_nodes);
    });
    return out;
}

} // namespace pgsi

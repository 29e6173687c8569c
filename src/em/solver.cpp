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
    return y;
}

MatrixC DirectSolver::port_impedance(
    double freq_hz, const std::vector<std::size_t>& port_nodes) const {
    PGSI_REQUIRE(freq_hz > 0, "DirectSolver: frequency must be positive");
    PGSI_REQUIRE(!port_nodes.empty(), "DirectSolver: no port nodes given");
    const std::size_t n = bem_.node_count();
    for (const std::size_t node : port_nodes)
        PGSI_REQUIRE(node < n, "DirectSolver: port node out of range");
    // Cancellation point: one poll per frequency point (sweeps reach here
    // from pool workers; the first throw cancels the remaining chunks).
    if (recovery_.cancel != nullptr) recovery_.cancel->poll("em.direct.solve");
    PGSI_TRACE_SCOPE("em.solve.port_impedance");
    PGSI_ALLOC_SCOPE("em.solve");
    const double omega = 2.0 * pi * freq_hz;
    const Complex inv_jw = 1.0 / Complex(0.0, omega);

    const MatrixD& l = bem_.inductance_matrix();
    const MatrixD& ppot = bem_.potential_matrix();
    const auto& branches = bem_.mesh().branches();
    const std::size_t m = branches.size();
    const std::size_t p = port_nodes.size();

    // Branch system A = Zs·len/w + jωL + S/jω with S = P Ppot Pᵀ, and the
    // port right-hand sides B = P Ppot E_ports. Row r of D = P Ppot is the
    // difference of two Ppot rows; S(r, c) = D(r, n1c) − D(r, n2c) and
    // B(r, k) = D(r, port_k).
    MatrixC a(m, m);
    MatrixC rhs(m, p);
    par::parallel_for_chunked(m, 0, [&](std::size_t r0, std::size_t r1) {
        std::vector<double> d(n);
        for (std::size_t r = r0; r < r1; ++r) {
            const double* p1 = ppot.row(branches[r].n1);
            const double* p2 = ppot.row(branches[r].n2);
            for (std::size_t j = 0; j < n; ++j) d[j] = p1[j] - p2[j];
            const double* lrow = l.row(r);
            Complex* arow = a.row(r);
            for (std::size_t c = 0; c < m; ++c)
                arow[c] = Complex(
                    0.0, omega * lrow[c] -
                             (d[branches[c].n1] - d[branches[c].n2]) / omega);
            for (std::size_t k = 0; k < p; ++k) rhs(r, k) = d[port_nodes[k]];
        }
    });
    const Complex zs = zs_.at(omega);
    for (std::size_t b = 0; b < m; ++b)
        a(b, b) += zs * branches[b].length() / branches[b].width();

    // X = A⁻¹ B carries the branch currents of unit port injections, scaled
    // by jω: I = X/jω. The port voltages V = Ppot (J − Pᵀ I)/jω then read
    // Z = (Ppot[ports, ports] − BᵀX/jω)/jω.
    std::unique_ptr<const Lu<Complex>> lu;
    try {
        lu = std::make_unique<const Lu<Complex>>(std::move(a));
    } catch (Error& e) {
        e.with_context("while factoring the branch system at f = " +
                       std::to_string(freq_hz) + " Hz");
        throw;
    }
    const MatrixC x = lu->solve(rhs);
    MatrixC z(p, p);
    for (std::size_t q = 0; q < p; ++q)
        for (std::size_t k = 0; k < p; ++k) {
            Complex bx{};
            for (std::size_t b = 0; b < m; ++b) bx += rhs(b, q) * x(b, k);
            z(q, k) = (ppot(port_nodes[q], port_nodes[k]) - bx * inv_jw) * inv_jw;
        }
    {
        const std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.frequencies;
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
    bem_.potential_matrix();
    std::vector<MatrixC> out(freqs_hz.size());
    par::parallel_for(freqs_hz.size(), [&](std::size_t i) {
        out[i] = port_impedance(freqs_hz[i], port_nodes);
    });
    return out;
}

} // namespace pgsi

#include "extract/vector_fit.hpp"

#include <algorithm>
#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "numeric/eigen.hpp"
#include "numeric/lu.hpp"

namespace pgsi {

Complex RationalFit::evaluate(double freq_hz) const {
    const Complex s(0.0, 2.0 * pi * freq_hz);
    Complex h(d, 0.0);
    h += s * e;
    for (std::size_t k = 0; k < poles.size(); ++k)
        h += residues[k] / (s - poles[k]);
    return h;
}

double RationalFit::max_relative_error(const VectorD& freqs_hz,
                                       const VectorC& h) const {
    PGSI_REQUIRE(freqs_hz.size() == h.size(),
                 "max_relative_error: size mismatch");
    double scale = 0;
    for (const Complex& v : h) scale = std::max(scale, std::abs(v));
    double worst = 0;
    for (std::size_t i = 0; i < h.size(); ++i)
        worst = std::max(worst, std::abs(evaluate(freqs_hz[i]) - h[i]) / scale);
    return worst;
}

namespace {

// Pole bookkeeping: poles are stored as a flat list where complex poles
// appear as conjugate pairs (p, p*) with Im(p) > 0 first.
bool is_pair_head(const VectorC& poles, std::size_t k) {
    return poles[k].imag() > 0.0;
}

// Solve the real least-squares system A x = b via column-scaled normal
// equations (adequate for the modest, well-sampled systems of VF).
VectorD solve_ls(const MatrixD& a, const VectorD& b) {
    const std::size_t rows = a.rows(), cols = a.cols();
    PGSI_REQUIRE(rows >= cols, "vector_fit: under-determined LS system");
    VectorD colscale(cols, 0.0);
    for (std::size_t j = 0; j < cols; ++j) {
        double s = 0;
        for (std::size_t i = 0; i < rows; ++i) s += a(i, j) * a(i, j);
        colscale[j] = s > 0 ? 1.0 / std::sqrt(s) : 1.0;
    }
    MatrixD ata(cols, cols);
    VectorD atb(cols, 0.0);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            const double aij = a(i, j) * colscale[j];
            atb[j] += aij * b[i];
            for (std::size_t k = j; k < cols; ++k)
                ata(j, k) += aij * a(i, k) * colscale[k];
        }
    }
    for (std::size_t j = 0; j < cols; ++j)
        for (std::size_t k = 0; k < j; ++k) ata(j, k) = ata(k, j);
    // Tiny Tikhonov term guards rank deficiency from redundant poles.
    for (std::size_t j = 0; j < cols; ++j) ata(j, j) += 1e-12;
    VectorD x = Lu<double>(ata).solve(atb);
    for (std::size_t j = 0; j < cols; ++j) x[j] *= colscale[j];
    return x;
}

// Real-coefficient partial-fraction basis at s = jω for the current poles:
// real pole      -> 1/(s-p)
// conjugate pair -> [1/(s-p) + 1/(s-p*),  j/(s-p) - j/(s-p*)]
void basis_row(const VectorC& poles, Complex s, VectorC& phi) {
    const std::size_t np = poles.size();
    phi.assign(np, Complex{});
    for (std::size_t k = 0; k < np;) {
        if (is_pair_head(poles, k)) {
            const Complex t1 = 1.0 / (s - poles[k]);
            const Complex t2 = 1.0 / (s - poles[k + 1]);
            phi[k] = t1 + t2;
            phi[k + 1] = Complex(0, 1) * (t1 - t2);
            k += 2;
        } else {
            phi[k] = 1.0 / (s - poles[k]);
            ++k;
        }
    }
}

// Convert real basis coefficients back to complex residues.
VectorC coeffs_to_residues(const VectorC& poles, const VectorD& c) {
    VectorC r(poles.size());
    for (std::size_t k = 0; k < poles.size();) {
        if (is_pair_head(poles, k)) {
            r[k] = Complex(c[k], c[k + 1]);
            r[k + 1] = std::conj(r[k]);
            k += 2;
        } else {
            r[k] = Complex(c[k], 0.0);
            ++k;
        }
    }
    return r;
}

} // namespace

RationalFit vector_fit(const VectorD& freqs_hz, const VectorC& h,
                       const VectorFitOptions& options) {
    PGSI_REQUIRE(freqs_hz.size() == h.size() && freqs_hz.size() >= 4,
                 "vector_fit: need matching, non-trivial sample sets");
    const int np = options.n_poles;
    PGSI_REQUIRE(np >= 2 && np % 2 == 0,
                 "vector_fit: n_poles must be even and >= 2");
    const std::size_t ns = freqs_hz.size();
    PGSI_REQUIRE(2 * ns >= static_cast<std::size_t>(3 * np + 2),
                 "vector_fit: not enough samples for the requested order");

    // Initial poles: weakly damped conjugate pairs log-spaced over the band.
    VectorC poles;
    const double w_lo = 2 * pi * freqs_hz.front();
    const double w_hi = 2 * pi * freqs_hz.back();
    for (int k = 0; k < np / 2; ++k) {
        const double w = w_lo * std::pow(w_hi / w_lo,
                                         (k + 0.5) / (np / 2.0));
        poles.push_back(Complex(-w / 100.0, w));
        poles.push_back(Complex(-w / 100.0, -w));
    }

    const int n_extra = 2; // d and e
    VectorC phi(np);

    double hmax = 0;
    for (const Complex& v : h) hmax = std::max(hmax, std::abs(v));
    VectorD weight(ns);
    for (std::size_t i = 0; i < ns; ++i)
        weight[i] = 1.0 / (std::abs(h[i]) + 1e-3 * hmax);

    for (int iter = 0; iter < options.iterations; ++iter) {
        // Unknowns: np fit coefficients, d, e, np sigma coefficients.
        const std::size_t cols = np + n_extra + np;
        MatrixD a(2 * ns, cols);
        VectorD b(2 * ns);
        for (std::size_t i = 0; i < ns; ++i) {
            const Complex s(0.0, 2 * pi * freqs_hz[i]);
            basis_row(poles, s, phi);
            const double w = weight[i];
            for (int k = 0; k < np; ++k) {
                a(2 * i, k) = w * phi[k].real();
                a(2 * i + 1, k) = w * phi[k].imag();
            }
            a(2 * i, np) = w; // d
            a(2 * i, np + 1) = w * s.real(); // e
            a(2 * i + 1, np + 1) = w * s.imag();
            for (int k = 0; k < np; ++k) {
                const Complex q = -h[i] * phi[k];
                a(2 * i, np + n_extra + k) = w * q.real();
                a(2 * i + 1, np + n_extra + k) = w * q.imag();
            }
            b[2 * i] = w * h[i].real();
            b[2 * i + 1] = w * h[i].imag();
        }
        const VectorD x = solve_ls(a, b);

        // Zeros of sigma = eigenvalues of A - b·cᵀ in the real pole basis.
        VectorD sig(x.begin() + np + n_extra, x.end());
        MatrixC m(np, np);
        for (std::size_t k = 0; k < static_cast<std::size_t>(np);) {
            if (is_pair_head(poles, k)) {
                const double re = poles[k].real(), im = poles[k].imag();
                m(k, k) = Complex(re, 0);
                m(k, k + 1) = Complex(im, 0);
                m(k + 1, k) = Complex(-im, 0);
                m(k + 1, k + 1) = Complex(re, 0);
                // b-vector is [2, 0] for a pair.
                for (std::size_t j = 0; j < static_cast<std::size_t>(np); ++j)
                    m(k, j) -= 2.0 * sig[j];
                k += 2;
            } else {
                m(k, k) = poles[k];
                for (std::size_t j = 0; j < static_cast<std::size_t>(np); ++j)
                    m(k, j) -= sig[j];
                ++k;
            }
        }
        VectorC zeros = eigenvalues_general(std::move(m));
        // The relocation matrix is real, so eigenvalues come in conjugate
        // pairs (to roundoff). Cluster them robustly: map each to its
        // positive-imag representative, sort, and merge near-duplicates.
        std::vector<Complex> reps;
        for (Complex z : zeros) {
            if (z.real() > 0) z = Complex(-z.real(), z.imag());
            reps.push_back(Complex(z.real(), std::abs(z.imag())));
        }
        std::sort(reps.begin(), reps.end(), [](Complex a2, Complex b2) {
            return a2.imag() != b2.imag() ? a2.imag() < b2.imag()
                                          : a2.real() < b2.real();
        });
        VectorC next;
        std::size_t i = 0;
        const auto unp = static_cast<std::size_t>(np);
        while (i < reps.size() && next.size() < unp) {
            const Complex p = reps[i];
            const double mag = std::abs(p) + 1.0;
            if (p.imag() < 1e-8 * mag) {
                next.push_back(Complex(p.real(), 0.0));
                ++i;
            } else if (next.size() + 2 <= unp) {
                // A conjugate pair; merge twin representatives when present.
                if (i + 1 < reps.size() && std::abs(reps[i + 1] - p) < 1e-6 * mag)
                    ++i;
                next.push_back(p);
                next.push_back(std::conj(p));
                ++i;
            } else {
                // One slot left: degrade the pair to a real pole.
                next.push_back(Complex(p.real(), 0.0));
                ++i;
            }
        }
        while (next.size() < unp)
            next.push_back(Complex(-w_hi * (1.0 + next.size() * 0.1), 0.0));
        poles = std::move(next);
    }

    // Final residue fit with the converged poles.
    const std::size_t cols = np + n_extra;
    MatrixD a(2 * ns, cols);
    VectorD b(2 * ns);
    for (std::size_t i = 0; i < ns; ++i) {
        const Complex s(0.0, 2 * pi * freqs_hz[i]);
        basis_row(poles, s, phi);
        const double w = weight[i];
        for (int k = 0; k < np; ++k) {
            a(2 * i, k) = w * phi[k].real();
            a(2 * i + 1, k) = w * phi[k].imag();
        }
        a(2 * i, np) = w;
        a(2 * i, np + 1) = w * s.real();
        a(2 * i + 1, np + 1) = w * s.imag();
        b[2 * i] = w * h[i].real();
        b[2 * i + 1] = w * h[i].imag();
    }
    const VectorD x = solve_ls(a, b);

    RationalFit fit;
    fit.poles = poles;
    fit.residues = coeffs_to_residues(poles, x);
    fit.d = x[np];
    fit.e = x[np + 1];
    return fit;
}

void stamp_foster_impedance(Netlist& nl, const std::string& name, NodeId a,
                            NodeId b, const RationalFit& fit) {
    for (const Complex& p : fit.poles)
        PGSI_REQUIRE(p.real() < 0, "stamp_foster_impedance: unstable pole");

    // Chain the Foster sections in series between a and b.
    NodeId cur = a;
    std::size_t section = 0;
    auto next_node = [&](bool last) {
        return last ? b : nl.add_node(name + "_f" + std::to_string(section));
    };

    // Count realizable sections to know which one is last.
    std::vector<int> kinds; // 0: d-resistor, 1: e-inductor, 2: real pole, 3: pair
    if (fit.d > 1e-12) kinds.push_back(0);
    if (fit.e > 1e-21) kinds.push_back(1);
    for (std::size_t k = 0; k < fit.poles.size();) {
        if (fit.poles[k].imag() > 0) {
            kinds.push_back(3);
            k += 2;
        } else if (fit.poles[k].imag() == 0.0) {
            kinds.push_back(2);
            ++k;
        } else {
            ++k; // conjugate twin, handled with its head
        }
    }
    PGSI_REQUIRE(!kinds.empty(), "stamp_foster_impedance: nothing to realize");

    std::size_t emitted = 0;
    std::size_t k = 0; // pole cursor
    for (const int kind : kinds) {
        const bool last = (++emitted == kinds.size());
        const NodeId nxt = next_node(last);
        const std::string tag = name + "_s" + std::to_string(section++);
        if (kind == 0) {
            nl.add_resistor("R" + tag, cur, nxt, fit.d);
        } else if (kind == 1) {
            nl.add_inductor("L" + tag, cur, nxt, fit.e);
        } else if (kind == 2) {
            // Real pole p < 0, residue r: parallel R-C with R = -r/p, C = 1/r.
            while (fit.poles[k].imag() != 0.0) ++k;
            const double p = fit.poles[k].real();
            const double r = fit.residues[k].real();
            ++k;
            PGSI_REQUIRE(r != 0,
                         "stamp_foster_impedance: zero real-pole residue");
            // Signed elements are admitted: a stable but non-positive-real
            // fit synthesizes with negative R/C, which MNA handles.
            nl.add_resistor("R" + tag, cur, nxt, -r / p);
            nl.add_capacitor("C" + tag, cur, nxt, 1.0 / r);
        } else {
            while (!(fit.poles[k].imag() > 0)) ++k;
            // Complex pair: Z = (alpha s + beta)/(s^2 + gamma s + delta),
            // realized as C ∥ (L + R_L) ∥ R_p (see derivation in the tests).
            const Complex p = fit.poles[k];
            const Complex r = fit.residues[k];
            k += 2;
            const double alpha = 2.0 * r.real();
            const double beta = -2.0 * (r * std::conj(p)).real();
            const double gamma = -2.0 * p.real();
            const double delta = std::norm(p);
            PGSI_REQUIRE(alpha != 0,
                         "stamp_foster_impedance: degenerate pair (alpha = 0)");
            const double c = 1.0 / alpha;
            const double k1 = beta / alpha;         // R_L / L
            const double k2 = gamma - k1;           // 1/(R_p C)
            PGSI_REQUIRE(std::abs(delta - k1 * k2) > 1e-300,
                         "stamp_foster_impedance: degenerate pair");
            const double lc = 1.0 / (delta - k1 * k2);
            const double l = lc / c;
            const double rl = k1 * l;
            nl.add_capacitor("C" + tag, cur, nxt, c);
            nl.add_inductor("L" + tag, cur, nxt, l, rl);
            if (std::abs(k2) > 1e-9 * (std::abs(gamma) + std::abs(k1)))
                nl.add_resistor("R" + tag, cur, nxt, 1.0 / (c * k2));
        }
        cur = nxt;
    }
}

} // namespace pgsi

#include "numeric/gmres.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/robust.hpp"
#include "numeric/gemm.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"

namespace pgsi {

BlockGmresResult block_gmres(const LinearOpC& a, const std::vector<VectorC>& b,
                             std::vector<VectorC>& x, const GmresOptions& opt,
                             const LinearOpC& precond) {
    PGSI_REQUIRE(static_cast<bool>(a), "block_gmres: null operator");
    PGSI_REQUIRE(!b.empty(), "block_gmres: no right-hand sides");
    PGSI_REQUIRE(x.size() == b.size(), "block_gmres: x/b column count mismatch");
    const std::size_t n = b[0].size();
    for (std::size_t i = 0; i < b.size(); ++i) {
        PGSI_REQUIRE(b[i].size() == n, "block_gmres: ragged rhs columns");
        PGSI_REQUIRE(x[i].size() == n, "block_gmres: x/b size mismatch");
    }
    PGSI_REQUIRE(opt.restart >= 1, "block_gmres: restart must be >= 1");
    PGSI_REQUIRE(opt.tol > 0, "block_gmres: tol must be positive");
    static obs::Counter& c_block = obs::counter("gmres.block_solves");
    static obs::Counter& c_solves = obs::counter("gmres.solves");
    static obs::Counter& c_iters = obs::counter("gmres.iterations");
    static obs::Counter& c_matvecs = obs::counter("gmres.matvecs");
    static obs::Counter& c_restarts = obs::counter("gmres.restarts");
    static obs::Counter& c_est_retries =
        obs::counter("gmres.estimate_retries");
    static obs::Counter& c_deflations = obs::counter("gmres.deflations");
    const std::size_t p = b.size();
    ++c_block;
    c_solves.add(p); // one solve per right-hand side column

    BlockGmresResult res;
    res.residuals.assign(p, 1.0);
    if (robust::FaultInjector::should_fire("gmres.stall")) {
        // Injected stall: report total non-convergence without touching x,
        // exactly as a solve that made no progress would.
        res.worst_residual = 1.0;
        return res;
    }
    const std::size_t m = opt.restart;

    std::vector<double> bnorm(p);
    std::vector<VectorC> r(p);          // current residual per column
    std::vector<double> relres(p, 1.0); // |r_i| / |b_i|, refreshed each cycle
    std::vector<double> est_tol(p, opt.tol); // per-column estimate target
    std::vector<bool> done(p, false);
    VectorC w(n), z(n);

    for (std::size_t i = 0; i < p; ++i) {
        bnorm[i] = norm2(b[i]);
        if (bnorm[i] == 0.0) {
            x[i].assign(n, Complex{});
            r[i].assign(n, Complex{});
            relres[i] = 0.0;
            res.residuals[i] = 0.0;
            done[i] = true;
            continue;
        }
        bool x_is_zero = true;
        for (const Complex& xi : x[i])
            if (xi != Complex{}) {
                x_is_zero = false;
                break;
            }
        if (x_is_zero) {
            r[i] = b[i];
            relres[i] = 1.0;
        } else {
            a(x[i], w);
            ++res.matvecs;
            r[i].resize(n);
            for (std::size_t t = 0; t < n; ++t) r[i][t] = b[i][t] - w[t];
            relres[i] = norm2(r[i]) / bnorm[i];
        }
        res.residuals[i] = relres[i];
        if (relres[i] <= opt.tol) done[i] = true;
    }

    std::vector<VectorC> v;                    // shared Arnoldi basis
    std::vector<VectorC> h(m + 1, VectorC(m)); // rotated Hessenberg
    VectorC g(m + 1);                          // seed's rotated rhs
    VectorC cs(m), sn(m);                      // Givens rotations

    // x[col] += M^{-1} (V y) where y solves the k x k triangular system
    // R y = coef[0..k-1] against the shared rotated Hessenberg.
    auto commit_column = [&](std::size_t col, const VectorC& coef,
                             std::size_t k) {
        VectorC y(k);
        for (std::size_t i = k; i-- > 0;) {
            Complex acc = coef[i];
            for (std::size_t j = i + 1; j < k; ++j) acc -= h[i][j] * y[j];
            y[i] = acc / h[i][i];
        }
        VectorC dx(n, Complex{});
        for (std::size_t j = 0; j < k; ++j)
            detail::axpy<false>(y[j], v[j].data(), dx.data(), n);
        VectorC& xc = x[col];
        if (precond) {
            precond(dx, z);
            for (std::size_t i = 0; i < n; ++i) xc[i] += z[i];
        } else {
            for (std::size_t i = 0; i < n; ++i) xc[i] += dx[i];
        }
    };

    // `sid` is kStreamNone when recording is off, making each append site a
    // single compare; the recorder only reads solver state, so results are
    // bitwise identical either way.
    const std::size_t sid = obs::streams_enabled()
                                ? obs::stream_open("gmres.residual")
                                : obs::kStreamNone;

    auto any_active = [&]() {
        for (std::size_t i = 0; i < p; ++i)
            if (!done[i]) return true;
        return false;
    };

    double prev_worst = std::numeric_limits<double>::infinity();
    std::size_t stalled_cycles = 0;
    bool breakdown = false;
    while (any_active() && !breakdown &&
           res.iterations < opt.max_iterations) {
        // Seed the shared basis with the worst active column's residual; the
        // other active columns' least-squares problems ride the same basis
        // through one extra inner product per Arnoldi step.
        std::size_t seed = p;
        for (std::size_t i = 0; i < p; ++i)
            if (!done[i] && (seed == p || relres[i] > relres[seed])) seed = i;
        const double beta = norm2(r[seed]);
        if (beta == 0.0) break; // exact x with nonzero reported relres: stop
        ++res.cycles;
        if (sid != obs::kStreamNone)
            obs::stream_mark(sid, static_cast<double>(res.iterations),
                             "cycle");
        v.assign(1, r[seed]);
        for (std::size_t i = 0; i < n; ++i) v[0][i] /= beta;
        g.assign(m + 1, Complex{});
        g[0] = beta;

        // Per non-seed active column: chat holds the rotated projection
        // coefficients of r_i onto the basis (Q_k <V, r_i>), sumsq the raw
        // |<v_t, r_i>|^2 total. The in-basis least-squares residual estimate
        // is then sqrt(orth^2 + |tail|^2) with orth^2 = |r_i|^2 - sumsq, the
        // part of r_i the seed's Krylov space has not captured (yet).
        std::vector<VectorC> chat(p);
        std::vector<double> sumsq(p, 0.0);
        std::vector<bool> riding(p, false);
        for (std::size_t i = 0; i < p; ++i) {
            if (done[i] || i == seed) continue;
            riding[i] = true;
            chat[i].assign(m + 1, Complex{});
            chat[i][0] = detail::dotc(v[0].data(), r[i].data(), n);
            sumsq[i] = std::norm(chat[i][0]);
        }
        auto column_estimate = [&](std::size_t i, std::size_t k) {
            if (i == seed) return std::abs(g[k]) / bnorm[i];
            const double rn2 = relres[i] * bnorm[i] * relres[i] * bnorm[i];
            const double orth2 = std::max(0.0, rn2 - sumsq[i]);
            return std::sqrt(orth2 + std::norm(chat[i][k])) / bnorm[i];
        };
        std::size_t k = 0;
        bool basis_exhausted = false;
        while (k < m && res.iterations < opt.max_iterations) {
            const std::size_t j = k;
            if (precond) {
                precond(v[j], z);
                a(z, w);
            } else {
                a(v[j], w);
            }
            ++res.matvecs;
            ++res.iterations;
            double hcol2 = 0.0; // |A M^{-1} v_j|^2, for the exhaustion guard
            // Modified Gram-Schmidt through the multiply-add kernels
            // (bitwise the std::complex loops, without their NaN branch).
            for (std::size_t i = 0; i <= j; ++i) {
                const Complex hij = detail::dotc(v[i].data(), w.data(), n);
                h[i][j] = hij;
                hcol2 += std::norm(hij);
                detail::axpy<true>(hij, v[i].data(), w.data(), n);
            }
            const double hnext = norm2(w);
            hcol2 += hnext * hnext;
            // Riding columns can hold a cycle open past the point where the
            // Krylov space saturates (hnext a round-off sliver of the column
            // norm); further Arnoldi vectors are noise and would poison the
            // shared triangular factor, so commit what the basis has.
            basis_exhausted = hnext * hnext <= 1e-28 * hcol2;
            for (std::size_t i = 0; i < j; ++i) {
                const Complex t0 = h[i][j];
                const Complex t1 = h[i + 1][j];
                h[i][j] = cs[i] * t0 + sn[i] * t1;
                h[i + 1][j] = -std::conj(sn[i]) * t0 + cs[i] * t1;
            }
            const Complex hjj = h[j][j];
            const double denom = std::sqrt(std::norm(hjj) + hnext * hnext);
            if (denom == 0.0) {
                breakdown = true;
                break;
            }
            if (std::abs(hjj) == 0.0) {
                cs[j] = 0.0;
                sn[j] = 1.0;
            } else {
                cs[j] = std::abs(hjj) / denom;
                sn[j] = (hjj / std::abs(hjj)) * (hnext / denom);
            }
            h[j][j] = cs[j] * hjj + sn[j] * hnext;
            g[j + 1] = -std::conj(sn[j]) * g[j];
            g[j] = cs[j] * g[j];
            k = j + 1;
            if (hnext > 0.0) {
                v.push_back(w);
                VectorC& vn = v.back();
                for (std::size_t t = 0; t < n; ++t) vn[t] /= hnext;
                // Fold the new basis vector into every riding column:
                // one raw inner product, then rotation j on the
                // (chat[j], raw) pair — the same rotation that just
                // triangularized the seed's Hessenberg column.
                for (std::size_t i = 0; i < p; ++i) {
                    if (!riding[i]) continue;
                    const Complex raw =
                        detail::dotc(v.back().data(), r[i].data(), n);
                    sumsq[i] += std::norm(raw);
                    const Complex t0 = chat[i][j];
                    chat[i][j] = cs[j] * t0 + sn[j] * raw;
                    chat[i][j + 1] = -std::conj(sn[j]) * t0 + cs[j] * raw;
                }
            }
            if (sid != obs::kStreamNone)
                obs::stream_append(sid, static_cast<double>(res.iterations),
                                   column_estimate(seed, k));
            if (hnext == 0.0 || basis_exhausted) break; // commit below
            // The seed alone governs the cycle length. Riding columns must
            // never hold a cycle open past the seed's convergence: modified
            // Gram-Schmidt loses orthogonality at a rate inversely
            // proportional to the seed's residual, so Arnoldi vectors grown
            // beyond that point would feed the riding projections
            // re-acquired components of already-converged directions.
            // Columns the basis could not finish reseed in the next cycle.
            if (column_estimate(seed, k) <= est_tol[seed]) break;
        }
        if (breakdown && k == 0) break;

        // Commit the shared-basis least-squares update for every active
        // column, then refresh each with its true residual — one operator
        // application per column per cycle. The recomputation both verifies
        // convergence before deflating and resets recurrence round-off for
        // the next cycle's projections.
        std::vector<double> claimed(p, 0.0);
        std::vector<VectorC> x_save(p);
        for (std::size_t i = 0; i < p; ++i) {
            if (done[i] || (i != seed && !riding[i])) continue;
            claimed[i] = column_estimate(i, k);
            x_save[i] = x[i];
            commit_column(i, i == seed ? g : chat[i], k);
        }
        double worst_active = 0.0;
        VectorC r_new(n);
        for (std::size_t i = 0; i < p; ++i) {
            if (done[i] || (i != seed && !riding[i])) continue;
            a(x[i], w);
            ++res.matvecs;
            for (std::size_t t = 0; t < n; ++t) r_new[t] = b[i][t] - w[t];
            const double rel_new = norm2(r_new) / bnorm[i];
            if (rel_new > relres[i]) {
                // The shared-basis update made this column worse (round-off
                // on a nearly exhausted basis): discard it. The next cycle
                // reseeds from the intact residual.
                x[i] = x_save[i];
            } else {
                r[i] = r_new;
                relres[i] = rel_new;
            }
            res.residuals[i] = relres[i];
            if (relres[i] <= opt.tol) {
                done[i] = true;
                ++res.deflated;
                ++c_deflations;
                if (sid != obs::kStreamNone)
                    obs::stream_mark(sid,
                                     static_cast<double>(res.iterations),
                                     "deflate");
                continue;
            }
            if (claimed[i] <= est_tol[i]) {
                // The shared-basis estimate claimed convergence the true
                // residual disproves: tighten this column's target by the
                // observed gap so the next cycle works past the drift.
                ++res.estimate_retries;
                ++c_est_retries;
                double gap = claimed[i] / relres[i];
                if (!(gap > 0.0) || gap >= 1.0) gap = 0.1;
                est_tol[i] = std::min(est_tol[i], opt.tol * gap);
                if (sid != obs::kStreamNone)
                    obs::stream_mark(sid,
                                     static_cast<double>(res.iterations),
                                     "estimate_retry");
            }
            worst_active = std::max(worst_active, relres[i]);
        }
        if (worst_active > 0.0) {
            if (worst_active >= prev_worst) {
                if (++stalled_cycles >= 2) break; // no progress: stop burning
            } else {
                stalled_cycles = 0;
            }
            prev_worst = worst_active;
        }
    }

    res.worst_residual = 0.0;
    res.converged = true;
    for (std::size_t i = 0; i < p; ++i) {
        res.worst_residual = std::max(res.worst_residual, res.residuals[i]);
        if (res.residuals[i] > opt.tol) res.converged = false;
    }
    if (sid != obs::kStreamNone)
        obs::stream_append(sid, static_cast<double>(res.iterations),
                           res.worst_residual);
    c_iters.add(res.iterations);
    c_matvecs.add(res.matvecs);
    c_restarts.add(res.cycles);
    return res;
}

} // namespace pgsi

#include "numeric/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/robust.hpp"
#include "obs/metrics.hpp"

namespace pgsi {

namespace {

constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

// Keep the diagonal as pivot while |a_kk| ≥ kPivotTol·max|column|.
constexpr double kPivotTol = 0.1;

// Greedy minimum-degree ordering of the graph of A+Aᵀ (diagonal ignored):
// repeatedly eliminate the node of least current degree (ties to the lower
// index) and join its neighbours into a clique, the fill its elimination
// creates. The explicit elimination graph is the pattern of L+U, which stays
// small for circuit matrices.
std::vector<std::size_t> minimum_degree_order(const CscMatrix& a) {
    const std::size_t n = a.n;
    std::vector<std::vector<std::size_t>> adj(n);
    for (std::size_t j = 0; j < n; ++j)
        for (std::size_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
            const std::size_t i = a.row_idx[p];
            if (i == j) continue;
            adj[i].push_back(j);
            adj[j].push_back(i);
        }
    std::set<std::pair<std::size_t, std::size_t>> queue; // (degree, node)
    for (std::size_t v = 0; v < n; ++v) {
        std::sort(adj[v].begin(), adj[v].end());
        adj[v].erase(std::unique(adj[v].begin(), adj[v].end()), adj[v].end());
        queue.insert({adj[v].size(), v});
    }
    std::vector<std::size_t> order, merged;
    order.reserve(n);
    while (!queue.empty()) {
        const std::size_t v = queue.begin()->second;
        queue.erase(queue.begin());
        order.push_back(v);
        std::vector<std::size_t> clique;
        clique.swap(adj[v]);
        for (const std::size_t u : clique) {
            queue.erase({adj[u].size(), u});
            merged.clear();
            std::set_union(adj[u].begin(), adj[u].end(), clique.begin(),
                           clique.end(), std::back_inserter(merged));
            merged.erase(std::remove_if(merged.begin(), merged.end(),
                                        [&](std::size_t w) {
                                            return w == u || w == v;
                                        }),
                         merged.end());
            adj[u].swap(merged);
            queue.insert({adj[u].size(), u});
        }
    }
    return order;
}

} // namespace

CscMatrix CscMatrix::from_entries(std::size_t n,
                                  const std::vector<SparseEntry>& entries) {
    std::vector<std::size_t> idx(entries.size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        const SparseEntry& ea = entries[a];
        const SparseEntry& eb = entries[b];
        return ea.col != eb.col ? ea.col < eb.col : ea.row < eb.row;
    });
    CscMatrix m;
    m.n = n;
    m.col_ptr.assign(n + 1, 0);
    for (std::size_t k = 0; k < idx.size(); ++k) {
        const SparseEntry& e = entries[idx[k]];
        PGSI_REQUIRE(e.row < n && e.col < n, "CscMatrix: entry out of range");
        const bool repeat = k > 0 && entries[idx[k - 1]].col == e.col &&
                            entries[idx[k - 1]].row == e.row;
        if (!repeat) {
            m.row_idx.push_back(e.row);
            m.values.push_back(0.0);
            ++m.col_ptr[e.col + 1];
        }
        m.values.back() += e.value;
    }
    for (std::size_t j = 0; j < n; ++j) m.col_ptr[j + 1] += m.col_ptr[j];
    return m;
}

void CscMatrix::add(std::size_t i, std::size_t j, double v) {
    PGSI_REQUIRE(j < n, "CscMatrix::add: column out of range");
    const auto begin = row_idx.begin();
    const auto last = begin + static_cast<std::ptrdiff_t>(col_ptr[j + 1]);
    const auto it = std::lower_bound(
        begin + static_cast<std::ptrdiff_t>(col_ptr[j]), last, i);
    PGSI_REQUIRE(it != last && *it == i,
                 "CscMatrix::add: entry outside the pattern");
    values[static_cast<std::size_t>(it - begin)] += v;
}

SparseLu::SparseLu(const CscMatrix& a)
    : n_(a.n), ap_(a.col_ptr), ai_(a.row_idx) {
    bool ok = a.col_ptr.size() == a.n + 1 && a.col_ptr.front() == 0 &&
              a.col_ptr.back() == a.nnz() && a.values.size() == a.nnz();
    for (std::size_t j = 0; ok && j < a.n; ++j)
        ok = a.col_ptr[j] <= a.col_ptr[j + 1];
    for (std::size_t i : a.row_idx) ok = ok && i < a.n;
    PGSI_REQUIRE(ok, "SparseLu: malformed CSC matrix");
    q_ = minimum_degree_order(a);
    factor(a);
}

void SparseLu::refactor(const CscMatrix& a) {
    PGSI_REQUIRE(a.n == n_ && a.col_ptr == ap_ && a.row_idx == ai_,
                 "SparseLu::refactor: pattern differs from the analyzed one");
    PGSI_REQUIRE(a.values.size() == a.nnz(), "SparseLu: malformed CSC matrix");
    factor(a);
}

// Depth-first search of L's graph from the rows of A(:, col): on return
// xi_[top..n) holds every row the triangular solve L·x = A(:, col) can fill,
// in topological order. Row j leads to the rows of L's column pinv_[j] once
// j is pivotal. Visit marks are the step number k, so nothing is cleared
// between columns.
std::size_t SparseLu::reach(const CscMatrix& a, std::size_t col, std::size_t k) {
    std::size_t top = n_;
    for (std::size_t p = a.col_ptr[col]; p < a.col_ptr[col + 1]; ++p) {
        if (mark_[a.row_idx[p]] == k) continue;
        std::size_t head = 0;
        stack_[0] = a.row_idx[p];
        for (;;) {
            const std::size_t v = stack_[head];
            const std::size_t vk = pinv_[v];
            if (mark_[v] != k) {
                mark_[v] = k;
                pstack_[head] = vk == npos ? 0 : lp_[vk];
            }
            const std::size_t end = vk == npos ? 0 : lp_[vk + 1];
            bool done = true;
            for (std::size_t q = pstack_[head]; q < end; ++q) {
                const std::size_t i = li_[q];
                if (mark_[i] == k) continue;
                pstack_[head] = q + 1; // resume here after the child
                stack_[++head] = i;
                done = false;
                break;
            }
            if (!done) continue;
            xi_[--top] = v;
            if (head == 0) break;
            --head;
        }
    }
    return top;
}

void SparseLu::factor(const CscMatrix& a) {
    factored_ = false;
    if (robust::FaultInjector::should_fire("lu.pivot"))
        throw NumericalError("sparse LU: matrix is singular (injected zero "
                             "pivot, fault site lu.pivot)");
    {
        static obs::Counter& factorizations = obs::counter("lu.factorizations");
        static obs::Histogram& sizes = obs::histogram("lu.n");
        ++factorizations;
        sizes.record(static_cast<double>(n_));
    }
    anorm1_ = 0;
    for (std::size_t j = 0; j < n_; ++j) {
        double s = 0;
        for (std::size_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p)
            s += std::abs(a.values[p]);
        anorm1_ = std::max(anorm1_, s);
    }
    flops_ = 0;
    pinv_.assign(n_, npos);
    lp_.assign(1, 0);
    up_.assign(1, 0);
    li_.clear();
    lx_.clear();
    ui_.clear();
    ux_.clear();
    x_.assign(n_, 0.0);
    xi_.resize(n_);
    stack_.resize(n_);
    pstack_.resize(n_);
    mark_.assign(n_, npos);

    for (std::size_t k = 0; k < n_; ++k) {
        const std::size_t col = q_[k];
        // x = L⁻¹·A(:, col) over the reach set, in topological order.
        const std::size_t top = reach(a, col, k);
        for (std::size_t p = a.col_ptr[col]; p < a.col_ptr[col + 1]; ++p)
            x_[a.row_idx[p]] = a.values[p];
        for (std::size_t p = top; p < n_; ++p) {
            const std::size_t j = xi_[p];
            const std::size_t jk = pinv_[j];
            if (jk == npos) continue;
            const double xj = x_[j];
            for (std::size_t q = lp_[jk]; q < lp_[jk + 1]; ++q)
                x_[li_[q]] -= lx_[q] * xj;
            flops_ += lp_[jk + 1] - lp_[jk];
        }
        // Pivotal rows go to U; the largest non-pivotal entry is the pivot
        // unless the diagonal is within the threshold.
        std::size_t ipiv = npos;
        double amax = 0;
        for (std::size_t p = top; p < n_; ++p) {
            const std::size_t i = xi_[p];
            if (pinv_[i] != npos) {
                ui_.push_back(pinv_[i]);
                ux_.push_back(x_[i]);
            } else if (std::abs(x_[i]) > amax) {
                amax = std::abs(x_[i]);
                ipiv = i;
            }
        }
        if (ipiv == npos)
            throw NumericalError("sparse LU: matrix is singular (no nonzero "
                                 "pivot in column " +
                                 std::to_string(col) + ")");
        if (pinv_[col] == npos && std::abs(x_[col]) >= kPivotTol * amax)
            ipiv = col;
        const double pivot = x_[ipiv];
        ui_.push_back(k);
        ux_.push_back(pivot);
        up_.push_back(ui_.size());
        pinv_[ipiv] = k;
        for (std::size_t p = top; p < n_; ++p) {
            const std::size_t i = xi_[p];
            if (pinv_[i] == npos) {
                li_.push_back(i);
                lx_.push_back(x_[i] / pivot);
            }
            x_[i] = 0;
        }
        lp_.push_back(li_.size());
    }
    // L's rows were recorded as matrix rows; renumber them in pivot order.
    for (std::size_t& i : li_) i = pinv_[i];
    factored_ = true;
}

std::vector<double> SparseLu::solve(const std::vector<double>& b) const {
    PGSI_REQUIRE(factored_, "SparseLu::solve: the last factorization failed");
    PGSI_REQUIRE(b.size() == n_, "SparseLu::solve: rhs size mismatch");
    static obs::Counter& solves = obs::counter("lu.solves");
    static obs::Counter& rhs_cols = obs::counter("lu.rhs_cols");
    ++solves;
    ++rhs_cols;
    // P·A·Q = L·U: y = P·b, L·z = y, U·w = z, x = Q·w.
    std::vector<double> y(n_);
    for (std::size_t i = 0; i < n_; ++i) y[pinv_[i]] = b[i];
    for (std::size_t j = 0; j < n_; ++j) {
        const double yj = y[j];
        for (std::size_t q = lp_[j]; q < lp_[j + 1]; ++q) y[li_[q]] -= lx_[q] * yj;
    }
    for (std::size_t j = n_; j-- > 0;) {
        const std::size_t d = up_[j + 1] - 1; // diagonal, last in column j
        y[j] /= ux_[d];
        const double yj = y[j];
        for (std::size_t q = up_[j]; q < d; ++q) y[ui_[q]] -= ux_[q] * yj;
    }
    std::vector<double> x(n_);
    for (std::size_t k = 0; k < n_; ++k) x[q_[k]] = y[k];
    return x;
}

std::vector<double>
SparseLu::solve_transpose(const std::vector<double>& b) const {
    PGSI_REQUIRE(factored_,
                 "SparseLu::solve_transpose: the last factorization failed");
    PGSI_REQUIRE(b.size() == n_,
                 "SparseLu::solve_transpose: rhs size mismatch");
    // Aᵀ = Q·Uᵀ·Lᵀ·P: c = Qᵀ·b, Uᵀ·d = c, Lᵀ·e = d, x = Pᵀ·e. Column j of U
    // (L) is row j of Uᵀ (Lᵀ), so both sweeps are dot products.
    std::vector<double> c(n_);
    for (std::size_t k = 0; k < n_; ++k) c[k] = b[q_[k]];
    for (std::size_t j = 0; j < n_; ++j) {
        const std::size_t d = up_[j + 1] - 1;
        double s = c[j];
        for (std::size_t q = up_[j]; q < d; ++q) s -= ux_[q] * c[ui_[q]];
        c[j] = s / ux_[d];
    }
    for (std::size_t j = n_; j-- > 0;) {
        double s = c[j];
        for (std::size_t q = lp_[j]; q < lp_[j + 1]; ++q) s -= lx_[q] * c[li_[q]];
        c[j] = s;
    }
    std::vector<double> x(n_);
    for (std::size_t i = 0; i < n_; ++i) x[i] = c[pinv_[i]];
    return x;
}

double SparseLu::condition_estimate() const {
    // Hager's 1-norm estimator for B = A⁻¹: alternate B·x and Bᵀ·ξ, following
    // the unit vector where the gradient of ‖Bx‖₁ is largest.
    if (n_ == 0) return 0;
    std::vector<double> x(n_, 1.0 / static_cast<double>(n_));
    double est = 0;
    std::size_t last_j = n_; // unit-vector index tried last
    for (int iter = 0; iter < 5; ++iter) {
        const std::vector<double> y = solve(x);
        double ynorm = 0;
        for (double v : y) ynorm += std::abs(v);
        est = std::max(est, ynorm);
        std::vector<double> xi(n_);
        for (std::size_t i = 0; i < n_; ++i) xi[i] = y[i] < 0 ? -1.0 : 1.0;
        const std::vector<double> z = solve_transpose(xi);
        std::size_t j = 0;
        double zmax = 0;
        for (std::size_t i = 0; i < n_; ++i)
            if (std::abs(z[i]) > zmax) {
                zmax = std::abs(z[i]);
                j = i;
            }
        if (j == last_j) break;
        double zx = 0;
        for (std::size_t i = 0; i < n_; ++i) zx += z[i] * x[i];
        if (zmax <= zx) break; // gradient is not improving: converged
        x.assign(n_, 0.0);
        x[j] = 1.0;
        last_j = j;
    }
    return anorm1_ * est;
}

} // namespace pgsi

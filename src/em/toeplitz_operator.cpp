#include "em/toeplitz_operator.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "em/hmatrix.hpp"
#include "numeric/gemm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pgsi {

namespace {

std::size_t grid_dim(long span) {
    return next_pow2(static_cast<std::size_t>(2 * span + 1));
}

} // namespace

ToeplitzFamily::ToeplitzFamily(Lattice lat, std::vector<double> table)
    : lat_(std::move(lat)),
      table_(std::move(table)),
      nx_(grid_dim(lat_.span_x)),
      ny_(grid_dim(lat_.span_y)),
      nz_(lat_.zs.empty() ? 1 : lat_.zs.size()),
      cols_(static_cast<std::size_t>(lat_.span_x) + 1),
      fx_(nx_),
      fy_(ny_) {
    PGSI_REQUIRE(lat_.uniform, "ToeplitzFamily: lattice is not uniform");
    if (lat_.count() == 0) return;
    PGSI_REQUIRE(table_.size() == lat_.table_entries(),
                 "ToeplitzFamily: table size does not match the lattice");
    PGSI_TRACE_SCOPE("toeplitz.family_setup");

    site_.resize(lat_.count());
    live_rows_.assign(lat_.zs.size(), std::vector<unsigned char>(ny_, 0));
    for (std::size_t e = 0; e < lat_.count(); ++e) {
        const std::size_t gx = static_cast<std::size_t>(lat_.ix[e] - lat_.min_x);
        const std::size_t gy = static_cast<std::size_t>(lat_.iy[e] - lat_.min_y);
        site_[e] = gy * nx_ + gx;
        live_rows_[static_cast<std::size_t>(lat_.zid[e])][gy] = 1;
    }

    // One circulant kernel spectrum per ordered (z_obs, z_src) layer pair.
    // Offsets are wrapped onto the grid; because nx >= 2*span_x+1 (same in y)
    // the circular convolution of any two occupied sites lands on the true
    // displacement entry, never on a wrapped alias.
    const std::size_t nz = lat_.zs.size();
    kernel_hat_.assign(nz * nz, VectorC());
    for (std::size_t zo = 0; zo < nz; ++zo) {
        for (std::size_t zs = 0; zs < nz; ++zs) {
            VectorC k(nx_ * ny_, Complex{});
            for (long dj = -lat_.span_y; dj <= lat_.span_y; ++dj) {
                const std::size_t gj = static_cast<std::size_t>(
                    (dj + static_cast<long>(ny_)) % static_cast<long>(ny_));
                for (long di = -lat_.span_x; di <= lat_.span_x; ++di) {
                    const std::size_t gi = static_cast<std::size_t>(
                        (di + static_cast<long>(nx_)) % static_cast<long>(nx_));
                    k[gj * nx_ + gi] = table_[table_offset_index(lat_, di, dj, zo, zs)];
                }
            }
            fft_2d(k.data(), ny_, nx_, fy_, fx_, false);
            kernel_hat_[zo * nz + zs] = std::move(k);
        }
    }
}

void ToeplitzFamily::apply(const Complex* x, Complex* y) const {
    const std::size_t count = lat_.count();
    if (count == 0) return;
    const std::size_t nz = lat_.zs.size();
    const std::size_t cells = nx_ * ny_;

    // Scatter each source layer to its grid and transform it once.
    std::vector<VectorC> ghat(nz, VectorC(cells, Complex{}));
    for (std::size_t e = 0; e < count; ++e)
        ghat[static_cast<std::size_t>(lat_.zid[e])][site_[e]] = x[e];
    for (std::size_t zs = 0; zs < nz; ++zs)
        fft_2d(ghat[zs].data(), ny_, nx_, fy_, fx_, false,
               live_rows_[zs].data());

    VectorC acc(cells);
    for (std::size_t zo = 0; zo < nz; ++zo) {
        // acc_hat = sum_zs K_hat(zo, zs) .* g_hat(zs), accumulated from +0
        // in zs order, then back-transformed.
        const auto multiply = [&](std::size_t b, std::size_t e) {
            std::fill(acc.begin() + static_cast<std::ptrdiff_t>(b),
                      acc.begin() + static_cast<std::ptrdiff_t>(e), Complex{});
            double* a = reinterpret_cast<double*>(acc.data());
            for (std::size_t zs = 0; zs < nz; ++zs) {
                const Complex* kh = kernel_hat_[zo * nz + zs].data();
                const double* g = reinterpret_cast<const double*>(ghat[zs].data());
                for (std::size_t k = b; k < e; ++k)
                    detail::complex_madd<false>(a + 2 * k, kh[k].real(),
                                                kh[k].imag(), g + 2 * k);
            }
        };
        if (splits())
            par::parallel_for_chunked(cells, 0, multiply);
        else
            multiply(0, cells);
        fft_2d(acc.data(), ny_, nx_, fy_, fx_, true, nullptr, cols_);
        for (std::size_t e = 0; e < count; ++e)
            if (static_cast<std::size_t>(lat_.zid[e]) == zo) y[e] = acc[site_[e]];
    }
}

InteractionOperator InteractionOperator::toeplitz(
    std::vector<ToeplitzFamily> families,
    std::vector<std::vector<std::size_t>> idx, std::size_t size) {
    PGSI_REQUIRE(families.size() == idx.size(),
                 "InteractionOperator: one index map per family required");
    InteractionOperator op;
    op.size_ = size;
    op.families_ = std::move(families);
    op.idx_ = std::move(idx);
    op.family_of_.assign(size, -1);
    op.local_of_.assign(size, 0);
    for (std::size_t f = 0; f < op.families_.size(); ++f) {
        PGSI_REQUIRE(op.idx_[f].size() == op.families_[f].count(),
                     "InteractionOperator: index map size mismatch");
        for (std::size_t e = 0; e < op.idx_[f].size(); ++e) {
            const std::size_t g = op.idx_[f][e];
            PGSI_REQUIRE(g < size && op.family_of_[g] < 0,
                         "InteractionOperator: families must partition the index space");
            op.family_of_[g] = static_cast<int>(f);
            op.local_of_[g] = e;
        }
    }
    for (std::size_t g = 0; g < size; ++g)
        PGSI_REQUIRE(op.family_of_[g] >= 0,
                     "InteractionOperator: families must cover the index space");
    return op;
}

InteractionOperator InteractionOperator::hmatrix(
    std::vector<std::shared_ptr<const Hmatrix>> parts,
    std::vector<std::vector<std::size_t>> idx, std::size_t size) {
    PGSI_REQUIRE(parts.size() == idx.size(),
                 "InteractionOperator: one index map per H-matrix required");
    InteractionOperator op;
    op.size_ = size;
    op.hmats_ = std::move(parts);
    op.idx_ = std::move(idx);
    op.family_of_.assign(size, -1);
    op.local_of_.assign(size, 0);
    for (std::size_t f = 0; f < op.hmats_.size(); ++f) {
        PGSI_REQUIRE(op.hmats_[f] != nullptr,
                     "InteractionOperator: null H-matrix part");
        PGSI_REQUIRE(op.idx_[f].size() == op.hmats_[f]->size(),
                     "InteractionOperator: index map size mismatch");
        for (std::size_t e = 0; e < op.idx_[f].size(); ++e) {
            const std::size_t g = op.idx_[f][e];
            PGSI_REQUIRE(g < size && op.family_of_[g] < 0,
                         "InteractionOperator: families must partition the index space");
            op.family_of_[g] = static_cast<int>(f);
            op.local_of_[g] = e;
        }
    }
    for (std::size_t g = 0; g < size; ++g)
        PGSI_REQUIRE(op.family_of_[g] >= 0,
                     "InteractionOperator: families must cover the index space");
    return op;
}

void InteractionOperator::apply(const VectorC& x, VectorC& y) const {
    apply_pair(*this, x, y, nullptr, nullptr, nullptr);
}

void InteractionOperator::apply_pair(const InteractionOperator& a,
                                     const VectorC& xa, VectorC& ya,
                                     const InteractionOperator& b,
                                     const VectorC& xb, VectorC& yb) {
    apply_pair(a, xa, ya, &b, &xb, &yb);
}

bool InteractionOperator::family_tasks() const {
    if (!hmats_.empty()) return false;
    for (const ToeplitzFamily& fam : families_)
        if (fam.splits()) return false;
    return true;
}

void InteractionOperator::apply_family(std::size_t f, const VectorC& x,
                                       VectorC& y) const {
    const std::vector<std::size_t>& map = idx_[f];
    VectorC xf(map.size()), yf(map.size(), Complex{});
    for (std::size_t e = 0; e < map.size(); ++e) xf[e] = x[map[e]];
    families_[f].apply(xf.data(), yf.data());
    for (std::size_t e = 0; e < map.size(); ++e) y[map[e]] = yf[e];
}

void InteractionOperator::apply_pair(const InteractionOperator& a,
                                     const VectorC& xa, VectorC& ya,
                                     const InteractionOperator* b,
                                     const VectorC* xb, VectorC* yb) {
    // Toeplitz forms on grids that fit one chunk: every family of both
    // operators is one task of a single dispatch (families write disjoint
    // entries). Anything else applies operator by operator.
    if (a.family_tasks() && (!b || b->family_tasks())) {
        static obs::Counter& c_fft =
            obs::counter("interaction_op.fft_applies");
        const InteractionOperator* ops[2] = {&a, b};
        const VectorC* xs[2] = {&xa, xb};
        VectorC* ys[2] = {&ya, yb};
        for (int k = 0; k < (b ? 2 : 1); ++k) {
            PGSI_REQUIRE(xs[k]->size() == ops[k]->size_,
                         "InteractionOperator: size mismatch");
            ys[k]->assign(ops[k]->size_, Complex{});
            ++c_fft;
        }
        const std::size_t na = a.families_.size();
        const std::size_t tasks = na + (b ? b->families_.size() : 0);
        const auto task = [&](std::size_t t) {
            if (t < na)
                a.apply_family(t, xa, ya);
            else
                b->apply_family(t - na, *xb, *yb);
        };
        if (tasks > 1)
            par::parallel_for(tasks, task);
        else if (tasks == 1)
            task(0);
        return;
    }
    a.apply_one(xa, ya);
    if (b) b->apply_one(*xb, *yb);
}

void InteractionOperator::apply_one(const VectorC& x, VectorC& y) const {
    PGSI_REQUIRE(x.size() == size_, "InteractionOperator: size mismatch");
    y.assign(size_, Complex{});
    if (!hmats_.empty()) {
        static obs::Counter& c_hm = obs::counter("interaction_op.hmatrix_applies");
        ++c_hm;
        VectorC xh, yh;
        for (std::size_t f = 0; f < hmats_.size(); ++f) {
            const std::vector<std::size_t>& map = idx_[f];
            xh.resize(map.size());
            yh.assign(map.size(), Complex{});
            for (std::size_t e = 0; e < map.size(); ++e) xh[e] = x[map[e]];
            hmats_[f]->apply(xh.data(), yh.data());
            for (std::size_t e = 0; e < map.size(); ++e) y[map[e]] = yh[e];
        }
        return;
    }
    // Toeplitz families whose grids split their transforms over the pool
    // take it one family at a time.
    static obs::Counter& c_fft = obs::counter("interaction_op.fft_applies");
    ++c_fft;
    for (std::size_t f = 0; f < families_.size(); ++f) apply_family(f, x, y);
}

double InteractionOperator::entry(std::size_t i, std::size_t j) const {
    PGSI_ASSERT(i < size_ && j < size_);
    if (family_of_[i] != family_of_[j]) return 0.0;
    const std::size_t f = static_cast<std::size_t>(family_of_[i]);
    if (!hmats_.empty()) return hmats_[f]->entry(local_of_[i], local_of_[j]);
    return families_[f].entry(local_of_[i], local_of_[j]);
}

} // namespace pgsi

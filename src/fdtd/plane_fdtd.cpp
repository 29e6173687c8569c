#include "fdtd/plane_fdtd.hpp"

#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pgsi {

PlaneFdtd::PlaneFdtd(const PlaneFdtdOptions& options) : opt_(options) {
    PGSI_REQUIRE(opt_.lx > 0 && opt_.ly > 0, "PlaneFdtd: plane extents must be > 0");
    PGSI_REQUIRE(opt_.separation > 0, "PlaneFdtd: separation must be > 0");
    PGSI_REQUIRE(opt_.nx >= 4 && opt_.ny >= 4, "PlaneFdtd: grid too coarse");
    dx_ = opt_.lx / static_cast<double>(opt_.nx);
    dy_ = opt_.ly / static_cast<double>(opt_.ny);
    ls_ = mu0 * opt_.separation;
    ca_ = eps0 * opt_.eps_r / opt_.separation;
    const double v = 1.0 / std::sqrt(ls_ * ca_);
    const double cfl = 1.0 / (v * std::sqrt(1.0 / (dx_ * dx_) + 1.0 / (dy_ * dy_)));
    dt_ = opt_.dt > 0 ? opt_.dt : 0.9 * cfl;
    PGSI_REQUIRE(dt_ <= cfl, "PlaneFdtd: dt violates the CFL limit");
}

std::size_t PlaneFdtd::add_port(Point2 p, double r, Source src) {
    PGSI_REQUIRE(r > 0, "PlaneFdtd: port resistance must be positive");
    const auto ix = static_cast<std::size_t>(
        std::min(opt_.nx - 1.0, std::max(0.0, std::floor(p.x / dx_))));
    const auto iy = static_cast<std::size_t>(
        std::min(opt_.ny - 1.0, std::max(0.0, std::floor(p.y / dy_))));
    ports_.push_back({ix, iy, r, std::move(src)});
    return ports_.size() - 1;
}

PlaneFdtdResult PlaneFdtd::run(double tstop) {
    PGSI_REQUIRE(tstop > dt_, "PlaneFdtd: tstop must exceed dt");
    PGSI_TRACE_SCOPE("fdtd.run");
    const std::size_t nx = opt_.nx, ny = opt_.ny;
    // V at cell centers; Jx on vertical edges between x-neighbours
    // (nx-1)*ny; Jy on horizontal edges nx*(ny-1). Edge currents at the plane
    // boundary stay zero (open boundary).
    std::vector<double> v(nx * ny, 0.0);
    std::vector<double> jx((nx - 1) * ny, 0.0);
    std::vector<double> jy(nx * (ny - 1), 0.0);
    auto vid = [nx](std::size_t i, std::size_t j) { return j * nx + i; };
    auto xid = [nx](std::size_t i, std::size_t j) { return j * (nx - 1) + i; };
    auto yid = [nx](std::size_t i, std::size_t j) { return j * nx + i; };

    const double rs = opt_.sheet_resistance;
    // Current update with loss folded in semi-implicitly:
    //   J_new = ((1 - a)·J_old - (dt/Ls)·dV/dx) / (1 + a),  a = Rs·dt/(2·Ls).
    const double a = rs * dt_ / (2.0 * ls_);
    const double c1 = (1.0 - a) / (1.0 + a);
    const double c2 = (dt_ / ls_) / (1.0 + a);
    const double area = dx_ * dy_;

    PlaneFdtdResult res;
    res.port_voltage.resize(ports_.size());

    const auto steps = static_cast<std::size_t>(std::ceil(tstop / dt_));
    for (std::size_t step = 0; step < steps; ++step) {
        const double t = step * dt_;

        // Update currents from the voltage gradient (leapfrog half step).
        for (std::size_t j = 0; j < ny; ++j)
            for (std::size_t i = 0; i + 1 < nx; ++i) {
                const double dv = (v[vid(i + 1, j)] - v[vid(i, j)]) / dx_;
                double& cur = jx[xid(i, j)];
                cur = c1 * cur - c2 * dv;
            }
        for (std::size_t j = 0; j + 1 < ny; ++j)
            for (std::size_t i = 0; i < nx; ++i) {
                const double dv = (v[vid(i, j + 1)] - v[vid(i, j)]) / dy_;
                double& cur = jy[yid(i, j)];
                cur = c1 * cur - c2 * dv;
            }

        // Save the pre-update voltage of port cells: the lumped-port term
        // must be integrated *simultaneously* with the field divergence
        // (Piket-May form). Applying it as a separate pass after the field
        // update effectively scales the divergence by (1-β/2)/(1+β/2) and
        // goes unstable once β = dt/(Ca·ΔA·R) exceeds 2 (small cells, low R).
        std::vector<double> v_before(ports_.size());
        for (std::size_t p = 0; p < ports_.size(); ++p)
            v_before[p] = v[vid(ports_[p].ix, ports_[p].iy)];

        // Update voltages from the current divergence.
        for (std::size_t j = 0; j < ny; ++j)
            for (std::size_t i = 0; i < nx; ++i) {
                double div = 0;
                if (i + 1 < nx) div += jx[xid(i, j)] / dx_;
                if (i > 0) div -= jx[xid(i - 1, j)] / dx_;
                if (j + 1 < ny) div += jy[yid(i, j)] / dy_;
                if (j > 0) div -= jy[yid(i, j - 1)] / dy_;
                v[vid(i, j)] -= dt_ / ca_ * div;
            }

        // Lumped ports: Ca·ΔA·dV/dt = -divJ·ΔA + (Vs - (V_old+V_new)/2)/R,
        // solved simultaneously for V_new:
        //   V_new = [ V_old·(1-β/2) + D + β·Vs ] / (1+β/2),
        // where D is the divergence increment already applied above.
        for (std::size_t p = 0; p < ports_.size(); ++p) {
            const FdtdPort& port = ports_[p];
            double& vn = v[vid(port.ix, port.iy)];
            const double d = vn - v_before[p];
            const double vs = port.src.value(t + dt_);
            const double beta = dt_ / (ca_ * area * port.r);
            vn = (v_before[p] * (1.0 - 0.5 * beta) + d + beta * vs) /
                 (1.0 + 0.5 * beta);
        }

        res.time.push_back(t + dt_);
        for (std::size_t p = 0; p < ports_.size(); ++p)
            res.port_voltage[p].push_back(v[vid(ports_[p].ix, ports_[p].iy)]);
    }
    res.stats.steps = steps;
    res.stats.cells = nx * ny;
    static obs::Counter& step_counter = obs::counter("fdtd.steps");
    step_counter.add(steps);
    return res;
}

} // namespace pgsi

// pgsi_ssn — run a full SSN transient on a board file.
//
//   pgsi_ssn <board-file> [--pitch 10m] [--interior 16] [--prune 0.02]
//            [--dt 25p] [--tstop 8n] [--csv out.csv] [--optimize N]
//
// Prints per-site peak noise; with --csv, dumps the die-supply waveforms;
// with --optimize N, greedily ranks up to N of the board's decap candidates.
// With --report, also sweeps the plane impedance at the driver pins through
// the iterative backend so the flight recorder captures a GMRES residual
// stream alongside the transient's Newton streams.
#include <cstdio>

#include "em/solver.hpp"
#include "io/csv.hpp"
#include "si/board_file.hpp"
#include "si/decap_opt.hpp"
#include "si/ssn.hpp"
#include "tools/cli_common.hpp"

using namespace pgsi;

namespace {
constexpr const char* kUsage =
    "pgsi_ssn <board-file> [--pitch m] [--interior n] [--prune x]\n"
    "         [--dt s] [--tstop s] [--csv out.csv] [--optimize N]\n"
    "         [--profile] [--trace-json out.json] [--report out.json]";

// Z(f) at the driver Vcc pins through the iterative (GMRES) backend, for
// the report's "zprofile" section. A handful of points is enough to record
// the solver's convergence behavior on this mesh.
void report_zprofile(obs::SolveReportBuilder& rep, const Board& board,
                     const PlaneModel& plane) {
    if (board.driver_sites().empty()) return;
    std::vector<std::size_t> ports;
    for (const DriverSite& site : board.driver_sites())
        ports.push_back(plane.bem().mesh().nearest_node_any(site.vcc_pin));
    SolverOptions sopt;
    sopt.backend = SolverBackend::Iterative;
    const auto solver = make_solver(
        plane.bem(), SurfaceImpedance::from_sheet_resistance(
                         board.stackup().sheet_resistance),
        sopt);
    const VectorD freqs{10e6, 100e6, 1e9};
    const std::vector<MatrixC> z = solver->sweep_impedance(freqs, ports);
    rep.add_number("zprofile", "ports", static_cast<double>(ports.size()));
    rep.add_number("zprofile", "freqs", static_cast<double>(freqs.size()));
    double zmax = 0;
    for (std::size_t k = 0; k < freqs.size(); ++k)
        for (std::size_t i = 0; i < ports.size(); ++i)
            zmax = std::max(zmax, std::abs(z[k](i, i)));
    rep.add_number("zprofile", "max_self_z_ohm", zmax);
}

} // namespace

int main(int argc, char** argv) {
    return cli::run_tool(
        [&]() -> int {
            const cli::Args args(argc, argv,
                                 cli::ObsSession::flags({"pitch", "interior",
                                                         "prune", "dt", "tstop",
                                                         "csv", "optimize"}));
            cli::ObsSession obs_session(args, "pgsi_ssn", argc, argv);
            PGSI_REQUIRE(args.positional().size() == 1,
                         "expected exactly one board file");
            const Board board = load_board_file(args.positional()[0]);

            SsnModelOptions opt;
            opt.mesh_pitch = args.num("pitch", 10e-3);
            opt.interior_nodes =
                static_cast<std::size_t>(args.num("interior", 16));
            opt.prune_rel_tol = args.num("prune", 0.02);
            auto plane = std::make_shared<PlaneModel>(board, opt);

            const double dt = args.num("dt", 25e-12);
            const double tstop = args.num("tstop", 8e-9);

            const SsnModel model(plane);
            const TransientResult r = model.simulate(dt, tstop);
            // --profile and --report turn span recording on; the transient's
            // wall time is its transient.run span.
            const double transient_s =
                obs::leaf_seconds(obs::span_totals(), "transient.run");

            if (obs::SolveReportBuilder* rep = obs_session.report()) {
                rep->add_text("model", "board", args.positional()[0]);
                rep->add_number("model", "mesh_cells",
                                static_cast<double>(plane->bem().node_count()));
                rep->add_number(
                    "model", "circuit_nodes",
                    static_cast<double>(plane->circuit().node_count()));
                rep->add_number(
                    "model", "circuit_branches",
                    static_cast<double>(plane->circuit().branches.size()));
                rep->add_number(
                    "model", "driver_sites",
                    static_cast<double>(board.driver_sites().size()));
                rep->add_number("transient", "dt_s", dt);
                rep->add_number("transient", "tstop_s", tstop);
                rep->add_number("transient", "steps",
                                static_cast<double>(r.stats.steps));
                rep->add_number(
                    "transient", "newton_iterations",
                    static_cast<double>(r.stats.newton_iterations));
                rep->add_number("transient", "step_rejections",
                                static_cast<double>(r.stats.step_rejections));
                rep->add_number("transient", "lu_factorizations",
                                static_cast<double>(r.stats.lu_factorizations));
                rep->add_number("transient", "lu_nnz",
                                static_cast<double>(r.stats.lu_nnz));
                rep->add_number("transient", "factor_flops",
                                static_cast<double>(r.stats.factor_flops));
                rep->add_number("transient", "lu_solves",
                                static_cast<double>(r.stats.lu_solves));
                rep->add_number("transient", "wall_seconds", transient_s);
                rep->add_recoveries(r.recovery);
                report_zprofile(*rep, board, *plane);
            }

            if (args.has("profile"))
                std::printf("transient: %zu steps, %zu Newton iterations, "
                            "%zu rejections, %zu LU factorizations "
                            "(nnz(L+U) = %zu, %zu multiply-adds), "
                            "%zu solves, %.3f s\n\n",
                            r.stats.steps, r.stats.newton_iterations,
                            r.stats.step_rejections, r.stats.lu_factorizations,
                            r.stats.lu_nnz, r.stats.factor_flops,
                            r.stats.lu_solves, transient_s);

            std::printf("%-12s %-16s %-16s %-16s\n", "site",
                        "gnd bounce [mV]", "Vcc droop [mV]", "plane [mV]");
            double worst_g = 0, worst_v = 0, worst_p = 0;
            for (std::size_t s = 0; s < board.driver_sites().size(); ++s) {
                const double g = r.peak_excursion(model.die_gnd(s));
                const double v = r.peak_excursion(model.die_vcc(s));
                const double p = r.peak_excursion(model.board_vcc(s));
                std::printf("%-12s %-16.1f %-16.1f %-16.1f\n",
                            board.driver_sites()[s].name.c_str(), g * 1e3,
                            v * 1e3, p * 1e3);
                worst_g = std::max(worst_g, g);
                worst_v = std::max(worst_v, v);
                worst_p = std::max(worst_p, p);
            }
            std::printf("%-12s %-16.1f %-16.1f %-16.1f\n", "WORST",
                        worst_g * 1e3, worst_v * 1e3, worst_p * 1e3);

            if (obs::SolveReportBuilder* rep = obs_session.report()) {
                rep->add_number("noise", "worst_gnd_bounce_v", worst_g);
                rep->add_number("noise", "worst_vcc_droop_v", worst_v);
                rep->add_number("noise", "worst_plane_v", worst_p);
            }

            if (args.has("csv")) {
                std::vector<std::string> headers{"t_s"};
                std::vector<VectorD> cols{r.time};
                for (std::size_t s = 0; s < board.driver_sites().size(); ++s) {
                    headers.push_back(board.driver_sites()[s].name + "_vcc");
                    cols.push_back(r.waveform(model.die_vcc(s)));
                    headers.push_back(board.driver_sites()[s].name + "_gnd");
                    cols.push_back(r.waveform(model.die_gnd(s)));
                }
                write_csv_file(args.str("csv", ""), headers, cols);
                std::printf("wrote waveforms: %s\n", args.str("csv", "").c_str());
            }

            if (args.has("optimize")) {
                const auto budget =
                    static_cast<std::size_t>(args.num("optimize", 4));
                const DecapPlacementResult res =
                    optimize_decap_placement(plane, budget, dt, tstop);
                std::printf("\ndecap optimization (baseline plane noise "
                            "%.1f mV):\n",
                            res.baseline_noise * 1e3);
                for (std::size_t i = 0; i < res.picks.size(); ++i) {
                    const Decap& d = board.decaps()[res.picks[i].candidate];
                    std::printf("  pick %zu: decap #%zu at (%.0f, %.0f) mm -> "
                                "%.1f mV\n",
                                i + 1, res.picks[i].candidate, d.pos.x * 1e3,
                                d.pos.y * 1e3, res.picks[i].noise_after * 1e3);
                }
                if (res.picks.empty())
                    std::printf("  no candidate improves the noise\n");
            }
            return 0;
        },
        kUsage);
}

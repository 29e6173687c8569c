// ssn_postlayout: the paper's headline flow (§6.2 example 2) on seeded
// post-layout boards — plane extraction, the monolithic SSN netlist, and a
// 20 ns transient at 50 ps.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuit/mna.hpp"
#include "extract/equivalent_circuit.hpp"
#include "si/cosim.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pgsi;

namespace {

const char* const kName = "ssn_postlayout";

// A seed selects kBoardsPerRound boards out of a pool of kBoardPool
// make_postlayout_board seeds; refs/ssn_postlayout.json holds the outputs of
// every board in the pool.
constexpr unsigned kBoardSeed0 = 1998;
constexpr std::size_t kBoardPool = 24;
constexpr std::size_t kBoardsPerRound = 4;
constexpr std::size_t kLedgerBoards = 2;

// Left out of the pool: at prune_rel_tol 0.08 the reduced circuit of board
// 2008 falls into two components, with the VRM port cut off from every
// driver and decap port. Its drivers then see no supply and every SSN peak
// is exactly 0, which is no result to time or check against.
constexpr unsigned kDisconnectedBoard = 2008;

/// The k-th board seed of the pool.
unsigned pool_board(std::size_t k) {
    const unsigned s = kBoardSeed0 + static_cast<unsigned>(k);
    return s < kDisconnectedBoard ? s : s + 1;
}

constexpr double kDt = 50e-12;
constexpr double kTstop = 20e-9;
constexpr std::size_t kSteps = 400; // kTstop / kDt

// SSN peaks may move by 1e-6 relative under a legitimate algorithm change
// (the MNA and extraction gates are far tighter); a real break moves them
// by percent.
constexpr double kPeakTol = 1e-6;

SsnModelOptions e6_options() {
    SsnModelOptions o;
    o.mesh_pitch = 8e-3;
    o.interior_nodes = 8;
    o.prune_rel_tol = 0.08;
    return o;
}

std::vector<unsigned> board_seeds(unsigned long long seed, std::size_t count) {
    SplitMix64 rng(seed);
    const std::vector<std::size_t> p = permutation(kBoardPool, rng);
    std::vector<unsigned> out;
    for (std::size_t i = 0; i < count; ++i) out.push_back(pool_board(p[i]));
    return out;
}

/// Worst excursion from the DC level over the run [V]. A non-finite probe
/// voltage anywhere in the run makes every peak NaN, so that it can neither
/// hide behind std::max nor match a reference.
struct Peaks {
    double plane_noise = 0; ///< power plane at a driver's Vcc pin
    double gnd_bounce = 0;  ///< die ground
    double vcc_droop = 0;   ///< die Vcc

    void poison() { plane_noise = gnd_bounce = vcc_droop = NAN; }
};

using Refs = std::map<unsigned, Peaks>;

Refs read_refs(const RunConfig& cfg) {
    Refs refs;
    const JsonValue doc = load_refs(cfg, kName);
    for (const JsonValue& b : doc.at("boards").array) {
        const auto seed = static_cast<unsigned>(b.at("board_seed").number);
        refs[seed] = {b.at("plane_noise_v").number, b.at("gnd_bounce_v").number,
                      b.at("vcc_droop_v").number};
    }
    return refs;
}

bool matches(const Peaks& got, unsigned board_seed, const Refs& refs) {
    const auto it = refs.find(board_seed);
    if (it == refs.end()) {
        std::fprintf(stderr, "perfbench: no reference for board %u\n", board_seed);
        return false;
    }
    const Peaks& r = it->second;
    const bool ok = close_rel(got.plane_noise, r.plane_noise, kPeakTol) &&
                    close_rel(got.gnd_bounce, r.gnd_bounce, kPeakTol) &&
                    close_rel(got.vcc_droop, r.vcc_droop, kPeakTol);
    if (!ok)
        std::fprintf(stderr,
                     "perfbench: board %u off reference: plane %.9g/%.9g, gnd "
                     "%.9g/%.9g, vcc %.9g/%.9g\n",
                     board_seed, got.plane_noise, r.plane_noise, got.gnd_bounce,
                     r.gnd_bounce, got.vcc_droop, r.vcc_droop);
    return ok;
}

/// The flow a user runs: PlaneModel → SsnModel → simulate.
struct FlowResult {
    std::shared_ptr<const PlaneModel> plane;
    Peaks peaks;
    TransientStats stats;
};

FlowResult run_flow(const Board& board) {
    FlowResult out;
    out.plane = std::make_shared<const PlaneModel>(board, e6_options());
    const SsnModel model(out.plane);
    const TransientResult r = model.simulate(kDt, kTstop);
    for (std::size_t s = 0; s < board.driver_sites().size(); ++s) {
        out.peaks.plane_noise =
            std::max(out.peaks.plane_noise, r.peak_excursion(model.board_vcc(s)));
        out.peaks.gnd_bounce =
            std::max(out.peaks.gnd_bounce, r.peak_excursion(model.die_gnd(s)));
        out.peaks.vcc_droop =
            std::max(out.peaks.vcc_droop, r.peak_excursion(model.die_vcc(s)));
    }
    for (const VectorD& sample : r.samples)
        for (double v : sample)
            if (!std::isfinite(v)) out.peaks.poison();
    out.stats = r.stats;
    return out;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_circuit(const EquivalentCircuit& a, const EquivalentCircuit& b) {
    if (a.node_count() != b.node_count() || a.branches.size() != b.branches.size() ||
        a.node_position.size() != b.node_position.size() ||
        a.node_z.size() != b.node_z.size() || a.has_reference != b.has_reference)
        return false;
    for (std::size_t k = 0; k < a.node_count(); ++k)
        if (!same_bits(a.node_cap[k], b.node_cap[k])) return false;
    for (std::size_t k = 0; k < a.node_z.size(); ++k)
        if (!same_bits(a.node_z[k], b.node_z[k])) return false;
    for (std::size_t k = 0; k < a.node_position.size(); ++k)
        if (!same_bits(a.node_position[k].x, b.node_position[k].x) ||
            !same_bits(a.node_position[k].y, b.node_position[k].y))
            return false;
    for (std::size_t k = 0; k < a.branches.size(); ++k) {
        const RlcBranch& x = a.branches[k];
        const RlcBranch& y = b.branches[k];
        if (x.m != y.m || x.n != y.n || !same_bits(x.r, y.r) ||
            !same_bits(x.l, y.l) || !same_bits(x.c, y.c))
            return false;
    }
    return true;
}

/// The same flow with PlaneModel opened up: the lazy PlaneBem stages one by
/// one, then node selection and reduction, then a TransientStepper loop, with
/// a span around each call. The SsnModel is stamped from `plane`, the
/// untraced flow's model of the same board, so the traced unit repeats no
/// extraction.
struct TracedResult {
    EquivalentCircuit circuit;
    Peaks peaks;
    TransientStats stats;
    std::size_t kept_nodes = 0;
    std::size_t mna_nodes = 0;
    std::size_t mna_dim = 0;
};

TracedResult traced_flow(const Board& board,
                         const std::shared_ptr<const PlaneModel>& plane, int unit) {
    const SsnModelOptions opt = e6_options();
    TracedResult out;
    const Scope root("bench.unit", unit);

    // PlaneModel's meshing: the power plane above the ground-plane reference.
    ConductorShape vcc;
    vcc.outline = Polygon::rectangle(0, 0, board.width(), board.height());
    vcc.holes = board.power_plane_cutouts();
    vcc.z = board.stackup().plane_separation;
    vcc.sheet_resistance = board.stackup().sheet_resistance;
    vcc.name = "vcc";
    std::optional<RectMesh> mesh;
    {
        const Scope s("geometry.mesh", unit);
        mesh.emplace(std::vector<ConductorShape>{vcc}, opt.mesh_pitch);
    }
    std::optional<PlaneBem> bem;
    {
        const Scope s("em.bem_setup", unit);
        bem.emplace(std::move(*mesh), Greens::homogeneous(board.stackup().eps_r, true),
                    BemOptions{opt.testing, 2, 4});
    }
    {
        const Scope s("em.fill_p", unit);
        bem->potential_matrix();
    }
    {
        const Scope s("em.fill_l", unit);
        bem->inductance_matrix();
    }
    {
        const Scope s("em.cap_inverse", unit);
        bem->maxwell_capacitance();
    }
    {
        const Scope s("em.gamma", unit);
        bem->gamma();
    }
    {
        const Scope s("em.gdc", unit);
        bem->dc_conductance();
    }
    {
        const Scope s("extract.reduce", unit);
        const RectMesh& m = bem->mesh();
        std::vector<std::size_t> ports;
        for (const DriverSite& site : board.driver_sites())
            ports.push_back(m.nearest_node(site.vcc_pin, 0));
        for (const Decap& d : board.decaps()) ports.push_back(m.nearest_node(d.pos, 0));
        ports.push_back(m.nearest_node(board.vrm_location(), 0));
        const CircuitExtractor extractor(*bem,
                                         ExtractionOptions{opt.prune_rel_tol, true});
        const std::vector<std::size_t> keep =
            extractor.select_nodes(ports, opt.interior_nodes);
        out.circuit = extractor.extract(keep);
        out.kept_nodes = keep.size();
    }

    std::optional<SsnModel> model;
    {
        const Scope s("si.stamp", unit);
        model.emplace(plane);
    }
    out.mna_nodes = model->netlist().node_count();
    out.mna_dim = MnaLayout(model->netlist()).dim();

    std::optional<TransientStepper> stepper;
    {
        const Scope s("circuit.dcop", unit);
        stepper.emplace(model->netlist(), kDt);
    }
    const std::size_t nsites = board.driver_sites().size();
    std::vector<NodeId> probes;
    for (std::size_t s = 0; s < nsites; ++s) probes.push_back(model->board_vcc(s));
    for (std::size_t s = 0; s < nsites; ++s) probes.push_back(model->die_gnd(s));
    for (std::size_t s = 0; s < nsites; ++s) probes.push_back(model->die_vcc(s));
    std::vector<double> v0(probes.size()), peak(probes.size(), 0.0);
    bool finite = true;
    for (std::size_t k = 0; k < probes.size(); ++k) {
        v0[k] = stepper->node_voltage(probes[k]);
        finite = finite && std::isfinite(v0[k]);
    }
    for (std::size_t step = 0; step < kSteps; ++step) {
        {
            const Scope s("circuit.step", unit);
            stepper->step();
        }
        for (std::size_t k = 0; k < probes.size(); ++k) {
            const double v = stepper->node_voltage(probes[k]);
            finite = finite && std::isfinite(v);
            peak[k] = std::max(peak[k], std::abs(v - v0[k]));
        }
    }
    for (std::size_t s = 0; s < nsites; ++s) {
        out.peaks.plane_noise = std::max(out.peaks.plane_noise, peak[s]);
        out.peaks.gnd_bounce = std::max(out.peaks.gnd_bounce, peak[nsites + s]);
        out.peaks.vcc_droop = std::max(out.peaks.vcc_droop, peak[2 * nsites + s]);
    }
    if (!finite) out.peaks.poison();
    out.stats = stepper->stats();
    return out;
}

bool same_counts(const TransientStats& a, const TransientStats& b) {
    return a.steps == b.steps && a.lu_factorizations == b.lu_factorizations &&
           a.lu_solves == b.lu_solves && a.newton_iterations == b.newton_iterations &&
           a.step_rejections == b.step_rejections && a.timestep_cuts == b.timestep_cuts;
}

bool same_peaks(const Peaks& a, const Peaks& b) {
    return same_bits(a.plane_noise, b.plane_noise) &&
           same_bits(a.gnd_bounce, b.gnd_bounce) && same_bits(a.vcc_droop, b.vcc_droop);
}

struct Inputs {
    std::vector<unsigned> seeds;
    std::vector<Board> boards;
};

Inputs make_inputs(const RunConfig& cfg, std::size_t count) {
    Inputs in;
    in.seeds = board_seeds(cfg.seed, count);
    for (unsigned s : in.seeds) in.boards.push_back(make_postlayout_board(s));
    return in;
}

} // namespace

Outcome ssn_end_to_end(const RunConfig& cfg) {
    const Refs refs = read_refs(cfg);
    return closed_loop(
        cfg,
        [&] {
            pin_pool(cfg.threads);
            return make_inputs(cfg, kBoardsPerRound);
        },
        [&](const Inputs& in) {
            RoundResult rr;
            for (std::size_t i = 0; i < in.boards.size(); ++i) {
                const auto t0 = Clock::now();
                bool ok = false;
                try {
                    ok = matches(run_flow(in.boards[i]).peaks, in.seeds[i], refs);
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "perfbench: board %u threw: %s\n",
                                 in.seeds[i], e.what());
                }
                rr.latencies.push_back(seconds_since(t0));
                ++rr.attempted;
                if (!ok) ++rr.failed;
            }
            return rr;
        });
}

void ssn_ledger(const RunConfig& cfg, Outcome& out) {
    pin_pool(cfg.threads);
    const Inputs in = make_inputs(cfg, kLedgerBoards);
    const Refs refs = read_refs(cfg);
    Tracer& tr = tracer();

    // Per board: the untraced flow (tracing off; its model also feeds the
    // traced unit's SsnModel), then the traced flow at the pinned count.
    double untraced = 0;
    std::vector<FlowResult> flows;
    std::vector<TracedResult> traced;
    SpanRange pinned{tr.size(), tr.size()};
    for (std::size_t i = 0; i < in.boards.size(); ++i) {
        const auto t0 = Clock::now();
        flows.push_back(run_flow(in.boards[i]));
        untraced += seconds_since(t0);
        out.unit(matches(flows[i].peaks, in.seeds[i], refs));

        tr.enable(true);
        traced.push_back(traced_flow(in.boards[i], flows[i].plane, tr.new_unit()));
        tr.enable(false);
        out.unit(matches(traced[i].peaks, in.seeds[i], refs));
        const std::string b = "board " + std::to_string(in.seeds[i]);
        out.check(same_circuit(traced[i].circuit, flows[i].plane->circuit()),
                  b + ": traced extraction differs from PlaneModel's circuit");
        out.check(same_counts(traced[i].stats, flows[i].stats),
                  b + ": TransientStepper loop counts differ from SsnModel::simulate");
        out.check(same_peaks(traced[i].peaks, flows[i].peaks),
                  b + ": TransientStepper loop peaks differ from SsnModel::simulate");
    }
    pinned.last = tr.size();

    // The same traced units at one thread: the serial baseline. Results and
    // work counts must not depend on the thread count.
    pin_pool(1);
    SpanRange single{tr.size(), tr.size()};
    for (std::size_t i = 0; i < in.boards.size(); ++i) {
        tr.enable(true);
        const TracedResult t = traced_flow(in.boards[i], flows[i].plane, tr.new_unit());
        tr.enable(false);
        out.unit(matches(t.peaks, in.seeds[i], refs));
        const std::string b = "board " + std::to_string(in.seeds[i]);
        out.check(same_circuit(t.circuit, traced[i].circuit) &&
                      same_counts(t.stats, traced[i].stats) &&
                      same_peaks(t.peaks, traced[i].peaks) &&
                      t.kept_nodes == traced[i].kept_nodes &&
                      t.mna_nodes == traced[i].mna_nodes,
                  b + ": one-thread traced run differs from the pinned one");
    }
    single.last = tr.size();
    pin_pool(cfg.threads);

    auto total = [&](const char* name) {
        return tr.total_seconds(name, pinned.first, pinned.last);
    };
    std::size_t kept = 0, branches = 0, mna_nodes = 0, steps = 0, lus = 0, solves = 0;
    double gflop = 0;
    for (const TracedResult& t : traced) {
        kept += t.kept_nodes;
        branches += t.circuit.branches.size();
        mna_nodes += t.mna_nodes;
        steps += t.stats.steps;
        lus += t.stats.lu_factorizations;
        solves += t.stats.lu_solves;
        // Computed, not counted: dense LU of the MNA dimension n costs
        // 2n³/3 flops per factorization.
        const double n = static_cast<double>(t.mna_dim);
        gflop += static_cast<double>(t.stats.lu_factorizations) * (2.0 / 3.0) * n * n *
                 n * 1e-9;
    }
    out.add("geometry.mesh_s", total("geometry.mesh"), "s");
    out.add("em.fill_p_s", total("em.fill_p"), "s");
    out.add("em.fill_l_s", total("em.fill_l"), "s");
    out.add("em.cap_inverse_s", total("em.cap_inverse"), "s");
    out.add("em.gamma_s", total("em.gamma"), "s");
    out.add("em.gdc_s", total("em.gdc"), "s");
    out.add("extract.reduce_s", total("extract.reduce"), "s");
    out.add("extract.kept_nodes", static_cast<double>(kept), "count");
    out.add("extract.rlc_branches", static_cast<double>(branches), "count");
    out.add("si.stamp_s", total("si.stamp"), "s");
    out.add("si.mna_nodes", static_cast<double>(mna_nodes), "count");
    out.add("circuit.dcop_s", total("circuit.dcop"), "s");
    out.add("circuit.step_s", total("circuit.step"), "s");
    out.add("circuit.steps", static_cast<double>(steps), "count");
    out.add("circuit.lu_factorizations", static_cast<double>(lus), "count");
    out.add("circuit.lu_solves", static_cast<double>(solves), "count");
    out.add("circuit.factor_gflop", gflop, "GFLOP");
    add_layer_ledger(out, kName, {"geometry", "em", "extract", "si", "circuit"},
                     untraced, pinned, single, cfg.threads);
}

void ssn_write_refs(const RunConfig& cfg) {
    pin_pool(cfg.threads);
    std::string text = "{\n  \"workload\": \"ssn_postlayout\",\n  \"boards\": [\n";
    for (std::size_t k = 0; k < kBoardPool; ++k) {
        const unsigned seed = pool_board(k);
        const Peaks p = run_flow(make_postlayout_board(seed)).peaks;
        text += "    {\"board_seed\": " + std::to_string(seed) +
                ", \"plane_noise_v\": " + exact(p.plane_noise) +
                ", \"gnd_bounce_v\": " + exact(p.gnd_bounce) +
                ", \"vcc_droop_v\": " + exact(p.vcc_droop) + "}" +
                (k + 1 < kBoardPool ? ",\n" : "\n");
    }
    text += "  ]\n}\n";
    write_file(cfg, kName, text);
}

} // namespace perfbench

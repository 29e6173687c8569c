#include "verify/verify.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "verify/shrink.hpp"

namespace pgsi::verify {

const std::vector<Suite>& all_suites() {
    static const std::vector<Suite> all = {Suite::Reciprocity, Suite::Passivity,
                                           Suite::Limits,      Suite::Backends,
                                           Suite::Energy,      Suite::Recovery};
    return all;
}

const char* suite_name(Suite s) {
    switch (s) {
        case Suite::Reciprocity: return "reciprocity";
        case Suite::Passivity: return "passivity";
        case Suite::Limits: return "limits";
        case Suite::Backends: return "backends";
        case Suite::Energy: return "energy";
        case Suite::Recovery: return "recovery";
    }
    return "?";
}

std::vector<Suite> parse_suites(const std::string& csv) {
    if (csv.empty() || csv == "all") return all_suites();
    std::vector<Suite> picked;
    std::istringstream is(csv);
    std::string tok;
    while (std::getline(is, tok, ',')) {
        if (tok.empty()) continue;
        bool found = false;
        for (const Suite s : all_suites())
            if (tok == suite_name(s)) {
                if (std::find(picked.begin(), picked.end(), s) == picked.end())
                    picked.push_back(s);
                found = true;
            }
        if (!found)
            throw InvalidArgument("unknown suite '" + tok +
                                  "' (try: all, reciprocity, passivity, "
                                  "limits, backends, energy, recovery)");
    }
    if (picked.empty()) throw InvalidArgument("empty suite selection");
    return picked;
}

namespace {

bool selected(const std::vector<Suite>& suites, const char* suite) {
    for (const Suite s : suites)
        if (std::string_view(suite_name(s)) == suite) return true;
    return false;
}

double ladder_tolerance(const ToleranceLadder& tol, const std::string& name) {
    if (name == "reciprocity") return tol.reciprocity;
    if (name == "passivity") return tol.passivity;
    if (name == "dc_capacitance") return tol.dc_capacitance;
    if (name == "dc_resistance") return tol.dc_resistance;
    if (name == "assembly_cache") return tol.assembly;
    if (name == "backend_iterative") return tol.backend_z;
    if (name == "hmatrix_equivalence") return tol.hmatrix;
    if (name == "sweep_recycle") return tol.backend_z;
    if (name == "backend_cavity") return tol.cavity;
    if (name == "extract_equivalence") return tol.extraction;
    if (name == "energy_balance") return tol.energy;
    if (name == "fault_recovery") return tol.recovery;
    return 0;
}

// Stream ids for the independent generator streams of one iteration; plane
// and netlist draws never share a stream, so deselecting one suite family
// does not shift the scenarios of the other.
constexpr std::uint64_t kPlaneStream = 0;
constexpr std::uint64_t kNetlistStream = 1u << 20;

struct Recorder {
    std::vector<InvariantStats>& stats;
    std::vector<FailureRecord>& failures;
    const VerifyOptions& opt;

    InvariantStats& slot(const std::string& name, const char* suite) {
        for (InvariantStats& s : stats)
            if (s.invariant == name) return s;
        InvariantStats s;
        s.invariant = name;
        s.suite = suite;
        s.tolerance = ladder_tolerance(opt.tol, name);
        stats.push_back(s);
        return stats.back();
    }

    // Records the check; returns the failure record to fill in further (or
    // nullptr when the check passed / was skipped).
    FailureRecord* record(const CheckResult& r, const char* suite,
                          int iteration, const std::string& scenario) {
        InvariantStats& s = slot(r.invariant, suite);
        if (r.skipped) {
            ++s.skips;
            obs::counter("verify." + r.invariant + ".skips").add(1);
            return nullptr;
        }
        ++s.checks;
        s.worst_error = std::max(s.worst_error, r.error);
        obs::counter("verify." + r.invariant + ".checks").add(1);
        if (r.pass) return nullptr;
        ++s.failures;
        obs::counter("verify." + r.invariant + ".failures").add(1);
        FailureRecord fr;
        fr.invariant = r.invariant;
        fr.suite = suite;
        fr.seed = opt.seed;
        fr.iteration = iteration;
        fr.error = r.error;
        fr.tolerance = r.tolerance;
        fr.detail = r.detail;
        fr.scenario = scenario;
        failures.push_back(std::move(fr));
        return &failures.back();
    }
};

// Solver counters worth tracking per campaign. These are process-wide
// cumulative atomics; the tracker below turns them into campaign-scoped
// deltas so manifests stay comparable run-to-run.
constexpr const char* kTrackedCounters[] = {
    "gmres.solves",        "gmres.iterations",
    "gmres.matvecs",       "gmres.restarts",
    "lu.factorizations",   "lu.solves",
    "transient.step_rejections", "transient.timestep_cuts",
    "robust.recoveries",   "robust.faults_injected",
};

class CounterTracker {
public:
    CounterTracker() {
        for (const char* name : kTrackedCounters) {
            counters_.push_back(&obs::counter(name));
            CounterStats s;
            s.name = name;
            stats_.push_back(std::move(s));
            last_.push_back(counters_.back()->value());
            start_.push_back(last_.back());
        }
    }

    /// Fold the deltas since the previous call into the per-iteration worst.
    void end_iteration() {
        for (std::size_t i = 0; i < counters_.size(); ++i) {
            const std::uint64_t now = counters_[i]->value();
            stats_[i].worst_iteration =
                std::max(stats_[i].worst_iteration, now - last_[i]);
            last_[i] = now;
        }
    }

    std::vector<CounterStats> finish() {
        for (std::size_t i = 0; i < counters_.size(); ++i)
            stats_[i].total = counters_[i]->value() - start_[i];
        return std::move(stats_);
    }

private:
    std::vector<obs::Counter*> counters_;
    std::vector<CounterStats> stats_;
    std::vector<std::uint64_t> start_, last_;
};

std::string json_num(double v) {
    std::ostringstream os;
    os.precision(12);
    os << v;
    const std::string s = os.str();
    // JSON has no inf/nan literals.
    if (s.find("inf") != std::string::npos) return "1e308";
    if (s.find("nan") != std::string::npos) return "null";
    return s;
}

} // namespace

CampaignResult run_campaign(const VerifyOptions& opt) {
    PGSI_REQUIRE(opt.iterations > 0, "run_campaign: iterations must be > 0");
    const std::vector<Suite> suites =
        opt.suites.empty() ? all_suites() : opt.suites;

    CampaignResult result;
    result.seed = opt.seed;
    result.iterations = opt.iterations;
    for (const Suite s : suites) result.suites.push_back(suite_name(s));

    const bool want_plane = selected(suites, "reciprocity") ||
                            selected(suites, "passivity") ||
                            selected(suites, "limits") ||
                            selected(suites, "backends");
    const bool want_energy = selected(suites, "energy");
    const bool want_recovery = selected(suites, "recovery");

    Recorder rec{result.invariants, result.failures, opt};
    // Pre-register every selected invariant so zero-check campaigns still
    // render complete manifests.
    for (const PlaneInvariant& inv : plane_invariants())
        if (selected(suites, inv.suite)) rec.slot(inv.name, inv.suite);
    if (want_energy) rec.slot("energy_balance", "energy");
    if (want_recovery) rec.slot("fault_recovery", "recovery");

    PGSI_TRACE_SCOPE("verify.campaign");
    CounterTracker tracker;
    for (int iter = 0; iter < opt.iterations; ++iter) {
        PGSI_TRACE_SCOPE("verify.iteration");
        obs::counter("verify.iterations").add(1);

        if (want_plane) {
            Rng rng = Rng::stream(opt.seed, kPlaneStream + iter);
            PlaneScenario scenario = generate_plane(rng);
            scenario.seed = opt.seed;
            const PlaneBem bem = scenario.make_bem(AssemblyMode::Auto);
            const DirectSolver direct(bem, scenario.surface_impedance());
            const std::vector<std::size_t> ports =
                scenario.port_nodes(bem.mesh());
            const InvariantContext ctx{
                scenario, bem, direct, ports,
                scenario.est_first_resonance(), opt.tol};
            for (const PlaneInvariant& inv : plane_invariants()) {
                if (!selected(suites, inv.suite)) continue;
                PGSI_TRACE_SCOPE(inv.name);
                const CheckResult r = inv.fn(ctx);
                FailureRecord* fr =
                    rec.record(r, inv.suite, iter, scenario.describe());
                if (fr != nullptr && opt.shrink) {
                    const std::string name = inv.name;
                    const ToleranceLadder tol = opt.tol;
                    const ShrinkResult sr = shrink_scenario(
                        scenario, [&](const PlaneScenario& cand) {
                            const CheckResult c =
                                run_plane_invariant(cand, name, tol);
                            return !c.pass && !c.skipped;
                        });
                    fr->shrunk_scenario = sr.scenario.describe();
                    std::ostringstream tag;
                    tag << inv.name << "_seed" << opt.seed << "_iter" << iter;
                    CheckResult shrunk_r =
                        run_plane_invariant(sr.scenario, name, tol);
                    if (shrunk_r.pass) shrunk_r = r; // paranoia: keep a failure
                    const ReproPaths paths = write_repro(
                        opt.failure_dir, tag.str(), sr.scenario, shrunk_r);
                    fr->repro_cpp = paths.cpp_path;
                    fr->repro_board = paths.board_path;
                }
            }
        }

        if (want_energy || want_recovery) {
            Rng rng = Rng::stream(opt.seed, kNetlistStream + iter);
            NetlistScenario ns = generate_netlist(rng);
            ns.seed = opt.seed;
            if (want_energy) {
                PGSI_TRACE_SCOPE("energy_balance");
                const CheckResult r = check_energy_balance(
                    ns.netlist, ns.dt, ns.tstop, opt.tol.energy);
                rec.record(r, "energy", iter, ns.summary);
            }
            if (want_recovery) {
                PGSI_TRACE_SCOPE("fault_recovery");
                const CheckResult r = check_fault_recovery(
                    ns.netlist, ns.dt, ns.tstop, opt.tol.recovery);
                rec.record(r, "recovery", iter, ns.summary);
            }
        }
        tracker.end_iteration();
    }
    result.metrics = tracker.finish();
    return result;
}

std::string manifest_json(const CampaignResult& result) {
    std::ostringstream os;
    os << "{\n";
    os << "  \"seed\": " << result.seed << ",\n";
    os << "  \"iterations\": " << result.iterations << ",\n";
    os << "  \"suites\": [";
    for (std::size_t i = 0; i < result.suites.size(); ++i)
        os << (i ? ", " : "") << "\"" << result.suites[i] << "\"";
    os << "],\n";
    os << "  \"invariants\": [\n";
    for (std::size_t i = 0; i < result.invariants.size(); ++i) {
        const InvariantStats& s = result.invariants[i];
        os << "    {\"invariant\": \"" << s.invariant << "\", \"suite\": \""
           << s.suite << "\", \"checks\": " << s.checks
           << ", \"skips\": " << s.skips << ", \"failures\": " << s.failures
           << ", \"tolerance\": " << json_num(s.tolerance)
           << ", \"worst_error\": " << json_num(s.worst_error) << "}"
           << (i + 1 < result.invariants.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"metrics\": [\n";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const CounterStats& m = result.metrics[i];
        os << "    {\"name\": \"" << m.name << "\", \"total\": " << m.total
           << ", \"worst_iteration\": " << m.worst_iteration << "}"
           << (i + 1 < result.metrics.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"failures\": [\n";
    for (std::size_t i = 0; i < result.failures.size(); ++i) {
        const FailureRecord& f = result.failures[i];
        os << "    {\"invariant\": \"" << f.invariant << "\", \"suite\": \""
           << f.suite << "\", \"seed\": " << f.seed
           << ", \"iteration\": " << f.iteration
           << ", \"error\": " << json_num(f.error)
           << ", \"tolerance\": " << json_num(f.tolerance) << ",\n"
           << "     \"detail\": \"" << obs::json_escape(f.detail) << "\",\n"
           << "     \"scenario\": \"" << obs::json_escape(f.scenario) << "\",\n"
           << "     \"shrunk_scenario\": \""
           << obs::json_escape(f.shrunk_scenario) << "\",\n"
           << "     \"repro_cpp\": \"" << obs::json_escape(f.repro_cpp)
           << "\", \"repro_board\": \"" << obs::json_escape(f.repro_board)
           << "\"}" << (i + 1 < result.failures.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
    return os.str();
}

} // namespace pgsi::verify

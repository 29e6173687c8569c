// batch_campaign: a pgsi::serve campaign of ~1000 small sweep and transient
// jobs over 25 seeded demo-board-like geometries, with a fresh ModelCache
// per campaign.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/engine.hpp"
#include "si/board_file.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pgsi;

namespace {

const char* const kName = "batch_campaign";

// A seed picks kGeometries of the kGeometryPool board variants and the job
// order; refs/batch_campaign.json holds the summary of every job any seed
// can build.
constexpr std::size_t kGeometryPool = 64;
constexpr std::size_t kGeometries = 25;
constexpr std::size_t kSweepJobs = 32;     // per geometry, over kPortSets port pairs
constexpr std::size_t kTransientJobs = 8;  // per geometry: 4 sweeps per transient
constexpr std::size_t kSweepPoints = 16;
constexpr double kPitch = 16e-3;

struct PortPair {
    Point2 a, b;
};
const PortPair kPortSets[] = {
    {{0.010, 0.010}, {0.110, 0.070}},
    {{0.010, 0.070}, {0.110, 0.010}},
    {{0.030, 0.040}, {0.090, 0.040}},
    {{0.060, 0.010}, {0.060, 0.070}},
};
constexpr std::size_t kPorts = sizeof kPortSets / sizeof kPortSets[0];

// Sweep summaries are peak |Z| (1e-8 relative, the backend-equivalence
// gate); transient summaries are SSN peaks (1e-6 relative).
constexpr double kSweepTol = 1e-8;
constexpr double kTransientTol = 1e-6;

/// Board text of one geometry variant: the 120 × 80 mm demo board with its
/// chip (three drivers, two switching) and three decaps at positions drawn
/// from the variant's own stream.
std::string board_text(std::size_t variant) {
    SplitMix64 rng(0x5eed0000ull + variant);
    const double cx = rng.uniform(0.03, 0.09), cy = rng.uniform(0.025, 0.055);
    const double d1x = rng.uniform(0.01, 0.11), d1y = rng.uniform(0.01, 0.07);
    const double d2x = rng.uniform(0.01, 0.11), d2y = rng.uniform(0.01, 0.07);
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "board 0.12 0.08\n"
        "stackup sep 0.5m eps 4.5 sheet 0.6m\n"
        "vdd 3.3\n"
        "vrm 0.01 0.01\n"
        "driver d0 vcc %.4f %.4f gnd %.4f %.4f load 25p switch rise 0.8n delay 0.5n width 5n\n"
        "driver d1 vcc %.4f %.4f gnd %.4f %.4f load 25p switch rise 0.8n delay 0.5n width 5n\n"
        "driver d2 vcc %.4f %.4f gnd %.4f %.4f load 25p\n"
        "decap %.4f %.4f c 100n esr 25m esl 0.8n\n"
        "decap %.4f %.4f c 100n esr 25m esl 0.8n\n"
        "decap %.4f %.4f c 100n esr 25m esl 0.8n\n",
        cx - 0.006, cy + 0.005, cx - 0.006, cy - 0.005, cx, cy + 0.005, cx,
        cy - 0.005, cx + 0.006, cy + 0.005, cx + 0.006, cy - 0.005, cx + 0.005, cy,
        d1x, d1y, d2x, d2y);
    return buf;
}

SsnModelOptions model_options() {
    SsnModelOptions o;
    o.mesh_pitch = kPitch;
    o.interior_nodes = 8;
    return o;
}

/// Sweep job of `variant` at port set `ports`, or its transient job when
/// `ports` == kPorts.
serve::JobSpec make_job(std::size_t variant, std::size_t ports, std::size_t copy) {
    serve::JobSpec spec;
    spec.board_text = board_text(variant);
    spec.model = model_options();
    if (ports < kPorts) {
        spec.id = "g" + std::to_string(variant) + "-sweep" + std::to_string(copy);
        spec.kind = serve::JobKind::Sweep;
        spec.ports = {kPortSets[ports].a, kPortSets[ports].b};
        spec.freqs_hz.resize(kSweepPoints);
        for (std::size_t k = 0; k < kSweepPoints; ++k)
            spec.freqs_hz[k] = 1e7 * std::pow(100.0, static_cast<double>(k) /
                                                         static_cast<double>(kSweepPoints - 1));
    } else {
        spec.id = "g" + std::to_string(variant) + "-tran" + std::to_string(copy);
        spec.kind = serve::JobKind::Transient;
        spec.dt = 50e-12;
        spec.tstop = 20e-9;
    }
    return spec;
}

/// Reference summary per (variant, port set or kPorts for the transient).
using Refs = std::map<std::pair<std::size_t, std::size_t>, double>;

Refs read_refs(const RunConfig& cfg) {
    Refs refs;
    const JsonValue doc = load_refs(cfg, kName);
    for (const JsonValue& g : doc.at("geometries").array) {
        const auto v = static_cast<std::size_t>(g.at("variant").number);
        const std::vector<JsonValue>& s = g.at("sweep_peak_z_ohm").array;
        for (std::size_t p = 0; p < s.size(); ++p) refs[{v, p}] = s[p].number;
        refs[{v, kPorts}] = g.at("transient_peak_v").number;
    }
    return refs;
}

/// One campaign's jobs with the reference key (variant, port set) of each.
struct Inputs {
    std::vector<std::size_t> variants;
    std::vector<serve::JobSpec> jobs;
    std::vector<std::pair<std::size_t, std::size_t>> keys;
};

Inputs make_inputs(const RunConfig& cfg) {
    SplitMix64 rng(cfg.seed);
    const std::vector<std::size_t> pool = permutation(kGeometryPool, rng);
    Inputs in;
    in.variants.assign(pool.begin(), pool.begin() + kGeometries);
    std::vector<serve::JobSpec> jobs;
    std::vector<std::pair<std::size_t, std::size_t>> keys;
    for (std::size_t v : in.variants) {
        for (std::size_t j = 0; j < kSweepJobs + kTransientJobs; ++j) {
            const std::size_t ports = j < kSweepJobs ? j % kPorts : kPorts;
            jobs.push_back(make_job(v, ports, j));
            keys.emplace_back(v, ports);
        }
    }
    for (std::size_t k : permutation(jobs.size(), rng)) {
        in.jobs.push_back(std::move(jobs[k]));
        in.keys.push_back(keys[k]);
    }
    return in;
}

/// One campaign on a fresh cache, with that cache's counters afterwards.
struct Campaign {
    serve::BatchResult result;
    serve::ModelCache::Stats cache;
};

Campaign run_campaign(const std::vector<serve::JobSpec>& jobs) {
    serve::ModelCache cache;
    serve::BatchOptions opt;
    opt.cache = &cache;
    serve::JobQueue queue(opt);
    Campaign c{queue.run(jobs), {}};
    c.cache = cache.stats();
    return c;
}

bool job_ok(const serve::JobReport& r, double expected, double tol) {
    const bool ok = r.state == serve::JobState::Completed &&
                    close_rel(r.summary, expected, tol);
    if (!ok)
        std::fprintf(stderr, "perfbench: job %s %s, summary %.9g vs %.9g %s\n",
                     r.id.c_str(), serve::to_string(r.state), r.summary, expected,
                     r.error.c_str());
    return ok;
}

/// Check every report of a campaign; returns the number off reference.
std::size_t check_campaign(const Inputs& in, const Refs& refs,
                           const serve::BatchResult& res) {
    std::size_t bad = 0;
    for (std::size_t k = 0; k < in.jobs.size(); ++k) {
        const auto it = refs.find(in.keys[k]);
        const double expected = it != refs.end() ? it->second : NAN;
        const double tol = in.keys[k].second < kPorts ? kSweepTol : kTransientTol;
        if (!job_ok(res.reports[k], expected, tol)) ++bad;
    }
    return bad;
}

bool same_campaign(const Campaign& ca, const Campaign& cb) {
    const serve::BatchResult& a = ca.result;
    const serve::BatchResult& b = cb.result;
    if (a.reports.size() != b.reports.size()) return false;
    for (std::size_t k = 0; k < a.reports.size(); ++k)
        if (a.reports[k].digest != b.reports[k].digest ||
            a.reports[k].state != b.reports[k].state)
            return false;
    const serve::BatchStats& x = a.stats;
    const serve::BatchStats& y = b.stats;
    return x.completed == y.completed && x.failed == y.failed && x.retries == y.retries &&
           x.cache_hits == y.cache_hits && x.cache_misses == y.cache_misses;
}

/// A campaign under a "bench.unit" root span: the JobQueue run, then the
/// reference checks as benchmark bookkeeping.
Campaign traced_campaign(const Inputs& in, const Refs& refs, int unit, Outcome& out) {
    const Scope root("bench.unit", unit);
    std::optional<Campaign> c;
    {
        const Scope s("serve.campaign", unit);
        c.emplace(run_campaign(in.jobs));
    }
    out.attempted += in.jobs.size();
    out.failed += check_campaign(in, refs, c->result);
    return std::move(*c);
}

} // namespace

Outcome batch_end_to_end(const RunConfig& cfg) {
    const Refs refs = read_refs(cfg);
    return closed_loop(
        cfg,
        [&] {
            pin_pool(cfg.threads);
            return make_inputs(cfg);
        },
        [&](const Inputs& in) {
            RoundResult rr;
            const serve::BatchResult res = run_campaign(in.jobs).result;
            for (const serve::JobReport& r : res.reports)
                rr.latencies.push_back(r.wall_seconds);
            rr.attempted = in.jobs.size();
            rr.failed = check_campaign(in, refs, res);
            return rr;
        });
}

void batch_ledger(const RunConfig& cfg, Outcome& out) {
    pin_pool(cfg.threads);
    const Inputs in = make_inputs(cfg);
    const Refs refs = read_refs(cfg);
    Tracer& tr = tracer();

    // Probe: each geometry's model build alone, on a private cache. It runs
    // first, so the untraced campaign does not pay the process's cold start.
    std::vector<double> builds;
    {
        serve::ModelCache cache;
        tr.enable(true);
        for (std::size_t v : in.variants) {
            const Board board = parse_board_file(board_text(v));
            const auto b0 = Clock::now();
            {
                const Scope s("serve.model_build", -1);
                cache.acquire(board, model_options());
            }
            builds.push_back(seconds_since(b0));
        }
        tr.enable(false);
        out.check(cache.stats().misses == in.variants.size(),
                  "batch: private cache built a model more than once");
    }

    const auto t0 = Clock::now();
    const Campaign untraced_run = run_campaign(in.jobs);
    const double untraced = seconds_since(t0);
    out.attempted += in.jobs.size();
    out.failed += check_campaign(in, refs, untraced_run.result);

    SpanRange pinned{tr.size(), tr.size()};
    tr.enable(true);
    const Campaign traced = traced_campaign(in, refs, tr.new_unit(), out);
    tr.enable(false);
    pinned.last = tr.size();
    out.check(same_campaign(traced, untraced_run),
              "batch: traced campaign differs from the untraced one");

    pin_pool(1);
    SpanRange single{tr.size(), tr.size()};
    tr.enable(true);
    const Campaign single_run = traced_campaign(in, refs, tr.new_unit(), out);
    tr.enable(false);
    single.last = tr.size();
    pin_pool(cfg.threads);
    out.check(same_campaign(single_run, traced),
              "batch: one-thread campaign differs from the pinned one");

    std::vector<double> miss, hit_sweep, hit_tran;
    for (std::size_t k = 0; k < in.jobs.size(); ++k) {
        const serve::JobReport& r = traced.result.reports[k];
        if (!r.cache_hit)
            miss.push_back(r.wall_seconds);
        else if (in.jobs[k].kind == serve::JobKind::Sweep)
            hit_sweep.push_back(r.wall_seconds);
        else
            hit_tran.push_back(r.wall_seconds);
    }
    const serve::BatchStats& st = traced.result.stats;
    out.check(st.cache_hits == traced.cache.hits && st.cache_misses == traced.cache.misses,
              "batch: BatchStats and ModelCache::Stats disagree on hits and misses");
    out.check(st.cache_misses == in.variants.size() && !miss.empty() &&
                  !hit_sweep.empty() && !hit_tran.empty(),
              "batch: expected one cache miss per geometry");
    out.add("serve.cache_hits", static_cast<double>(st.cache_hits), "count");
    out.add("serve.cache_misses", static_cast<double>(st.cache_misses), "count");
    out.add("serve.hit_rate",
            static_cast<double>(st.cache_hits) /
                static_cast<double>(st.cache_hits + st.cache_misses),
            "ratio");
    out.add("serve.retries", static_cast<double>(st.retries), "count");
    out.add("serve.model_build_s", median(builds), "s");
    out.add("serve.miss_job_p50_s", median(miss), "s");
    out.add("serve.hit_sweep_p50_s", median(hit_sweep), "s");
    out.add("serve.hit_transient_p50_s", median(hit_tran), "s");
    add_layer_ledger(out, kName, {"serve"}, untraced, pinned, single, cfg.threads);
}

void batch_write_refs(const RunConfig& cfg) {
    pin_pool(cfg.threads);
    std::vector<serve::JobSpec> jobs;
    for (std::size_t v = 0; v < kGeometryPool; ++v)
        for (std::size_t p = 0; p <= kPorts; ++p) jobs.push_back(make_job(v, p, p));
    const serve::BatchResult res = run_campaign(jobs).result;
    if (!res.all_completed()) throw std::runtime_error("reference campaign failed");
    std::string text = "{\n  \"workload\": \"batch_campaign\",\n  \"geometries\": [\n";
    for (std::size_t v = 0; v < kGeometryPool; ++v) {
        const std::size_t base = v * (kPorts + 1);
        text += "    {\"variant\": " + std::to_string(v) + ", \"sweep_peak_z_ohm\": [";
        for (std::size_t p = 0; p < kPorts; ++p)
            text += exact(res.reports[base + p].summary) + (p + 1 < kPorts ? ", " : "");
        text += "], \"transient_peak_v\": " + exact(res.reports[base + kPorts].summary) +
                (v + 1 < kGeometryPool ? "},\n" : "}\n");
    }
    text += "  ]\n}\n";
    write_file(cfg, kName, text);
}

} // namespace perfbench

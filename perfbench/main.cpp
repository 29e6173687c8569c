// Whole-pipeline benchmark of pgsi. One invocation runs one workload:
//
//   pgsi_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --refs <dir> [--spans <file>]
//   pgsi_perfbench --write-refs <name> --refs <dir>
//
// --trace 0 runs the workload's closed loop untraced and reports the
// end-to-end metrics. --trace 1 runs the traced per-layer ledger of all
// three workloads, the named one first, so every per-layer metric is
// measured on every traced run, and writes the spans to --spans.
// --write-refs recomputes the committed reference outputs.
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics by name with their units. Earlier lines start with '#'.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Workload {
    const char* name;
    Outcome (*end_to_end)(const RunConfig&);
    void (*ledger)(const RunConfig&, Outcome&);
    void (*write_refs)(const RunConfig&);
};

const Workload kWorkloads[] = {
    {"ssn_postlayout", ssn_end_to_end, ssn_ledger, ssn_write_refs},
    {"pdn_sweep", pdn_end_to_end, pdn_ledger, pdn_write_refs},
    {"batch_campaign", batch_end_to_end, batch_ledger, batch_write_refs},
};

const Workload* find_workload(const std::string& name) {
    for (const Workload& w : kWorkloads)
        if (name == w.name) return &w;
    return nullptr;
}

[[noreturn]] void usage(const char* msg) {
    std::fprintf(stderr,
                 "error: %s\nusage: pgsi_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --refs <dir> [--spans <file>]\n"
                 "       pgsi_perfbench --write-refs <name> --refs <dir>\n",
                 msg);
    std::exit(2);
}

void print_result(const Outcome& out) {
    for (const Metric& m : out.metrics)
        std::printf("# %-42s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    bool finite = true;
    for (const Metric& m : out.metrics) finite = finite && std::isfinite(m.value);
    const bool correct = out.failed == 0 && out.consistent && finite;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                correct ? "true" : "false", out.attempted, out.failed);
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric& m = out.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int main(int argc, char** argv) {
    std::string workload, write_refs, spans_path;
    int trace = -1;
    RunConfig cfg;
    cfg.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + a).c_str());
        const char* v = argv[++i];
        if (a == "--workload") workload = v;
        else if (a == "--seed") cfg.seed = std::strtoull(v, nullptr, 10), have_seed = true;
        else if (a == "--seconds") cfg.seconds = std::atof(v), have_seconds = true;
        else if (a == "--trace") trace = std::atoi(v);
        else if (a == "--refs") cfg.refs_dir = v;
        else if (a == "--spans") spans_path = v;
        else if (a == "--write-refs") write_refs = v;
        else usage(("unknown option " + a).c_str());
    }
    if (cfg.refs_dir.empty()) usage("--refs is required");

    try {
        if (!write_refs.empty()) {
            const Workload* w = find_workload(write_refs);
            if (w == nullptr) usage("unknown workload");
            w->write_refs(cfg);
            return 0;
        }
        const Workload* w = find_workload(workload);
        if (w == nullptr) usage("unknown or missing --workload");
        if (!have_seed || !have_seconds || (trace != 0 && trace != 1))
            usage("--seed, --seconds and --trace 0|1 are required");

        std::printf("# workload %s, seed %llu, pgsi::par pinned to %zu threads\n",
                    w->name, cfg.seed, cfg.threads);
        Outcome out;
        if (trace == 0) {
            out = w->end_to_end(cfg);
        } else {
            w->ledger(cfg, out);
            for (const Workload& other : kWorkloads)
                if (&other != w) other.ledger(cfg, out);
            out.add("bench.threads", static_cast<double>(cfg.threads), "count");
            if (!spans_path.empty()) tracer().write_json(spans_path);
        }
        print_result(out);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}

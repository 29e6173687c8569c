#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "common/parallel.hpp"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
    if (ok) return;
    consistent = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void pin_pool(std::size_t threads) {
    pgsi::par::set_thread_count(threads);
    pgsi::par::parallel_for(4 * threads, [](std::size_t) {});
}

// A pool of one thread has no workers: the caller runs every chunk.
void stop_pool() { pgsi::par::set_thread_count(1); }

pgsi::JsonValue load_refs(const RunConfig& cfg, const std::string& workload) {
    return pgsi::parse_json_file(cfg.refs_dir + "/" + workload + ".json");
}

bool close_rel(double got, double ref, double rel_tol) {
    return std::isfinite(got) && std::isfinite(ref) && ref != 0 &&
           std::abs(got - ref) <= rel_tol * std::abs(ref);
}

std::string exact(double v, bool allow_zero) {
    if (!std::isfinite(v) || (v == 0 && !allow_zero))
        throw std::runtime_error("refusing to write a reference value of " +
                                 std::to_string(v));
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void write_file(const RunConfig& cfg, const std::string& workload,
                const std::string& text) {
    const std::string path = cfg.refs_dir + "/" + workload + ".json";
    std::ofstream f(path);
    f << text;
    f.close();
    if (!f) throw std::runtime_error("cannot write " + path);
    std::printf("wrote %s\n", path.c_str());
}

void add_layer_ledger(Outcome& out, const std::string& workload,
                      const std::vector<std::string>& layers,
                      double untraced_wall, SpanRange pinned, SpanRange single,
                      std::size_t threads) {
    const Tracer& tr = tracer();
    const double traced_wall = tr.unit_wall_seconds(pinned.first, pinned.last);
    std::map<std::string, double> self =
        tr.layer_self_seconds(pinned.first, pinned.last);
    std::map<std::string, double> self1 =
        tr.layer_self_seconds(single.first, single.last);

    const std::string w = workload + ".";
    out.add(w + "untraced_wall_s", untraced_wall, "s");
    out.add(w + "traced_wall_s", traced_wall, "s");
    out.add(w + "trace_overhead_s", traced_wall - untraced_wall, "s");
    out.add(w + "self.bench_s", self["bench"], "s");
    double sum = self["bench"];
    for (const std::string& l : layers) {
        sum += self[l];
        out.add(w + "self." + l + "_s", self[l], "s");
        out.add(w + "self_1t." + l + "_s", self1[l], "s");
        out.add(w + "par_eff." + l,
                self1[l] / (static_cast<double>(threads) * self[l]), "ratio");
    }
    // Every span of a unit nests under its root, so the layer self times
    // partition the traced wall exactly; a mismatch means a stray span.
    out.check(std::abs(sum - traced_wall) <= 1e-6 * traced_wall,
              workload + ": layer self times do not sum to the traced wall");
    std::printf("# %s ledger: untraced %.4f s, traced %.4f s, self-time sum "
                "%.4f s\n",
                workload.c_str(), untraced_wall, traced_wall, sum);
}

} // namespace perfbench

#include "obs/report.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"

namespace pgsi::obs {

namespace {

std::uint64_t steady_now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::string jstr(std::string_view s) {
    return "\"" + json_escape(s) + "\"";
}

// The PGSI_* knobs that change behavior; recorded when set so a report can
// be tied back to the environment that produced it.
constexpr const char* kEnvKeys[] = {
    "PGSI_THREADS", "PGSI_TRACE",     "PGSI_STREAMS", "PGSI_RESOURCES",
    "PGSI_METRICS", "PGSI_FAULT",     "PGSI_BENCH_JSON",
};

} // namespace

SolveReportBuilder::SolveReportBuilder(std::string tool)
    : tool_(std::move(tool)), start_ns_(steady_now_ns()) {}

void SolveReportBuilder::set_argv(int argc, const char* const* argv) {
    argv_.assign(argv, argv + argc);
}

SolveReportBuilder::Section& SolveReportBuilder::section(std::string_view name) {
    for (auto& [n, s] : sections_)
        if (n == name) return s;
    sections_.emplace_back(std::string(name), Section{});
    return sections_.back().second;
}

void SolveReportBuilder::add_number(std::string_view sec, std::string_view key,
                                    double value) {
    section(sec).emplace_back(std::string(key), json_number(value));
}

void SolveReportBuilder::add_text(std::string_view sec, std::string_view key,
                                  std::string_view value) {
    section(sec).emplace_back(std::string(key), jstr(value));
}

void SolveReportBuilder::add_recoveries(const robust::RecoveryReport& report) {
    recoveries_.insert(recoveries_.end(), report.events.begin(),
                       report.events.end());
}

std::string SolveReportBuilder::build_json() const {
    std::string out = "{\"schema\":";
    out += jstr(kSolveReportSchema);
    out += ",\"tool\":";
    out += jstr(tool_);
    out += ",\"wall_seconds\":";
    out += json_number(static_cast<double>(steady_now_ns() - start_ns_) * 1e-9);

    out += ",\"argv\":[";
    for (std::size_t i = 0; i < argv_.size(); ++i) {
        if (i) out += ',';
        out += jstr(argv_[i]);
    }
    out += "]";

    // Environment / config fingerprint.
    out += ",\"environment\":{\"threads\":";
    out += json_number(static_cast<double>(par::thread_count()));
    out += ",\"hardware_concurrency\":";
    out += json_number(static_cast<double>(std::thread::hardware_concurrency()));
    out += ",\"compiler\":";
#if defined(__VERSION__)
    out += jstr(__VERSION__);
#else
    out += jstr("unknown");
#endif
    out += ",\"build\":";
#ifdef NDEBUG
    out += jstr("release");
#else
    out += jstr("debug");
#endif
    out += ",\"env\":{";
    {
        bool first = true;
        for (const char* key : kEnvKeys) {
            const char* v = std::getenv(key);
            if (v == nullptr) continue;
            if (!first) out += ',';
            out += jstr(key);
            out += ':';
            out += jstr(v);
            first = false;
        }
    }
    out += "}}";

    // Resources: peak RSS, allocation counters, pool utilization.
    const MetricsSnapshot snap = metrics_snapshot();
    out += ",\"resources\":{\"peak_rss_bytes\":";
    out += json_number(static_cast<double>(peak_rss_bytes()));
    out += ",\"matrix_alloc_count\":";
    out += json_number(static_cast<double>(snap.counter_value("alloc.matrix.count")));
    out += ",\"matrix_alloc_bytes\":";
    out += json_number(static_cast<double>(snap.counter_value("alloc.matrix.bytes")));
    double largest = 0;
    for (const auto& [name, h] : snap.histograms)
        if (name == "alloc.matrix.bytes_per_alloc") largest = h.max;
    out += ",\"largest_matrix_bytes\":";
    out += json_number(largest);
    out += ",\"subsystem_bytes\":{";
    {
        bool first = true;
        for (const auto& [name, v] : snap.counters) {
            // alloc.<tag>.bytes, excluding the process-wide total.
            if (name.rfind("alloc.", 0) != 0 || name == "alloc.matrix.bytes")
                continue;
            if (name.size() < 7 + 6 ||
                name.compare(name.size() - 6, 6, ".bytes") != 0)
                continue;
            const std::string tag = name.substr(6, name.size() - 6 - 6);
            if (!first) out += ',';
            out += jstr(tag);
            out += ':';
            out += json_number(static_cast<double>(v));
            first = false;
        }
    }
    out += "}}";

    // Pool utilization: busy ns per slot over the covered wall time.
    const par::PoolStats pool = par::pool_stats();
    out += ",\"pool\":{\"threads\":";
    out += json_number(static_cast<double>(pool.threads));
    out += ",\"jobs\":";
    out += json_number(static_cast<double>(pool.jobs));
    out += ",\"items\":";
    out += json_number(static_cast<double>(pool.items));
    out += ",\"wall_ns\":";
    out += json_number(static_cast<double>(pool.wall_ns));
    out += ",\"busy_ns\":[";
    for (std::size_t i = 0; i < pool.busy_ns.size(); ++i) {
        if (i) out += ',';
        out += json_number(static_cast<double>(pool.busy_ns[i]));
    }
    out += "]";
    if (pool.wall_ns > 0 && !pool.busy_ns.empty()) {
        double busy = 0;
        for (const std::uint64_t b : pool.busy_ns)
            busy += static_cast<double>(b);
        out += ",\"utilization\":";
        out += json_number(busy / (static_cast<double>(pool.wall_ns) *
                            static_cast<double>(pool.busy_ns.size())));
    }
    out += "}";

    // Spans, aggregated by path (count + inclusive total), slowest first.
    {
        std::vector<SpanTotal> rows = span_totals();
        std::stable_sort(rows.begin(), rows.end(),
                         [](const SpanTotal& a, const SpanTotal& b) {
                             return a.total_ns > b.total_ns;
                         });
        out += ",\"spans\":[";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (i) out += ',';
            out += "{\"path\":";
            out += jstr(rows[i].path);
            out += ",\"count\":";
            out += json_number(static_cast<double>(rows[i].count));
            out += ",\"total_ns\":";
            out += json_number(static_cast<double>(rows[i].total_ns));
            out += "}";
        }
        out += "]";
    }

    // Convergence streams.
    out += ",\"streams\":[";
    {
        bool first = true;
        for (const StreamSeries& s : stream_snapshot()) {
            if (!first) out += ',';
            out += "{\"name\":";
            out += jstr(s.name);
            out += ",\"points\":[";
            for (std::size_t i = 0; i < s.x.size(); ++i) {
                if (i) out += ',';
                out += '[';
                out += json_number(s.x[i]);
                out += ',';
                out += json_number(s.y[i]);
                out += ']';
            }
            out += "],\"marks\":[";
            for (std::size_t i = 0; i < s.marks.size(); ++i) {
                if (i) out += ',';
                out += "{\"x\":";
                out += json_number(s.marks[i].x);
                out += ",\"label\":";
                out += jstr(s.marks[i].label);
                out += '}';
            }
            out += "],\"dropped\":";
            out += json_number(static_cast<double>(s.dropped));
            out += '}';
            first = false;
        }
    }
    out += "]";

    // Recovery events with their detail strings.
    out += ",\"recoveries\":[";
    for (std::size_t i = 0; i < recoveries_.size(); ++i) {
        if (i) out += ',';
        out += "{\"site\":";
        out += jstr(recoveries_[i].site);
        out += ",\"detail\":";
        out += jstr(recoveries_[i].detail);
        out += '}';
    }
    out += "]";

    // Full metrics snapshot (machine-readable mirror of format_metrics()).
    out += ",\"metrics\":";
    out += metrics_json();

    // Free-form per-tool sections.
    out += ",\"sections\":{";
    {
        bool first = true;
        for (const auto& [name, sec] : sections_) {
            if (!first) out += ',';
            out += jstr(name);
            out += ":{";
            for (std::size_t i = 0; i < sec.size(); ++i) {
                if (i) out += ',';
                out += jstr(sec[i].first);
                out += ':';
                out += sec[i].second;
            }
            out += '}';
            first = false;
        }
    }
    out += "}}";
    return out;
}

void SolveReportBuilder::write_file(const std::string& path) const {
    std::ofstream f(path);
    if (!f.good()) throw Error("cannot open report output file: " + path);
    f << build_json();
    if (!f.good()) throw Error("failed writing report output file: " + path);
}

namespace {

std::string fmt_bytes(double b) {
    char buf[64];
    if (b >= 1024.0 * 1024.0 * 1024.0)
        std::snprintf(buf, sizeof buf, "%.2f GiB", b / (1024.0 * 1024.0 * 1024.0));
    else if (b >= 1024.0 * 1024.0)
        std::snprintf(buf, sizeof buf, "%.2f MiB", b / (1024.0 * 1024.0));
    else if (b >= 1024.0)
        std::snprintf(buf, sizeof buf, "%.1f KiB", b / 1024.0);
    else
        std::snprintf(buf, sizeof buf, "%.0f B", b);
    return buf;
}

std::string fmt_g(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4g", v);
    return buf;
}

} // namespace

std::string render_solve_report_markdown(const JsonValue& report,
                                         std::size_t top_spans) {
    std::string md = "# SolveReport: " + report.str_or("tool", "?") + "\n\n";
    md += "- schema: `" + report.str_or("schema", "?") + "`\n";
    md += "- wall time: " + fmt_g(report.num_or("wall_seconds", 0)) + " s\n";
    if (const JsonValue* env = report.find("environment")) {
        md += "- threads: " + fmt_g(env->num_or("threads", 0)) +
              ", compiler: " + env->str_or("compiler", "?") + " (" +
              env->str_or("build", "?") + ")\n";
    }
    if (const JsonValue* res = report.find("resources")) {
        md += "- peak RSS: " + fmt_bytes(res->num_or("peak_rss_bytes", 0)) +
              "\n";
    }
    md += "\n";

    if (const JsonValue* spans = report.find("spans");
        spans != nullptr && spans->is_array() && !spans->array.empty()) {
        md += "## Slowest span paths\n\n";
        md += "| path | count | total |\n|---|---:|---:|\n";
        std::size_t shown = 0;
        for (const JsonValue& s : spans->array) {
            if (shown++ >= top_spans) break;
            md += "| `" + s.str_or("path", "?") + "` | " +
                  fmt_g(s.num_or("count", 0)) + " | " +
                  format_duration(s.num_or("total_ns", 0)) + " |\n";
        }
        md += "\n";
    }

    if (const JsonValue* metrics = report.find("metrics")) {
        if (const JsonValue* counters = metrics->find("counters")) {
            const double solves = counters->num_or("gmres.solves", 0);
            const double iters = counters->num_or("gmres.iterations", 0);
            if (solves > 0) {
                md += "## Solver activity\n\n";
                md += "- GMRES: " + fmt_g(solves) + " solves, " +
                      fmt_g(iters) + " iterations (" +
                      fmt_g(iters / solves) + " per solve), " +
                      fmt_g(counters->num_or("gmres.matvecs", 0)) +
                      " matvecs, " +
                      fmt_g(counters->num_or("gmres.restarts", 0)) +
                      " restarts\n";
                const double retries =
                    counters->num_or("gmres.estimate_retries", 0);
                if (retries > 0)
                    md += "- GMRES estimate retries: " + fmt_g(retries) + "\n";
            }
            const double lu = counters->num_or("lu.factorizations", 0);
            if (lu > 0) md += "- LU factorizations: " + fmt_g(lu) + "\n";
            md += "\n";
        }
    }

    if (const JsonValue* secs = report.find("sections");
        secs != nullptr && !secs->object.empty()) {
        md += "## Tool sections\n\n";
        for (const auto& [name, sec] : secs->object) {
            md += "### " + name + "\n\n";
            for (const auto& [key, val] : sec.object) {
                md += "- " + key + ": ";
                if (val.is_number()) md += fmt_g(val.number);
                else if (val.is_string()) md += val.string;
                else md += "…";
                md += "\n";
            }
            md += "\n";
        }
    }

    if (const JsonValue* recov = report.find("recoveries");
        recov != nullptr && recov->is_array()) {
        md += "## Recoveries\n\n";
        if (recov->array.empty()) {
            md += "none\n\n";
        } else {
            for (const JsonValue& e : recov->array)
                md += "- `" + e.str_or("site", "?") + "`: " +
                      e.str_or("detail", "") + "\n";
            md += "\n";
        }
    }

    if (const JsonValue* res = report.find("resources")) {
        md += "## Resource accounting\n\n";
        md += "- matrix allocations: " +
              fmt_g(res->num_or("matrix_alloc_count", 0)) + " totalling " +
              fmt_bytes(res->num_or("matrix_alloc_bytes", 0)) +
              " (largest " + fmt_bytes(res->num_or("largest_matrix_bytes", 0)) +
              ")\n";
        if (const JsonValue* sub = res->find("subsystem_bytes");
            sub != nullptr && !sub->object.empty()) {
            for (const auto& [tag, v] : sub->object)
                md += "  - " + tag + ": " + fmt_bytes(v.number) + "\n";
        }
        md += "\n";
    }

    if (const JsonValue* pool = report.find("pool")) {
        md += "## Pool utilization\n\n";
        md += "- " + fmt_g(pool->num_or("threads", 0)) + " threads, " +
              fmt_g(pool->num_or("jobs", 0)) + " jobs, " +
              fmt_g(pool->num_or("items", 0)) + " items\n";
        if (const JsonValue* u = pool->find("utilization"))
            md += "- utilization: " + fmt_g(u->number * 100.0) + " %\n";
        if (const JsonValue* busy = pool->find("busy_ns");
            busy != nullptr && busy->is_array()) {
            const double wall = pool->num_or("wall_ns", 0);
            for (std::size_t i = 0; i < busy->array.size(); ++i) {
                const char* who = i == 0 ? "callers" : "worker";
                md += "  - " + std::string(who) +
                      (i == 0 ? std::string() : "-" + std::to_string(i)) +
                      ": busy " + format_duration(busy->array[i].number);
                if (wall > 0)
                    md += " (" + fmt_g(100.0 * busy->array[i].number / wall) +
                          " % of wall)";
                md += "\n";
            }
        }
        md += "\n";
    }

    if (const JsonValue* streams = report.find("streams");
        streams != nullptr && streams->is_array() && !streams->array.empty()) {
        md += "## Convergence streams\n\n";
        md += "| series | points | first | last | marks | dropped |\n"
              "|---|---:|---:|---:|---:|---:|\n";
        for (const JsonValue& s : streams->array) {
            const JsonValue* pts = s.find("points");
            const std::size_t n =
                pts != nullptr && pts->is_array() ? pts->array.size() : 0;
            std::string first = "-", last = "-";
            if (n > 0 && pts->array.front().is_array() &&
                pts->array.front().array.size() == 2) {
                first = fmt_g(pts->array.front().array[1].number);
                last = fmt_g(pts->array.back().array[1].number);
            }
            const JsonValue* marks = s.find("marks");
            const std::size_t nm =
                marks != nullptr && marks->is_array() ? marks->array.size() : 0;
            md += "| `" + s.str_or("name", "?") + "` | " + fmt_g(double(n)) +
                  " | " + first + " | " + last + " | " + fmt_g(double(nm)) +
                  " | " + fmt_g(s.num_or("dropped", 0)) + " |\n";
        }
        md += "\n";
    }

    return md;
}

} // namespace pgsi::obs

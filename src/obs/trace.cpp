#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include "common/error.hpp"

namespace pgsi::obs {

namespace detail {
std::atomic_int g_trace_state{-1};
} // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

// Trace epoch: all span timestamps are relative to the first clock read so
// Chrome-trace microsecond timestamps stay small.
std::uint64_t now_ns() {
    static const Clock::time_point epoch = Clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch)
            .count());
}

// Dense per-process thread index (Chrome trace "tid").
std::uint32_t thread_index() {
    static std::atomic_uint32_t next{0};
    thread_local const std::uint32_t id = next.fetch_add(1);
    return id;
}

// Per-thread stack of open spans.
struct OpenSpan {
    std::string path;
};
thread_local std::vector<OpenSpan> t_open;

std::mutex g_records_mu;
std::vector<SpanRecord> g_records;

// Thread labels for the Chrome-trace "thread_name" metadata events, keyed
// by dense thread index. Leaked like the metric registries: pool workers
// may register names while static destructors run elsewhere.
std::mutex g_thread_names_mu;
std::map<std::uint32_t, std::string>& thread_names() {
    static auto* m = new std::map<std::uint32_t, std::string>();
    return *m;
}

// When PGSI_TRACE names a .json file, the trace is flushed there at exit.
std::string& exit_trace_path() {
    static std::string path;
    return path;
}

void flush_exit_trace() {
    const std::string& path = exit_trace_path();
    if (path.empty()) return;
    try {
        write_chrome_trace_file(path);
    } catch (const Error& e) {
        std::fprintf(stderr, "pgsi::obs: %s\n", e.what());
    }
}

} // namespace

namespace detail {

int trace_state_slow() noexcept {
    // Racing first calls both read the same environment; the state they
    // store is identical, so the race is benign.
    int on = 0;
    if (const char* env = std::getenv("PGSI_TRACE")) {
        if (env[0] != '\0' && std::strcmp(env, "0") != 0) {
            on = 1;
            const std::size_t len = std::strlen(env);
            if (len > 5 && std::strcmp(env + len - 5, ".json") == 0) {
                exit_trace_path() = env;
                std::atexit(flush_exit_trace);
            }
        }
    }
    g_trace_state.store(on, std::memory_order_relaxed);
    return on;
}

} // namespace detail

void set_trace_enabled(bool on) noexcept {
    detail::g_trace_state.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::vector<SpanRecord> trace_records() {
    std::lock_guard<std::mutex> lock(g_records_mu);
    return g_records;
}

void reset_trace() {
    std::lock_guard<std::mutex> lock(g_records_mu);
    g_records.clear();
}

std::string current_span_path() {
    return t_open.empty() ? std::string() : t_open.back().path;
}

void set_thread_name(std::string_view name) noexcept {
    try {
        const std::uint32_t tid = thread_index();
        const std::lock_guard<std::mutex> lock(g_thread_names_mu);
        thread_names()[tid] = std::string(name);
    } catch (...) {
        // Allocation failure: the thread stays unnamed.
    }
}

void SpanScope::begin(const char* name) noexcept {
    try {
        std::string path;
        if (!t_open.empty()) {
            path.reserve(t_open.back().path.size() + 1 + std::strlen(name));
            path = t_open.back().path;
            path += '/';
            path += name;
        } else {
            path = name;
        }
        t_open.push_back({std::move(path)});
        active_ = true;
        t0_ = now_ns(); // last: exclude the bookkeeping above from the span
    } catch (...) {
        active_ = false; // allocation failure: drop the span, never throw
    }
}

void SpanScope::end() noexcept {
    const std::uint64_t t1 = now_ns();
    try {
        SpanRecord rec;
        rec.path = std::move(t_open.back().path);
        rec.start_ns = t0_;
        rec.dur_ns = t1 - t0_;
        rec.thread = thread_index();
        rec.depth = static_cast<std::uint32_t>(t_open.size() - 1);
        t_open.pop_back();
        std::lock_guard<std::mutex> lock(g_records_mu);
        g_records.push_back(std::move(rec));
    } catch (...) {
        if (!t_open.empty()) t_open.pop_back();
    }
}

std::vector<SpanTotal> span_totals() {
    // std::map keeps "a" < "a/b" < "a/c", so path order is a preorder walk
    // of the span tree.
    std::map<std::string, SpanTotal> agg;
    {
        std::lock_guard<std::mutex> lock(g_records_mu);
        for (const SpanRecord& r : g_records) {
            SpanTotal& t = agg[r.path];
            ++t.count;
            t.total_ns += r.dur_ns;
        }
    }
    std::vector<SpanTotal> out;
    out.reserve(agg.size());
    for (auto& [path, t] : agg) {
        t.path = path;
        out.push_back(std::move(t));
    }
    return out;
}

double leaf_seconds(const std::vector<SpanTotal>& totals, std::string_view leaf) {
    std::uint64_t ns = 0;
    for (const SpanTotal& t : totals) {
        const std::size_t slash = t.path.rfind('/');
        if (std::string_view(t.path).substr(
                slash == std::string::npos ? 0 : slash + 1) == leaf)
            ns += t.total_ns;
    }
    return static_cast<double>(ns) * 1e-9;
}

std::string format_duration(double ns) {
    char buf[64];
    if (ns >= 1e9)
        std::snprintf(buf, sizeof buf, "%.3f s", ns * 1e-9);
    else if (ns >= 1e6)
        std::snprintf(buf, sizeof buf, "%.3f ms", ns * 1e-6);
    else
        std::snprintf(buf, sizeof buf, "%.1f us", ns * 1e-3);
    return buf;
}

std::string trace_summary() {
    const std::vector<SpanTotal> totals = span_totals();
    std::string out = "trace summary (inclusive wall time):\n";
    if (totals.empty()) {
        out += "  (no spans recorded; is PGSI_TRACE set?)\n";
        return out;
    }
    const auto by_path = [](const SpanTotal& t, std::string_view p) {
        return t.path < p;
    };
    for (const SpanTotal& a : totals) {
        const std::string& path = a.path;
        std::size_t depth = 0;
        std::size_t last = 0;
        for (std::size_t i = 0; i < path.size(); ++i)
            if (path[i] == '/') {
                ++depth;
                last = i + 1;
            }
        // Share of the parent path's inclusive time, when the parent exists.
        double share = -1.0;
        if (depth > 0) {
            const std::string_view parent(path.data(), last - 1);
            const auto it = std::lower_bound(totals.begin(), totals.end(),
                                             parent, by_path);
            if (it != totals.end() && it->path == parent && it->total_ns > 0)
                share = 100.0 * static_cast<double>(a.total_ns) /
                        static_cast<double>(it->total_ns);
        }
        const int width = static_cast<int>(2 * depth < 32 ? 40 - 2 * depth : 8);
        char line[256];
        std::snprintf(line, sizeof line, "  %*s%-*s %10s  x%-6zu",
                      static_cast<int>(2 * depth), "", width, path.c_str() + last,
                      format_duration(static_cast<double>(a.total_ns)).c_str(),
                      a.count);
        out += line;
        if (share >= 0) {
            std::snprintf(line, sizeof line, " %5.1f%%", share);
            out += line;
        }
        out += '\n';
    }
    return out;
}

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char ch : s) {
        switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(static_cast<unsigned char>(ch)));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    // Magnitude first: the cast to long long is undefined beyond 2^63.
    if (std::abs(v) < 1e15 && v == std::trunc(v))
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string chrome_trace_json() {
    const std::vector<SpanRecord> records = trace_records();
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;

    // Metadata events first: the process label, then a thread_name for
    // every registered thread (and every thread that recorded a span), so
    // Perfetto shows "par.worker-3" instead of a bare tid.
    out += "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
           "\"args\":{\"name\":\"pgsi\"}}";
    first = false;
    {
        std::map<std::uint32_t, std::string> names;
        {
            const std::lock_guard<std::mutex> lock(g_thread_names_mu);
            names = thread_names();
        }
        for (const SpanRecord& r : records)
            names.emplace(r.thread, "thread-" + std::to_string(r.thread));
        for (const auto& [tid, name] : names) {
            char head[96];
            std::snprintf(head, sizeof head,
                          ",{\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                          "\"name\":\"thread_name\",\"args\":{\"name\":\"",
                          tid);
            out += head;
            out += json_escape(name);
            out += "\"}}";
        }
    }

    for (const SpanRecord& r : records) {
        // The event name is the leaf; the full path rides in args for
        // Perfetto's detail pane.
        const std::size_t slash = r.path.rfind('/');
        const std::string_view leaf =
            slash == std::string::npos
                ? std::string_view(r.path)
                : std::string_view(r.path).substr(slash + 1);
        char head[128];
        std::snprintf(head, sizeof head,
                      "%s{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"name\":\"",
                      first ? "" : ",", r.thread,
                      static_cast<double>(r.start_ns) * 1e-3,
                      static_cast<double>(r.dur_ns) * 1e-3);
        out += head;
        out += json_escape(leaf);
        out += "\",\"args\":{\"path\":\"";
        out += json_escape(r.path);
        out += "\"}}";
        first = false;
    }
    out += "]}";
    return out;
}

void write_chrome_trace_file(const std::string& path) {
    std::ofstream f(path);
    if (!f.good())
        throw Error("cannot open trace output file: " + path);
    f << chrome_trace_json();
    if (!f.good()) throw Error("failed writing trace output file: " + path);
}

} // namespace pgsi::obs

// Hierarchical tracing for the pgsi pipeline (obs subsystem).
//
// A span is one timed region of the EM -> circuit -> cosim flow
// ("bem.fill.potential", "transient.run", ...). Spans opened with
// PGSI_TRACE_SCOPE nest lexically: the recorder keeps a per-thread stack, so
// every completed span carries its full path ("ssn.simulate/transient.run/
// transient.factor") plus wall-clock start and duration. Two exporters are
// provided — a human-readable summary tree aggregated by path, and Chrome
// trace-event JSON that loads directly in chrome://tracing or Perfetto.
//
// Cost model: tracing is off unless PGSI_TRACE is set in the environment (or
// set_trace_enabled(true) is called). When off, a PGSI_TRACE_SCOPE costs one
// relaxed atomic load and nothing else — no clock read, no allocation, no
// lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pgsi::obs {

namespace detail {
// -1 = not yet initialized from the environment, 0 = off, 1 = on.
int trace_state_slow() noexcept;
extern std::atomic_int g_trace_state;
} // namespace detail

/// True when span recording is active. The hot path is a single relaxed
/// atomic load; the first call per process consults the PGSI_TRACE
/// environment variable.
inline bool trace_enabled() noexcept {
    const int s = detail::g_trace_state.load(std::memory_order_relaxed);
    return s < 0 ? detail::trace_state_slow() != 0 : s != 0;
}

/// Programmatic override of PGSI_TRACE (tools use this for --profile).
void set_trace_enabled(bool on) noexcept;

/// One completed span.
struct SpanRecord {
    std::string path;       ///< "parent/child/..." full nesting path
    std::uint64_t start_ns; ///< wall time since the trace epoch
    std::uint64_t dur_ns;   ///< wall duration
    std::uint32_t thread;   ///< dense per-process thread index
    std::uint32_t depth;    ///< nesting depth (0 = root)
};

/// Snapshot of every span completed so far (any thread).
std::vector<SpanRecord> trace_records();

/// Drop all recorded spans (enabled state is unchanged).
void reset_trace();

/// Path of the innermost span open on the calling thread ("" when none or
/// tracing is off) — used to attach span context to escaping errors.
std::string current_span_path();

/// RAII scope that records one span; prefer the PGSI_TRACE_SCOPE macro.
class SpanScope {
public:
    explicit SpanScope(const char* name) noexcept {
        if (trace_enabled()) begin(name);
    }
    ~SpanScope() {
        if (active_) end();
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    void begin(const char* name) noexcept;
    void end() noexcept;
    bool active_ = false;
    std::uint64_t t0_ = 0;
};

/// Label the calling thread for the Chrome-trace export ("main",
/// "par.worker-3"). Cheap (one mutex-guarded map insert); callable any
/// time, also before tracing is enabled. Never throws.
void set_thread_name(std::string_view name) noexcept;

/// Completed spans of one path, aggregated.
struct SpanTotal {
    std::string path;           ///< full nesting path
    std::size_t count = 0;      ///< completed spans with this path
    std::uint64_t total_ns = 0; ///< summed inclusive wall duration
};

/// Every completed span (any thread) aggregated by full path, in path
/// order. This is the one per-path aggregation: trace_summary(), the
/// SolveReport "spans" array and the stage-time readers all use it.
std::vector<SpanTotal> span_totals();

/// Summed inclusive wall time, in seconds, of the entries of `totals` whose
/// leaf (last path component) is `leaf`, wherever they nest.
double leaf_seconds(const std::vector<SpanTotal>& totals, std::string_view leaf);

/// Human-readable duration of `ns` nanoseconds ("12.3 us", "4.567 ms",
/// "1.234 s").
std::string format_duration(double ns);

/// Human-readable summary: one line per distinct path with call count,
/// inclusive wall time, and share of the enclosing span, indented as a tree.
std::string trace_summary();

/// Chrome trace-event JSON ("traceEvents" array of complete "X" events);
/// loads in chrome://tracing and Perfetto.
std::string chrome_trace_json();

/// Write chrome_trace_json() to a file. Throws pgsi::Error on I/O failure.
void write_chrome_trace_file(const std::string& path);

/// Escape a string for embedding in a JSON string literal (exposed for the
/// exporters and their tests).
std::string json_escape(std::string_view s);

/// JSON number literal: integral values below 1e15 in magnitude print
/// without an exponent, others round-trip with 17 significant digits, and
/// NaN or ±Inf (which JSON cannot represent) print as null.
std::string json_number(double v);

} // namespace pgsi::obs

#define PGSI_OBS_CONCAT2(a, b) a##b
#define PGSI_OBS_CONCAT(a, b) PGSI_OBS_CONCAT2(a, b)
#define PGSI_TRACE_SCOPE(name) \
    ::pgsi::obs::SpanScope PGSI_OBS_CONCAT(pgsi_obs_span_, __LINE__)(name)

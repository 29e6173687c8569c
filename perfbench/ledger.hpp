// Measurement plumbing of the whole-pipeline benchmark: wall clocks,
// order statistics, the named-metric list printed on the result line, an
// in-memory span recorder and the benchmark's own seeded generator.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions, so nothing inside src/ is instrumented. A
// span's name is "<layer>.<what>", where <layer> is a pgsi module
// (geometry, em, extract, si, circuit, serve) or "bench" for the
// benchmark's own bookkeeping. Spans nest on the driving thread. Each unit
// of work (a board, a plane sweep, a campaign) has one root span, and every
// span under it carries the unit id. Probes — extra calls made only to time
// one operation in isolation — carry unit -1 and stay out of the unit sums.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// Linear-interpolation quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// One named metric as printed on the result line.
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};
using Metrics = std::vector<Metric>;

/// One recorded span (times in seconds since the tracer was created).
struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1; ///< index of the enclosing span, -1 for a root
    int unit = -1;   ///< unit of work the span belongs to, -1 for probes
};

/// In-memory span recorder. While disabled, open/close cost one branch.
class Tracer {
public:
    void enable(bool on) { on_ = on; }
    bool enabled() const { return on_; }

    int open(std::string name, int unit);
    void close(int id);

    /// A fresh unit id, unique within the process.
    int new_unit() { return next_unit_++; }

    std::size_t size() const { return spans_.size(); }

    /// Self time (duration minus the time covered by child spans) summed per
    /// layer over the unit spans with index in [first, last).
    std::map<std::string, double> layer_self_seconds(std::size_t first,
                                                     std::size_t last) const;

    /// Total duration of the root unit spans with index in [first, last):
    /// the traced wall time of those units.
    double unit_wall_seconds(std::size_t first, std::size_t last) const;

    /// Total duration and number of the spans named `name` with index in
    /// [first, last), probes included.
    double total_seconds(const std::string& name, std::size_t first,
                         std::size_t last) const;
    std::size_t count(const std::string& name, std::size_t first,
                      std::size_t last) const;

    /// Write every span as a JSON array of objects.
    void write_json(const std::string& path) const;

private:
    bool on_ = false;
    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
    int next_unit_ = 0;
};

/// The process-wide tracer the workloads record into.
Tracer& tracer();

/// RAII span on the process-wide tracer; a no-op while tracing is off.
class Scope {
public:
    Scope(const char* name, int unit)
        : id_(tracer().enabled() ? tracer().open(name, unit) : -1) {}
    ~Scope() {
        if (id_ >= 0) tracer().close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    int id_;
};

/// Layer of a span name: the text before the first '.'.
std::string layer_of(const std::string& span_name);

/// Peak resident set size of this process [MB].
double peak_rss_mb();

/// SplitMix64: the benchmark's own seeded generator, so the library only
/// ever sees generated inputs.
class SplitMix64 {
public:
    explicit SplitMix64(unsigned long long seed) : state_(seed) {}
    unsigned long long next();
    /// Uniform integer in [0, n).
    std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi);

private:
    unsigned long long state_;
};

/// Fisher–Yates permutation of [0, n) drawn from `rng`.
std::vector<std::size_t> permutation(std::size_t n, SplitMix64& rng);

} // namespace perfbench

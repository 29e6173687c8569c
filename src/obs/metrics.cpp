#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "obs/trace.hpp"

namespace pgsi::obs {

void Histogram::record(double v) noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    if (s_.count == 0) {
        s_.min = v;
        s_.max = v;
    } else {
        s_.min = std::min(s_.min, v);
        s_.max = std::max(s_.max, v);
    }
    ++s_.count;
    s_.sum += v;
    std::size_t b = 0;
    if (v >= 1.0) {
        const int e = std::ilogb(v) + 1;
        b = std::min<std::size_t>(static_cast<std::size_t>(e), kBuckets - 1);
    }
    ++s_.buckets[b];
}

Histogram::Snapshot Histogram::snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return s_;
}

void Histogram::reset() {
    std::lock_guard<std::mutex> lock(mu_);
    s_ = Snapshot{0, 0, 0, 0, std::vector<std::uint64_t>(kBuckets, 0)};
}

double histogram_quantile(const Histogram::Snapshot& s, double q) {
    if (s.count == 0 || s.buckets.empty()) return 0;
    q = std::min(1.0, std::max(0.0, q));
    const double rank = q * static_cast<double>(s.count);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < s.buckets.size(); ++b) {
        if (s.buckets[b] == 0) continue;
        const std::uint64_t next = cum + s.buckets[b];
        if (static_cast<double>(next) >= rank) {
            // Bucket 0 holds [0, 1); bucket k >= 1 holds [2^(k-1), 2^k).
            const double lo = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
            const double hi = std::ldexp(1.0, static_cast<int>(b));
            const double frac =
                (rank - static_cast<double>(cum)) /
                static_cast<double>(s.buckets[b]);
            const double v = lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
            return std::min(s.max, std::max(s.min, v));
        }
        cum = next;
    }
    return s.max;
}

namespace {

// One registry per metric kind. Values are leaked intentionally: metrics may
// be touched from atexit handlers and worker threads, so they must outlive
// every static destructor.
template <class M>
struct Registry {
    std::mutex mu;
    std::map<std::string, M*, std::less<>> items;

    M& get(std::string_view name) {
        std::lock_guard<std::mutex> lock(mu);
        const auto it = items.find(name);
        if (it != items.end()) return *it->second;
        M* m = new M();
        items.emplace(std::string(name), m);
        return *m;
    }
};

Registry<Counter>& counters() {
    static Registry<Counter>* r = new Registry<Counter>();
    return *r;
}
Registry<Gauge>& gauges() {
    static Registry<Gauge>* r = new Registry<Gauge>();
    return *r;
}
Registry<Histogram>& histograms() {
    static Registry<Histogram>* r = new Registry<Histogram>();
    return *r;
}

void print_metrics_at_exit() {
    const std::string s = format_metrics();
    std::fprintf(stderr, "%s", s.c_str());
}

bool init_metrics_env() {
    const char* env = std::getenv("PGSI_METRICS");
    const bool on = env != nullptr && env[0] != '\0' && env[0] != '0';
    if (on) std::atexit(print_metrics_at_exit);
    return on;
}

} // namespace

Counter& counter(std::string_view name) {
    metrics_print_requested(); // arm the PGSI_METRICS exit dump once
    return counters().get(name);
}
Gauge& gauge(std::string_view name) {
    metrics_print_requested();
    return gauges().get(name);
}
Histogram& histogram(std::string_view name) {
    metrics_print_requested();
    return histograms().get(name);
}

bool metrics_print_requested() noexcept {
    static const bool on = init_metrics_env();
    return on;
}

std::string format_metrics() {
    std::string out = "metrics:\n";
    char line[256];
    {
        Registry<Counter>& r = counters();
        std::lock_guard<std::mutex> lock(r.mu);
        for (const auto& [name, c] : r.items) {
            std::snprintf(line, sizeof line, "  %-40s %llu\n", name.c_str(),
                          static_cast<unsigned long long>(c->value()));
            out += line;
        }
    }
    {
        Registry<Gauge>& r = gauges();
        std::lock_guard<std::mutex> lock(r.mu);
        for (const auto& [name, g] : r.items) {
            std::snprintf(line, sizeof line, "  %-40s %.6g\n", name.c_str(),
                          g->value());
            out += line;
        }
    }
    {
        Registry<Histogram>& r = histograms();
        std::lock_guard<std::mutex> lock(r.mu);
        for (const auto& [name, h] : r.items) {
            const Histogram::Snapshot s = h->snapshot();
            std::snprintf(line, sizeof line,
                          "  %-40s n=%llu mean=%.6g min=%.6g max=%.6g\n",
                          name.c_str(),
                          static_cast<unsigned long long>(s.count), s.mean(),
                          s.min, s.max);
            out += line;
        }
    }
    return out;
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const noexcept {
    for (const auto& [n, v] : counters)
        if (n == name) return v;
    return 0;
}

MetricsSnapshot metrics_snapshot() {
    MetricsSnapshot out;
    {
        Registry<Counter>& r = counters();
        std::lock_guard<std::mutex> lock(r.mu);
        out.counters.reserve(r.items.size());
        for (const auto& [name, c] : r.items)
            out.counters.emplace_back(name, c->value());
    }
    {
        Registry<Gauge>& r = gauges();
        std::lock_guard<std::mutex> lock(r.mu);
        out.gauges.reserve(r.items.size());
        for (const auto& [name, g] : r.items)
            out.gauges.emplace_back(name, g->value());
    }
    {
        Registry<Histogram>& r = histograms();
        std::lock_guard<std::mutex> lock(r.mu);
        out.histograms.reserve(r.items.size());
        for (const auto& [name, h] : r.items)
            out.histograms.emplace_back(name, h->snapshot());
    }
    return out;
}

std::string metrics_json() {
    const MetricsSnapshot snap = metrics_snapshot();
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto& [name, v] : snap.counters) {
        out += first ? "\"" : ",\"";
        out += json_escape(name);
        out += "\":";
        out += json_number(static_cast<double>(v));
        first = false;
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, v] : snap.gauges) {
        out += first ? "\"" : ",\"";
        out += json_escape(name);
        out += "\":";
        out += json_number(v);
        first = false;
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, s] : snap.histograms) {
        out += first ? "\"" : ",\"";
        out += json_escape(name);
        out += "\":{\"count\":";
        out += json_number(static_cast<double>(s.count));
        out += ",\"sum\":";
        out += json_number(s.sum);
        out += ",\"min\":";
        out += json_number(s.min);
        out += ",\"max\":";
        out += json_number(s.max);
        out += ",\"buckets\":{";
        bool bfirst = true;
        for (std::size_t k = 0; k < s.buckets.size(); ++k) {
            if (s.buckets[k] == 0) continue;
            char b[64];
            std::snprintf(b, sizeof b, "%s\"%zu\":%llu", bfirst ? "" : ",", k,
                          static_cast<unsigned long long>(s.buckets[k]));
            out += b;
            bfirst = false;
        }
        out += "}}";
        first = false;
    }
    out += "}}";
    return out;
}

void reset_metrics() {
    {
        Registry<Counter>& r = counters();
        std::lock_guard<std::mutex> lock(r.mu);
        for (auto& [name, c] : r.items) c->reset();
    }
    {
        Registry<Gauge>& r = gauges();
        std::lock_guard<std::mutex> lock(r.mu);
        for (auto& [name, g] : r.items) g->reset();
    }
    {
        Registry<Histogram>& r = histograms();
        std::lock_guard<std::mutex> lock(r.mu);
        for (auto& [name, h] : r.items) h->reset();
    }
}

} // namespace pgsi::obs

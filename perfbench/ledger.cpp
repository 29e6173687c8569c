#include "ledger.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

int Tracer::open(std::string name, int unit) {
    Span s;
    s.name = std::move(name);
    s.start = seconds_since(t0_);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.unit = unit;
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void Tracer::close(int id) {
    spans_[static_cast<std::size_t>(id)].end = seconds_since(t0_);
    // Scopes close in reverse order of opening, so `id` is on top.
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, double> Tracer::layer_self_seconds(std::size_t first,
                                                         std::size_t last) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (std::size_t i = first; i < last; ++i) {
        const Span& s = spans_[i];
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, double> self;
    for (std::size_t i = first; i < last; ++i) {
        const Span& s = spans_[i];
        if (s.unit < 0) continue;
        self[layer_of(s.name)] += (s.end - s.start) - child[i];
    }
    return self;
}

double Tracer::unit_wall_seconds(std::size_t first, std::size_t last) const {
    double t = 0;
    for (std::size_t i = first; i < last; ++i)
        if (spans_[i].parent < 0 && spans_[i].unit >= 0)
            t += spans_[i].end - spans_[i].start;
    return t;
}

double Tracer::total_seconds(const std::string& name, std::size_t first,
                             std::size_t last) const {
    double t = 0;
    for (std::size_t i = first; i < last; ++i)
        if (spans_[i].name == name) t += spans_[i].end - spans_[i].start;
    return t;
}

std::size_t Tracer::count(const std::string& name, std::size_t first,
                          std::size_t last) const {
    std::size_t n = 0;
    for (std::size_t i = first; i < last; ++i)
        if (spans_[i].name == name) ++n;
    return n;
}

void Tracer::write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                     "\"end_s\": %.9f, \"parent\": %d, \"unit\": %d}%s\n",
                     i, s.name.c_str(), s.start, s.end, s.parent, s.unit,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

Tracer& tracer() {
    static Tracer t;
    return t;
}

std::string layer_of(const std::string& span_name) {
    return span_name.substr(0, span_name.find('.'));
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

unsigned long long SplitMix64::next() {
    unsigned long long z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double SplitMix64::uniform(double lo, double hi) {
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
}

std::vector<std::size_t> permutation(std::size_t n, SplitMix64& rng) {
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = i;
    for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.below(i)]);
    return p;
}

} // namespace perfbench

// The three workloads of the whole-pipeline benchmark and what they share:
// the run configuration, the outcome record, reference-file access and the
// closed loop of the end-to-end runs. README.md in this directory
// says why each workload exists and which metrics each layer should move.
#pragma once

#include <cstddef>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "ledger.hpp"

namespace perfbench {

/// One benchmark invocation.
struct RunConfig {
    unsigned long long seed = 0; ///< workload seed: picks inputs and order
    double seconds = 10;         ///< measuring budget of the timed loop
    std::size_t threads = 1;     ///< pinned pgsi::par pool size
    std::string refs_dir;        ///< committed reference outputs
};

/// What one invocation measured and checked.
struct Outcome {
    std::size_t attempted = 0; ///< units attempted (boards, sweeps, jobs)
    std::size_t failed = 0;    ///< units that threw, failed or were off-reference
    /// Cross-checks that are not per unit: the traced path reproducing the
    /// untraced one, and work counts agreeing across thread counts.
    bool consistent = true;
    Metrics metrics;

    void unit(bool ok) {
        ++attempted;
        if (!ok) ++failed;
    }
    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    /// Record a cross-check; a failed one is reported on stderr.
    void check(bool ok, const std::string& what);
};

/// Resize the pgsi::par pool and run one dispatch so its workers exist
/// before the first timed call.
void pin_pool(std::size_t threads);

/// Stop the pool's workers, so the next pin_pool starts them afresh.
void stop_pool();

/// Parsed reference file `<refs_dir>/<workload>.json`.
pgsi::JsonValue load_refs(const RunConfig& cfg, const std::string& workload);

/// |got − ref| <= rel_tol · |ref|, for a finite `got` and a finite, non-zero
/// `ref`: a reference of 0 would admit only an exact 0, and every reference
/// summary of these workloads is a non-zero excursion or impedance.
bool close_rel(double got, double ref, double rel_tol);

/// `%.17g` rendering, so a written reference round-trips exactly. Throws on
/// a non-finite value, and on 0 unless `allow_zero`.
std::string exact(double v, bool allow_zero = false);

/// Write `text` to `<refs_dir>/<workload>.json`.
void write_file(const RunConfig& cfg, const std::string& workload,
                const std::string& text);

/// What one round of a closed loop did: per-unit latencies and outcomes.
struct RoundResult {
    std::vector<double> latencies; ///< one per unit [s]
    std::size_t attempted = 0;
    std::size_t failed = 0;
};

// Set-up repeats after each round. Spreading them over the run, rather than
// timing them back to back, samples the machine's speed the way the rounds
// do: on a shared host it drifts by tens of percent within seconds.
inline constexpr int kSetupsPerRound = 20;

/// Closed-loop end-to-end run. `setup()` pins the pool and builds the
/// workload inputs; each set-up starts from a stopped pool, so every one
/// pays the worker start. Reference outputs are the benchmark's own
/// bookkeeping and are read by the caller, outside the timed set-up. Rounds
/// run back to back, each starting when the previous one finished, until
/// `cfg.seconds` have passed; kSetupsPerRound set-ups follow each round.
/// setup_s is the median set-up and wall_s the median round. Throughput and
/// the job latency quantiles pool every round.
template <class Setup, class Round>
Outcome closed_loop(const RunConfig& cfg, Setup&& setup, Round&& round) {
    Outcome out;
    std::vector<double> setups;
    std::optional<decltype(setup())> inputs;
    auto set_up = [&] {
        inputs.reset();
        stop_pool();
        const auto t0 = Clock::now();
        inputs.emplace(setup());
        setups.push_back(seconds_since(t0));
    };

    set_up();
    std::vector<double> rounds, latencies;
    double timed = 0;
    const auto start = Clock::now();
    do {
        const auto t0 = Clock::now();
        const RoundResult rr = round(*inputs);
        rounds.push_back(seconds_since(t0));
        timed += rounds.back();
        latencies.insert(latencies.end(), rr.latencies.begin(), rr.latencies.end());
        out.attempted += rr.attempted;
        out.failed += rr.failed;
        for (int r = 0; r < kSetupsPerRound; ++r) set_up();
    } while (seconds_since(start) < cfg.seconds);

    out.add("setup_s", median(setups), "s");
    out.add("wall_s", median(rounds), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    // Throughput and job latency quantiles are printed for reading, not
    // reported as metrics: with a fixed number of units per round the
    // throughput is a constant over wall_s, and on a shared host the
    // latency quantiles spread beyond any usable bound (README.md).
    std::printf("# %zu rounds, %zu set-ups, %zu units, %.6g units/s; %zu job "
                "latency samples, p50 %.6g s, p99 %.6g s with %zu samples "
                "beyond it\n",
                rounds.size(), setups.size(), out.attempted,
                static_cast<double>(out.attempted - out.failed) / timed,
                latencies.size(), median(latencies), quantile(latencies, 0.99),
                latencies.size() / 100);
    return out;
}

// Per workload: the closed-loop end-to-end run, the traced per-layer ledger
// (appends its metrics to `out`), and the reference writer that recomputes
// the outputs of every input a seed can select.
Outcome ssn_end_to_end(const RunConfig& cfg);
void ssn_ledger(const RunConfig& cfg, Outcome& out);
void ssn_write_refs(const RunConfig& cfg);

Outcome pdn_end_to_end(const RunConfig& cfg);
void pdn_ledger(const RunConfig& cfg, Outcome& out);
void pdn_write_refs(const RunConfig& cfg);

Outcome batch_end_to_end(const RunConfig& cfg);
void batch_ledger(const RunConfig& cfg, Outcome& out);
void batch_write_refs(const RunConfig& cfg);

/// Per-layer ledger entries shared by the three workloads: traced and
/// untraced wall, tracing overhead, self time per layer, and the self time
/// and parallel efficiency of each layer at one thread against the pinned
/// count. `pinned` and `single` are the span ranges of the two traced
/// passes over the same units.
struct SpanRange {
    std::size_t first = 0, last = 0;
};
void add_layer_ledger(Outcome& out, const std::string& workload,
                      const std::vector<std::string>& layers,
                      double untraced_wall, SpanRange pinned, SpanRange single,
                      std::size_t threads);

} // namespace perfbench

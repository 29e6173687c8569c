// Numerical-health guards, recovery policies, and deterministic fault
// injection (pgsi::robust).
//
// The solve pipeline chains fragile numerical stages — BEM assembly, dense
// and iterative port-impedance solves, equivalent-circuit extraction, and
// nonlinear transient / SSN co-simulation. Production PDN flows survive the
// events that make any one stage fail (a zero pivot, a stalled GMRES, a
// diverging Newton iteration) with *staged recovery* instead of aborting the
// whole run. This header is the shared vocabulary:
//
//  * RecoveryPolicy / RecoveryOptions — how hard each stage tries before
//    giving up. `Strict` preserves the historical throw-on-failure behavior
//    exactly (tests that assert failure semantics opt into it); `Recover`
//    (the default) enables the per-stage ladders:
//      - transient: Newton divergence → backward-Euler retry → timestep cut
//        (factor `timestep_cut_factor`, up to `max_timestep_cuts` levels);
//      - DC operating point: gmin stepping, then source ramping;
//      - iterative EM solver: dense-LU fallback for a frequency whose
//        GMRES solve stalls.
//  * RecoveryReport — per-run record of every recovery taken, surfaced on
//    TransientResult / PartitionedCosim::Result so callers can see that a
//    result was rescued (and how) without scraping logs. Every recovery is
//    also counted in pgsi::obs ("robust.recoveries" plus one counter per
//    site), so recoveries show up in exported metrics.
//  * Finite guards — NaN/Inf checks at stage boundaries. A non-finite value
//    caught at a boundary names the stage instead of corrupting everything
//    downstream.
//  * CancelToken — poll-based cooperative cancellation with an optional
//    deadline, threaded through RecoveryOptions (and therefore through
//    SolverOptions / TransientOptions) so a batch engine can abandon a
//    stuck GMRES sweep or transient without killing the process. Engines
//    poll at their natural boundaries (per frequency, per time step) and
//    throw pgsi::Cancelled.
//  * FaultInjector — deterministic fault injection compiled into the
//    library. `PGSI_FAULT=<site>:<nth>[:<count>]` (comma-separated list) or
//    the programmatic arm() force a failure at the N-th call of a site, so
//    every recovery path above is exercised by ordinary tests instead of
//    rotting as dead branches. Known sites: `lu.pivot`, `gmres.stall`,
//    `transient.newton`, `dcop.diverge`, `serve.job`, `serve.deadline`,
//    `cache.evict`, `extract.cholesky`, `bem.cholesky`.
#pragma once

#include <atomic>
#include <cmath>
#include <complex>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace pgsi::robust {

/// How a stage responds to a numerical failure.
enum class RecoveryPolicy {
    Recover, ///< staged fallbacks before declaring failure (default)
    Strict   ///< historical behavior: first failure throws
};

/// Poll-based cooperative cancellation. A token is armed with cancel() (or
/// an absolute deadline) by one thread — typically a batch watchdog — and
/// polled by the solve engines on another: poll() throws pgsi::Cancelled at
/// the next cancellation point. The deadline is evaluated lazily inside
/// cancelled(), so a token with a deadline needs no watchdog thread to trip;
/// the watchdog only shortens the detection latency of flag-only polls.
/// cancelled() is a relaxed atomic load (plus one clock read while an unhit
/// deadline is pending), cheap enough for per-iteration polling.
class CancelToken {
public:
    CancelToken() = default;
    CancelToken(const CancelToken&) = delete;
    CancelToken& operator=(const CancelToken&) = delete;

    /// Trip the token. The first reason sticks; later calls are no-ops.
    void cancel(std::string reason) noexcept;

    /// Arm (or clear, seconds <= 0) a deadline `seconds` from now on the
    /// steady clock. Tripping via deadline sets deadline_expired().
    void set_deadline_after(double seconds) noexcept;

    /// Force the pending deadline to count as expired now (the watchdog's
    /// "serve.deadline" fault-injection hook uses this). No-op without a
    /// pending deadline.
    void expire_deadline() noexcept;

    /// True once cancelled — explicitly or because the deadline passed.
    bool cancelled() const noexcept;

    /// True when the cancellation came from the deadline.
    bool deadline_expired() const noexcept {
        return deadline_hit_.load(std::memory_order_acquire);
    }

    /// Why the token tripped ("" while not cancelled).
    std::string reason() const;

    /// Cancellation point: throws pgsi::Cancelled("<where>: <reason>") once
    /// the token tripped; otherwise returns immediately.
    void poll(const char* where) const;

private:
    void trip(std::string reason, bool from_deadline) const noexcept;

    mutable std::atomic_bool flag_{false};
    mutable std::atomic_bool deadline_hit_{false};
    /// Steady-clock deadline in ns since epoch; 0 = none armed.
    std::atomic<std::int64_t> deadline_ns_{0};
    /// First-trip reason, guarded by the mutex in robust.cpp helpers.
    mutable std::mutex reason_mu_;
    mutable std::string reason_;
};

/// Per-run recovery tuning, threaded from the top-level entry points
/// (TransientOptions, SolverOptions, SsnModelOptions) down to the stages.
struct RecoveryOptions {
    RecoveryPolicy policy = RecoveryPolicy::Recover;

    // Transient: on Newton non-convergence, re-advance the step with
    // `timestep_cut_factor`^level backward-Euler substeps, up to
    // `max_timestep_cuts` levels. (Delay-line transmission lines lock the
    // step size, so netlists with tlines skip the cut and fail as before.)
    int max_timestep_cuts = 3;
    int timestep_cut_factor = 8;

    // DC operating point: gmin stepping (a shunt `gmin` on every node,
    // shrunk by 10x per level from gmin_start over gmin_steps levels, then
    // removed), then source ramping (sources scaled 1/source_steps ...1).
    int gmin_steps = 8;
    double gmin_start = 1e-2;
    int source_steps = 8;

    /// 1-norm condition-number estimate above which a factorization emits a
    /// "robust.condition_warnings" counter tick (0 disables the estimate).
    double condition_warn_threshold = 1e12;

    /// Cooperative cancellation, polled by the engines these options reach
    /// (transient stepper per step, DC continuation per pass, both sweep
    /// backends per frequency). Not owned; must outlive the run. nullptr
    /// (default) disables polling.
    const CancelToken* cancel = nullptr;
};

/// One rung up the job-retry ladder: a strictly-more-forgiving copy of
/// `base`. Each rung deepens the transient timestep cutting and the DC
/// continuation, and sets the policy to Recover (which also opens the
/// iterative solver's dense fallback). Used by the batch engine, which
/// escalates a failing job one rung per retry; a clean solve is unaffected
/// by the rung, so escalated retries of healthy code paths stay
/// bit-identical.
RecoveryOptions escalate_one_rung(const RecoveryOptions& base);

/// One recovery (or health warning) taken during a run.
struct RecoveryEvent {
    std::string site;   ///< stable id, e.g. "transient.timestep_cut"
    std::string detail; ///< human-readable description
};

/// Everything pgsi::robust did to keep one run alive.
struct RecoveryReport {
    std::vector<RecoveryEvent> events;

    bool any() const noexcept { return !events.empty(); }
    std::size_t count(std::string_view site) const;
    void merge(const RecoveryReport& other);
    /// One line per event, for logs.
    std::string summary() const;
};

/// Record a recovery: appends to `report` (when non-null) and increments the
/// obs counters "robust.recoveries" and "robust.<site>".
void note_recovery(RecoveryReport* report, std::string_view site,
                   std::string detail);

/// Emit a condition warning when `kappa_estimate` exceeds the options
/// threshold: obs counter "robust.condition_warnings" plus a report event.
/// Returns true when the warning fired.
bool check_condition(double kappa_estimate, std::string_view what,
                     const RecoveryOptions& options, RecoveryReport* report);

// --- numerical-health guards ------------------------------------------------

inline bool is_finite(double v) noexcept { return std::isfinite(v); }
inline bool is_finite(const std::complex<double>& v) noexcept {
    return std::isfinite(v.real()) && std::isfinite(v.imag());
}

/// True when every element of the container is finite.
template <class Vec>
bool all_finite(const Vec& v) noexcept {
    for (const auto& e : v)
        if (!is_finite(e)) return false;
    return true;
}

namespace detail {
[[noreturn]] void fail_non_finite(const char* stage, std::size_t index);
} // namespace detail

/// Stage-boundary guard: throws NumericalError naming `stage` (and counts
/// "robust.nonfinite_detected") when the container holds a NaN or Inf.
template <class Vec>
void require_finite(const Vec& v, const char* stage) {
    std::size_t i = 0;
    for (const auto& e : v) {
        if (!is_finite(e)) detail::fail_non_finite(stage, i);
        ++i;
    }
}

// --- deterministic fault injection ------------------------------------------

/// Process-wide deterministic fault injection. Sites are compiled into the
/// library (`should_fire` at the point where the failure would originate);
/// arming happens either programmatically or through the PGSI_FAULT
/// environment variable, grammar
///
///     PGSI_FAULT=<site>:<nth>[:<count>][,<site>:<nth>[:<count>]...]
///
/// e.g. PGSI_FAULT=transient.newton:3:2 makes the 3rd and 4th calls of the
/// "transient.newton" site fail. `count` defaults to 1; 0 means every call
/// from the nth on. When nothing is armed, should_fire is one relaxed
/// atomic load.
class FaultInjector {
public:
    /// Arm `site` to fire on its nth call (1-based) and the `count - 1`
    /// following calls (count 0 = every call from the nth on). Re-arming a
    /// site resets its call count.
    static void arm(std::string_view site, std::uint64_t nth,
                    std::uint64_t count = 1);

    /// Disarm every site and reset all call counts (tests call this; the
    /// PGSI_FAULT environment variable is not re-read).
    static void disarm_all();

    /// Called at a fault site: counts the call and reports whether the
    /// injected fault fires here. Also ticks "robust.faults_injected" when
    /// it fires.
    static bool should_fire(const char* site);

    /// How many times `site` has fired so far.
    static std::uint64_t fire_count(std::string_view site);
};

} // namespace pgsi::robust

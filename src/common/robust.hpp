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
//  * RecoveryPolicy / RecoveryOptions — whether a stage tries its staged
//    recovery before giving up. `Strict` throws on the first failure
//    (tests that assert failure semantics opt into it); `Recover` (the
//    default) enables the per-stage ladders, whose depths are fixed
//    constants beside their single users:
//      - transient: Newton divergence → backward-Euler retry → timestep cut
//        (×8 substeps per level, up to 3 levels);
//      - DC operating point: gmin stepping (8 levels from 1e-2 S), then
//        source ramping (8 steps);
//      - iterative EM solver: dense-LU fallback for a frequency whose
//        GMRES solve stalls.
//    Extraction has no ladder: L and Ppot are SPD energy matrices, and a
//    failed Cholesky throws NumericalError under either policy.
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
//    `cache.evict`, `extract.cholesky`.
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

/// Per-run recovery settings, threaded from the top-level entry points
/// (TransientOptions, SolverOptions, SsnModelOptions) down to the stages.
struct RecoveryOptions {
    RecoveryPolicy policy = RecoveryPolicy::Recover;

    /// Cooperative cancellation, polled by the engines these options reach
    /// (transient stepper per step, DC continuation per pass, both sweep
    /// backends per frequency). Not owned; must outlive the run. nullptr
    /// (default) disables polling.
    const CancelToken* cancel = nullptr;
};

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

/// Emit a condition warning when `kappa_estimate` exceeds 1e12: obs
/// counter "robust.condition_warnings" plus a report event. Returns true
/// when the warning fired.
bool check_condition(double kappa_estimate, std::string_view what,
                     RecoveryReport* report);

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

#include "common/robust.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>

#include "obs/metrics.hpp"
#include "obs/stream.hpp"

namespace pgsi::robust {

namespace {

std::int64_t steady_now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

void CancelToken::trip(std::string reason, bool from_deadline) const noexcept {
    {
        const std::lock_guard<std::mutex> lock(reason_mu_);
        if (reason_.empty()) reason_ = std::move(reason);
    }
    if (from_deadline) deadline_hit_.store(true, std::memory_order_release);
    flag_.store(true, std::memory_order_release);
}

void CancelToken::cancel(std::string reason) noexcept {
    if (flag_.load(std::memory_order_acquire)) return;
    trip(std::move(reason), false);
}

void CancelToken::set_deadline_after(double seconds) noexcept {
    if (seconds <= 0) {
        deadline_ns_.store(0, std::memory_order_release);
        return;
    }
    const double ns = seconds * 1e9;
    deadline_ns_.store(
        steady_now_ns() + static_cast<std::int64_t>(std::min(ns, 9e18)),
        std::memory_order_release);
}

void CancelToken::expire_deadline() noexcept {
    if (deadline_ns_.load(std::memory_order_acquire) == 0) return;
    trip("deadline expired (forced)", true);
}

bool CancelToken::cancelled() const noexcept {
    if (flag_.load(std::memory_order_relaxed)) return true;
    const std::int64_t dl = deadline_ns_.load(std::memory_order_relaxed);
    if (dl != 0 && steady_now_ns() >= dl) {
        trip("deadline expired", true);
        return true;
    }
    return false;
}

std::string CancelToken::reason() const {
    if (!cancelled()) return {};
    const std::lock_guard<std::mutex> lock(reason_mu_);
    return reason_;
}

void CancelToken::poll(const char* where) const {
    if (!cancelled()) return;
    static obs::Counter& c = obs::counter("robust.cancellations");
    ++c;
    throw Cancelled(std::string(where) + ": cancelled — " + reason());
}

RecoveryOptions escalate_one_rung(const RecoveryOptions& base) {
    RecoveryOptions r = base;
    r.policy = RecoveryPolicy::Recover;
    r.max_timestep_cuts = base.max_timestep_cuts + 2;
    r.timestep_cut_factor = std::max(base.timestep_cut_factor, 8);
    r.gmin_steps = base.gmin_steps + 4;
    r.gmin_start = std::min(1e-1, base.gmin_start * 10);
    r.source_steps = base.source_steps * 2;
    return r;
}

std::size_t RecoveryReport::count(std::string_view site) const {
    std::size_t n = 0;
    for (const RecoveryEvent& e : events)
        if (e.site == site) ++n;
    return n;
}

void RecoveryReport::merge(const RecoveryReport& other) {
    events.insert(events.end(), other.events.begin(), other.events.end());
}

std::string RecoveryReport::summary() const {
    std::string out;
    for (const RecoveryEvent& e : events) {
        out += e.site;
        out += ": ";
        out += e.detail;
        out += '\n';
    }
    return out;
}

void note_recovery(RecoveryReport* report, std::string_view site,
                   std::string detail) {
    static obs::Counter& total = obs::counter("robust.recoveries");
    ++total;
    ++obs::counter(std::string("robust.") + std::string(site));
    if (obs::streams_enabled()) {
        // Flight-recorder timeline: every recovery in the process, in
        // order, as marks on one well-known series. The cached id goes
        // stale at reset_streams(); a fresh series is opened on the next
        // recovery after that.
        static std::mutex mu;
        static std::size_t sid = obs::kStreamNone;
        static std::uint64_t seq = 0;
        const std::lock_guard<std::mutex> lock(mu);
        if (!obs::stream_live(sid)) sid = obs::stream_open("robust.timeline");
        obs::stream_mark(sid, static_cast<double>(seq), site);
        ++seq;
    }
    if (report) report->events.push_back({std::string(site), std::move(detail)});
}

bool check_condition(double kappa_estimate, std::string_view what,
                     const RecoveryOptions& options, RecoveryReport* report) {
    if (options.condition_warn_threshold <= 0 ||
        !(kappa_estimate > options.condition_warn_threshold))
        return false;
    static obs::Counter& warnings = obs::counter("robust.condition_warnings");
    ++warnings;
    if (report)
        report->events.push_back(
            {"condition_warning",
             std::string(what) + ": estimated 1-norm condition number " +
                 std::to_string(kappa_estimate) + " exceeds " +
                 std::to_string(options.condition_warn_threshold)});
    return true;
}

namespace detail {

[[noreturn]] void fail_non_finite(const char* stage, std::size_t index) {
    static obs::Counter& detected = obs::counter("robust.nonfinite_detected");
    ++detected;
    throw NumericalError(std::string(stage) +
                         ": non-finite value at index " + std::to_string(index));
}

} // namespace detail

namespace {

struct FaultSite {
    std::uint64_t nth = 0;   // 1-based call index of the first firing
    std::uint64_t count = 1; // consecutive firings (0 = unbounded)
    std::uint64_t calls = 0;
    std::uint64_t fired = 0;
};

struct FaultState {
    std::mutex mu;
    std::map<std::string, FaultSite, std::less<>> sites;
    std::atomic_bool any_armed{false};
    std::atomic_bool env_checked{false};
};

FaultState& fault_state() {
    static FaultState s;
    return s;
}

// Parse PGSI_FAULT (once, under the state mutex). Malformed entries are
// ignored rather than fatal: fault injection is a test facility and must
// never take a production run down by itself.
void parse_env_locked(FaultState& s) {
    if (s.env_checked.load(std::memory_order_relaxed)) return;
    const char* env = std::getenv("PGSI_FAULT");
    if (!env || !*env) {
        s.env_checked.store(true, std::memory_order_release);
        return;
    }
    std::string_view rest(env);
    while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        std::string_view entry = rest.substr(0, comma);
        rest = comma == std::string_view::npos ? std::string_view{}
                                               : rest.substr(comma + 1);
        const std::size_t c1 = entry.find(':');
        if (c1 == std::string_view::npos || c1 == 0) continue;
        const std::string site(entry.substr(0, c1));
        std::string_view nums = entry.substr(c1 + 1);
        const std::size_t c2 = nums.find(':');
        FaultSite fs;
        try {
            fs.nth = std::stoull(std::string(nums.substr(0, c2)));
            if (c2 != std::string_view::npos)
                fs.count = std::stoull(std::string(nums.substr(c2 + 1)));
        } catch (const std::exception&) {
            continue;
        }
        if (fs.nth == 0) continue;
        s.sites[site] = fs;
    }
    s.any_armed.store(!s.sites.empty(), std::memory_order_release);
    s.env_checked.store(true, std::memory_order_release);
}

} // namespace

void FaultInjector::arm(std::string_view site, std::uint64_t nth,
                        std::uint64_t count) {
    PGSI_REQUIRE(nth >= 1, "FaultInjector: nth is 1-based");
    FaultState& s = fault_state();
    const std::lock_guard<std::mutex> lock(s.mu);
    parse_env_locked(s);
    s.sites[std::string(site)] = FaultSite{nth, count, 0, 0};
    s.any_armed.store(true, std::memory_order_release);
}

void FaultInjector::disarm_all() {
    FaultState& s = fault_state();
    const std::lock_guard<std::mutex> lock(s.mu);
    // An explicit disarm overrides the environment.
    s.env_checked.store(true, std::memory_order_release);
    s.sites.clear();
    s.any_armed.store(false, std::memory_order_release);
}

bool FaultInjector::should_fire(const char* site) {
    FaultState& s = fault_state();
    if (!s.env_checked.load(std::memory_order_acquire)) {
        const std::lock_guard<std::mutex> lock(s.mu);
        parse_env_locked(s);
    }
    // Fast path when nothing is armed: one relaxed atomic load per call.
    if (!s.any_armed.load(std::memory_order_acquire)) return false;
    const std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.sites.find(std::string_view(site));
    if (it == s.sites.end()) return false;
    FaultSite& fs = it->second;
    ++fs.calls;
    const bool fire = fs.calls >= fs.nth &&
                      (fs.count == 0 || fs.calls < fs.nth + fs.count);
    if (fire) {
        ++fs.fired;
        static obs::Counter& injected = obs::counter("robust.faults_injected");
        ++injected;
    }
    return fire;
}

std::uint64_t FaultInjector::fire_count(std::string_view site) {
    FaultState& s = fault_state();
    const std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.sites.find(site);
    return it == s.sites.end() ? 0 : it->second.fired;
}

} // namespace pgsi::robust

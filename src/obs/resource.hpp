// Resource accounting: allocation attribution and peak RSS (obs subsystem).
//
// When enabled, every pgsi::Matrix construction reports its payload size
// here and the recorder ticks process-wide counters plus a per-subsystem
// byte counter ("alloc.em.assembly.bytes", ...). The subsystem is a
// thread-local tag set by an AllocScope at pipeline entry points; work done
// on pool workers outside any scope lands in "untagged". The counters are
// cumulative construction totals, not live occupancy — Matrix keeps its
// rule-of-zero and destruction is never tracked. A histogram of per-matrix
// bytes ("alloc.matrix.bytes_per_alloc") makes the largest single
// allocation visible.
//
// Cost model (mirrors trace.hpp / stream.hpp): off unless PGSI_RESOURCES is
// set or set_resources_enabled(true) is called. When off, a Matrix
// construction pays exactly one relaxed atomic load; AllocScope is two
// thread-local pointer writes either way (it sits at entry points, not in
// loops).
#pragma once

#include <atomic>
#include <cstddef>

namespace pgsi::obs {

namespace detail {
// -1 = not yet initialized from the environment, 0 = off, 1 = on.
int resource_state_slow() noexcept;
extern std::atomic_int g_resource_state;
void note_matrix_alloc_slow(std::size_t bytes) noexcept;
extern constinit thread_local const char* t_alloc_tag;
} // namespace detail

/// True when resource accounting is active. The hot path is a single
/// relaxed atomic load; the first call per process consults PGSI_RESOURCES.
inline bool resources_enabled() noexcept {
    const int s = detail::g_resource_state.load(std::memory_order_relaxed);
    return s < 0 ? detail::resource_state_slow() != 0 : s != 0;
}

/// Programmatic override of PGSI_RESOURCES (tools use this for --report).
void set_resources_enabled(bool on) noexcept;

/// Called by Matrix constructors. One relaxed atomic load when disabled.
inline void note_matrix_alloc(std::size_t bytes) noexcept {
    if (resources_enabled()) detail::note_matrix_alloc_slow(bytes);
}

/// RAII thread-local subsystem tag for allocation attribution. The tag must
/// be a string literal (or otherwise outlive the scope); scopes nest, inner
/// tags win.
class AllocScope {
public:
    explicit AllocScope(const char* subsystem) noexcept
        : prev_(detail::t_alloc_tag) {
        detail::t_alloc_tag = subsystem;
    }
    ~AllocScope() { detail::t_alloc_tag = prev_; }
    AllocScope(const AllocScope&) = delete;
    AllocScope& operator=(const AllocScope&) = delete;

private:
    const char* prev_;
};

/// Peak resident set size of this process in bytes (VmHWM on Linux);
/// 0 when the platform does not expose it. Never throws.
std::size_t peak_rss_bytes() noexcept;

} // namespace pgsi::obs

#ifndef PGSI_OBS_CONCAT
#define PGSI_OBS_CONCAT2(a, b) a##b
#define PGSI_OBS_CONCAT(a, b) PGSI_OBS_CONCAT2(a, b)
#endif
#define PGSI_ALLOC_SCOPE(tag) \
    ::pgsi::obs::AllocScope PGSI_OBS_CONCAT(pgsi_obs_alloc_, __LINE__)(tag)

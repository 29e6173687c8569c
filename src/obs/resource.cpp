#include "obs/resource.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/metrics.hpp"

namespace pgsi::obs {

namespace detail {
std::atomic_int g_resource_state{-1};
constinit thread_local const char* t_alloc_tag = nullptr;

int resource_state_slow() noexcept {
    // Racing first calls store identical state; the race is benign.
    int on = 0;
    if (const char* env = std::getenv("PGSI_RESOURCES"))
        if (env[0] != '\0' && std::strcmp(env, "0") != 0) on = 1;
    g_resource_state.store(on, std::memory_order_relaxed);
    return on;
}

void note_matrix_alloc_slow(std::size_t bytes) noexcept {
    try {
        static Counter& count = counter("alloc.matrix.count");
        static Counter& total = counter("alloc.matrix.bytes");
        static Histogram& hist = histogram("alloc.matrix.bytes_per_alloc");
        ++count;
        total.add(bytes);
        hist.record(static_cast<double>(bytes));

        // Per-subsystem attribution. Tags are string literals, so caching
        // the last (tag pointer -> counter) pair per thread turns the
        // registry lookup into a pointer compare on the hot path.
        const char* tag = t_alloc_tag != nullptr ? t_alloc_tag : "untagged";
        thread_local const char* cached_tag = nullptr;
        thread_local Counter* cached_counter = nullptr;
        if (tag != cached_tag) {
            cached_counter = &counter(std::string("alloc.") + tag + ".bytes");
            cached_tag = tag;
        }
        cached_counter->add(bytes);
    } catch (...) {
        // Registry allocation failure: drop the sample, never throw.
    }
}
} // namespace detail

void set_resources_enabled(bool on) noexcept {
    detail::g_resource_state.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::size_t peak_rss_bytes() noexcept {
#ifdef __linux__
    // VmHWM ("high water mark") is the peak resident set in kB.
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0;
    char line[256];
    std::size_t kb = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kb = static_cast<std::size_t>(std::strtoull(line + 6, nullptr, 10));
            break;
        }
    }
    std::fclose(f);
    return kb * 1024;
#else
    return 0;
#endif
}

} // namespace pgsi::obs

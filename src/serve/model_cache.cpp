#include "serve/model_cache.hpp"

#include <cstdio>
#include <cstring>

#include "common/error.hpp"
#include "common/robust.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/trace.hpp"
#include "si/board_file.hpp"

namespace pgsi::serve {

namespace {

std::uint64_t fnv_bytes(const void* data, std::size_t size,
                        std::uint64_t h) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t fnv_str(const std::string& s, std::uint64_t h) noexcept {
    return fnv_bytes(s.data(), s.size(), h);
}

obs::Counter& c_hits() {
    static obs::Counter& c = obs::counter("serve.cache.hits");
    return c;
}
obs::Counter& c_misses() {
    static obs::Counter& c = obs::counter("serve.cache.misses");
    return c;
}
obs::Counter& c_evictions() {
    static obs::Counter& c = obs::counter("serve.cache.evictions");
    return c;
}
obs::Counter& c_waits() {
    static obs::Counter& c = obs::counter("serve.cache.single_flight_waits");
    return c;
}
obs::Gauge& g_bytes() {
    static obs::Gauge& g = obs::gauge("serve.cache.bytes");
    return g;
}

} // namespace

std::uint64_t model_key(const Board& board, const SsnModelOptions& options) {
    std::uint64_t h = fnv_str(board_file_string(board), 1469598103934665603ull);
    // The board-file format carries no signal nets, but SsnModel stamps them
    // off the cached board — two boards differing only in nets must not
    // share an entry.
    for (const SignalNet& net : board.signal_nets()) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "|net %zu z0=%.17g delay=%.17g rxc=%.17g term=%.17g",
                      net.driver_site, net.z0, net.delay, net.receiver_c,
                      net.term_r);
        h = fnv_bytes(buf, std::strlen(buf), h);
    }
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "|opt pitch=%.17g interior=%zu testing=%d prune=%.17g "
                  "vrm_r=%.17g vrm_l=%.17g",
                  options.mesh_pitch, options.interior_nodes,
                  static_cast<int>(options.testing), options.prune_rel_tol,
                  options.vrm_r, options.vrm_l);
    return fnv_bytes(buf, std::strlen(buf), h);
}

std::size_t estimated_model_bytes(const PlaneModel& model) {
    const std::size_t n = model.bem().node_count();
    const std::size_t b = model.bem().mesh().branch_count();
    const std::size_t c = model.circuit().node_count();
    // Dominant dense payloads: potential (n²), branch inductance (b²), and
    // the extraction's reduced dense blocks (a few c² scratch/result
    // matrices). The branch list and node arrays are charged linearly; a
    // small constant covers mesh bookkeeping.
    return sizeof(double) * (n * n + b * b + 4 * c * c) +
           sizeof(RlcBranch) * model.circuit().branches.size() + (1u << 14);
}

ModelCache::ModelCache(std::size_t budget_bytes) : budget_(budget_bytes) {}

ModelCache& ModelCache::instance() {
    static ModelCache cache;
    return cache;
}

bool ModelCache::evict_lru_locked(std::uint64_t protect) {
    std::uint64_t victim = 0;
    std::uint64_t oldest = 0;
    bool found = false;
    for (const auto& [key, entry] : entries_) {
        if (entry->building || key == protect) continue;
        if (!found || entry->tick < oldest) {
            victim = key;
            oldest = entry->tick;
            found = true;
        }
    }
    if (!found) return false;
    const auto it = entries_.find(victim);
    bytes_ -= it->second->bytes;
    entries_.erase(it);
    ++stats_.evictions;
    ++c_evictions();
    g_bytes().set(static_cast<double>(bytes_));
    return true;
}

void ModelCache::evict_to_budget_locked(std::uint64_t protect) {
    while (bytes_ > budget_)
        if (!evict_lru_locked(protect)) break;
}

std::shared_ptr<const PlaneModel> ModelCache::acquire(
    const Board& board, const SsnModelOptions& options, bool* cache_hit) {
    PGSI_TRACE_SCOPE("serve.cache.acquire");
    const std::uint64_t key = model_key(board, options);
    std::shared_ptr<Entry> mine;
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            const auto it = entries_.find(key);
            if (it == entries_.end()) break;
            const std::shared_ptr<Entry> entry = it->second;
            if (!entry->building) {
                entry->tick = ++tick_;
                ++stats_.hits;
                ++c_hits();
                if (cache_hit != nullptr) *cache_hit = true;
                return entry->model;
            }
            // Someone else is building this geometry right now: wait for
            // them instead of duplicating the most expensive step. A failed
            // build erases the entry and we fall through to build ourselves.
            ++stats_.single_flight_waits;
            ++c_waits();
            cv_.wait(lock);
        }
        mine = std::make_shared<Entry>();
        entries_.emplace(key, mine);
        ++stats_.misses;
        ++c_misses();
        if (cache_hit != nullptr) *cache_hit = false;
    }

    std::shared_ptr<const PlaneModel> model;
    try {
        PGSI_ALLOC_SCOPE("serve.model_build");
        model = std::make_shared<const PlaneModel>(board, options);
    } catch (...) {
        const std::lock_guard<std::mutex> lock(mu_);
        const auto it = entries_.find(key);
        if (it != entries_.end() && it->second == mine) entries_.erase(it);
        cv_.notify_all();
        throw;
    }

    const std::lock_guard<std::mutex> lock(mu_);
    mine->model = model;
    mine->bytes = estimated_model_bytes(*model);
    mine->building = false;
    mine->tick = ++tick_;
    bytes_ += mine->bytes;
    // Deterministic eviction hook: lets tests drive the eviction path on
    // kilobyte-sized fixtures instead of filling a real byte budget.
    if (robust::FaultInjector::should_fire("cache.evict"))
        evict_lru_locked(key);
    evict_to_budget_locked(key);
    g_bytes().set(static_cast<double>(bytes_));
    cv_.notify_all();
    return model;
}

ModelCache::Stats ModelCache::stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    Stats s = stats_;
    s.entries = entries_.size();
    s.bytes = bytes_;
    return s;
}

std::size_t ModelCache::budget_bytes() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return budget_;
}

void ModelCache::set_budget_bytes(std::size_t bytes) {
    const std::lock_guard<std::mutex> lock(mu_);
    budget_ = bytes;
    evict_to_budget_locked(0);
}

void ModelCache::clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->second->building) {
            ++it;
            continue;
        }
        bytes_ -= it->second->bytes;
        it = entries_.erase(it);
    }
    g_bytes().set(static_cast<double>(bytes_));
}

} // namespace pgsi::serve

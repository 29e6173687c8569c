// Shared plane-model cache of the batch engine (pgsi::serve).
//
// Building a PlaneModel — meshing the board, assembling the BEM operators,
// extracting the equivalent circuit — dominates the cost of small jobs, and
// real campaigns hammer the same few geometries (a decap study sweeps
// placements over one board; a what-if sweep perturbs one parameter at a
// time). The cache shares one immutable PlaneModel per distinct
// (geometry, extraction options) across every job in the process:
//
//  * Keying — model_key() hashes the canonical board-file serialization of
//    the geometry plus the extraction knobs, so two Board objects built
//    through different code paths but describing the same plane share an
//    entry, while any knob that changes the extraction (pitch, interior
//    nodes, pruning, regulator parasitics) forks one.
//  * Byte budget — each entry is charged a structural estimate of its dense
//    payloads (the same Matrix-payload accounting the obs resource recorder
//    audits); when the total passes the budget the least-recently-used
//    entries are evicted. Eviction only drops the cache's reference:
//    jobs still holding the shared_ptr keep their model alive.
//  * Single-flight — concurrent requests for the same key block on the one
//    builder instead of duplicating the most expensive step in the system;
//    a failed build wakes the waiters and the next one retries.
//
// Counters: serve.cache.hits / misses / evictions / single_flight_waits,
// gauge serve.cache.bytes. Fault site "cache.evict" forces an LRU eviction
// on the call where it fires, so eviction is testable without gigabyte
// fixtures.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "si/cosim.hpp"

namespace pgsi::serve {

/// Cache key of (board geometry, extraction options): FNV-1a over the
/// canonical board-file serialization, the signal-net descriptors (the file
/// format does not carry them, but SsnModel reads them off the cached
/// board), and every SsnModelOptions field.
std::uint64_t model_key(const Board& board, const SsnModelOptions& options);

/// Structural estimate of one model's resident bytes: the dense BEM
/// interaction matrices (potential n², inductance b²) plus the reduced
/// circuit's dense blocks and branch list. No serve path fills the n²
/// Maxwell capacitance, so it is not charged.
std::size_t estimated_model_bytes(const PlaneModel& model);

/// Process-shared LRU cache of immutable plane models. All methods are
/// thread safe.
class ModelCache {
public:
    static constexpr std::size_t kDefaultBudget = 256ull << 20;

    explicit ModelCache(std::size_t budget_bytes = kDefaultBudget);

    /// Cumulative counters plus the current footprint.
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t single_flight_waits = 0; ///< waits behind a builder
        std::size_t entries = 0;               ///< resident entries now
        std::size_t bytes = 0;                 ///< charged bytes now
        double hit_rate() const noexcept {
            const double total = static_cast<double>(hits + misses);
            return total > 0 ? static_cast<double>(hits) / total : 0.0;
        }
    };

    /// The model for this geometry: cached when present, built (once, even
    /// under concurrent requests) when not. `cache_hit`, when non-null, is
    /// set to whether the model came from the cache. Build failures
    /// propagate to the caller that was building; blocked waiters retry.
    std::shared_ptr<const PlaneModel> acquire(const Board& board,
                                              const SsnModelOptions& options,
                                              bool* cache_hit = nullptr);

    Stats stats() const;
    std::size_t budget_bytes() const;
    /// Re-budget; evicts immediately when the new budget is tighter.
    void set_budget_bytes(std::size_t bytes);
    /// Drop every resident entry (cumulative stats survive).
    void clear();

    /// The process-wide instance batch engines share by default.
    static ModelCache& instance();

private:
    struct Entry {
        std::shared_ptr<const PlaneModel> model; ///< null while building
        std::size_t bytes = 0;
        std::uint64_t tick = 0; ///< last-use stamp for LRU ordering
        bool building = true;
    };

    /// Evict the least-recently-used ready entry other than `protect`
    /// (0 = nothing protected). Returns false when no entry is evictable.
    bool evict_lru_locked(std::uint64_t protect);
    void evict_to_budget_locked(std::uint64_t protect);

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::map<std::uint64_t, std::shared_ptr<Entry>> entries_;
    std::size_t budget_ = kDefaultBudget;
    std::size_t bytes_ = 0;
    std::uint64_t tick_ = 0;
    Stats stats_;
};

} // namespace pgsi::serve

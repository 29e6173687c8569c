// Thread-safe lazily computed member (pgsi::Lazy).
//
// The assembled operators cache their frequency-independent matrices on
// first use, and one cached model is shared by concurrent jobs (pgsi::serve).
// Lazy<T> makes such a first use safe: the first get() runs the fill under a
// per-member mutex, concurrent first callers wait for it, and every caller
// gets the same object. A fill that throws leaves the member empty, so the
// next get() runs the fill again. The lock state lives on the heap, so the
// owning class stays movable; a moved-from Lazy must not be used.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>

namespace pgsi {

template <class T>
class Lazy {
public:
    /// The value, running `fill()` (which returns a T) on first use.
    template <class Fill>
    const T& get(Fill&& fill) const {
        Cell& c = *cell_;
        if (!c.ready.load()) {
            const std::lock_guard<std::mutex> lock(c.mu);
            if (!c.ready.load()) {
                c.value.emplace(fill());
                c.ready.store(true);
            }
        }
        return *c.value;
    }

private:
    struct Cell {
        std::mutex mu;
        std::atomic_bool ready{false};
        std::optional<T> value;
    };
    std::unique_ptr<Cell> cell_ = std::make_unique<Cell>();
};

} // namespace pgsi

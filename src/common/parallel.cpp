#include "common/parallel.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/trace.hpp"

namespace pgsi::par {

namespace {

thread_local bool t_in_region = false;

std::uint64_t steady_now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

// One parallel_for invocation: an atomic cursor over [0, n) plus completion
// bookkeeping. Workers (and the caller) pull chunks until the cursor passes
// n; the first exception parks the cursor at n so everyone drains fast.
struct Job {
    std::size_t n = 0;
    std::size_t grain = 1;
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::atomic<std::size_t> cursor{0};
    std::exception_ptr error;
    std::mutex error_mu;

    void run_chunks() noexcept {
        for (;;) {
            const std::size_t begin = cursor.fetch_add(grain, std::memory_order_relaxed);
            if (begin >= n) return;
            const std::size_t end = std::min(begin + grain, n);
            try {
                (*body)(begin, end);
            } catch (...) {
                {
                    const std::lock_guard<std::mutex> lock(error_mu);
                    if (!error) error = std::current_exception();
                }
                cursor.store(n, std::memory_order_relaxed); // cancel the rest
                return;
            }
        }
    }
};

// Process-wide pool. Workers sleep on a condition variable between jobs; a
// job is published by bumping a generation counter. Only one job runs at a
// time (region_mu_ serializes top-level parallel_fors; nested calls never
// reach the pool).
class Pool {
public:
    static Pool& instance() {
        static Pool p;
        return p;
    }

    // Lock-free so kernels may ask for the count from inside a region.
    std::size_t threads() const {
        return threads_configured_.load(std::memory_order_relaxed);
    }

    void set_threads(std::size_t n) {
        const std::lock_guard<std::mutex> lock(region_mu_);
        if (n == 0) n = auto_thread_count();
        if (n == threads_configured_.load(std::memory_order_relaxed)) return;
        stop_workers();
        threads_configured_.store(n, std::memory_order_relaxed);
        start_workers();
    }

    void run(std::size_t n, std::size_t grain,
             const std::function<void(std::size_t, std::size_t)>& body) {
        if (n == 0) return;
        if (grain == 0) {
            // ~4 chunks per thread: coarse enough to amortize dispatch,
            // fine enough to balance uneven bodies.
            const std::size_t target = 4 * threads();
            grain = std::max<std::size_t>(1, (n + target - 1) / target);
        }
        // Nested (or recursive) use: the outer level owns the workers.
        if (t_in_region) {
            body(0, n);
            return;
        }
        const std::lock_guard<std::mutex> region(region_mu_);
        Job job;
        job.n = n;
        job.grain = grain;
        job.body = &body;
        const bool account = obs::resources_enabled();
        if (account) note_dispatch(n, grain);
        const std::size_t nworkers = workers_.size();
        if (nworkers > 0 && n > grain) {
            {
                const std::lock_guard<std::mutex> lock(mu_);
                job_ = &job;
                ++generation_;
            }
            work_cv_.notify_all();
            t_in_region = true;
            run_chunks_timed(job, 0, account);
            t_in_region = false;
            // Every chunk is claimed once the caller's own loop returns.
            // Retire the job so late wakers skip it, then wait only for the
            // workers that joined: they may still be running a chunk.
            std::unique_lock<std::mutex> lock(mu_);
            job_ = nullptr;
            done_cv_.wait(lock, [&] { return joined_ == 0; });
        } else {
            t_in_region = true;
            run_chunks_timed(job, 0, account);
            t_in_region = false;
        }
        if (job.error) std::rethrow_exception(job.error);
    }

    PoolStats stats() {
        const std::lock_guard<std::mutex> lock(region_mu_);
        PoolStats s;
        s.threads = threads();
        s.jobs = jobs_.load(std::memory_order_relaxed);
        s.items = items_.load(std::memory_order_relaxed);
        s.wall_ns = steady_now_ns() - stats_epoch_ns_.load(std::memory_order_relaxed);
        s.busy_ns.resize(s.threads, 0);
        for (std::size_t i = 0; i < s.threads && i < kMaxSlots; ++i)
            s.busy_ns[i] = busy_ns_[i].load(std::memory_order_relaxed);
        return s;
    }

    void reset_stats() {
        const std::lock_guard<std::mutex> lock(region_mu_);
        jobs_.store(0, std::memory_order_relaxed);
        items_.store(0, std::memory_order_relaxed);
        for (std::size_t i = 0; i < kMaxSlots; ++i)
            busy_ns_[i].store(0, std::memory_order_relaxed);
        stats_epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
    }

private:
    Pool() : busy_ns_(kMaxSlots) {
        stats_epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
        threads_configured_.store(auto_thread_count(), std::memory_order_relaxed);
        start_workers();
    }

    // Slot-attributed busy time. Gated on the caller's resources_enabled()
    // check so the job-free hot path stays two clock reads at most.
    void run_chunks_timed(Job& job, std::size_t slot, bool account) noexcept {
        if (!account) {
            job.run_chunks();
            return;
        }
        const std::uint64_t t0 = steady_now_ns();
        job.run_chunks();
        const std::uint64_t t1 = steady_now_ns();
        if (slot < kMaxSlots)
            busy_ns_[slot].fetch_add(t1 - t0, std::memory_order_relaxed);
    }

    void note_dispatch(std::size_t n, std::size_t grain) noexcept {
        jobs_.fetch_add(1, std::memory_order_relaxed);
        items_.fetch_add(n, std::memory_order_relaxed);
        try {
            // Queue depth at dispatch = chunks this job fans out into.
            static obs::Counter& jobs = obs::counter("par.jobs");
            static obs::Histogram& chunks = obs::histogram("par.chunks_per_job");
            static obs::Histogram& items = obs::histogram("par.items_per_job");
            ++jobs;
            chunks.record(static_cast<double>((n + grain - 1) / grain));
            items.record(static_cast<double>(n));
        } catch (...) {
        }
    }

    ~Pool() {
        const std::lock_guard<std::mutex> lock(region_mu_);
        stop_workers();
    }

    static std::size_t auto_thread_count() {
        const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
        return parse_thread_count(std::getenv("PGSI_THREADS"), hw);
    }

    void start_workers() {
        std::uint64_t gen;
        {
            const std::lock_guard<std::mutex> lock(mu_);
            stop_ = false;
            gen = generation_;
        }
        const std::size_t configured = threads();
        const std::size_t nworkers = configured > 0 ? configured - 1 : 0;
        workers_.reserve(nworkers);
        for (std::size_t i = 0; i < nworkers; ++i)
            workers_.emplace_back([this, gen, i] { worker_loop(gen, i + 1); });
    }

    void stop_workers() {
        {
            const std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        work_cv_.notify_all();
        for (std::thread& t : workers_) t.join();
        workers_.clear();
    }

    // seen starts at the generation captured when this worker was spawned
    // (no job can be in flight then — reconfiguration holds region_mu_), so
    // a fresh worker does not wake for a job retired before it existed. A
    // worker joins a job only while job_ is set, counting itself in joined_
    // under mu_; the caller retires job_ before waiting on that count, so a
    // worker that wakes late never touches the caller's stack Job.
    void worker_loop(std::uint64_t seen, std::size_t slot) {
        obs::set_thread_name("par.worker-" + std::to_string(slot));
        for (;;) {
            Job* job = nullptr;
            {
                std::unique_lock<std::mutex> lock(mu_);
                work_cv_.wait(lock,
                              [&] { return stop_ || generation_ != seen; });
                if (stop_) return;
                seen = generation_;
                job = job_;
                if (job == nullptr) continue; // retired before we woke
                ++joined_;
            }
            t_in_region = true;
            run_chunks_timed(*job, slot, obs::resources_enabled());
            t_in_region = false;
            {
                const std::lock_guard<std::mutex> lock(mu_);
                if (--joined_ != 0) continue;
            }
            done_cv_.notify_one();
        }
    }

    std::mutex region_mu_; // serializes top-level parallel_fors + reconfig
    std::atomic<std::size_t> threads_configured_{1};
    std::vector<std::thread> workers_;

    // Utilization accounting (PoolStats). Sized once for the clamp limit of
    // parse_thread_count so reconfiguration never reallocates under foot.
    static constexpr std::size_t kMaxSlots = 1025; // caller slot + 1024 workers
    std::vector<std::atomic_uint64_t> busy_ns_;
    std::atomic_uint64_t jobs_{0};
    std::atomic_uint64_t items_{0};
    std::atomic_uint64_t stats_epoch_ns_{0};

    std::mutex mu_; // guards the fields below
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    Job* job_ = nullptr;
    std::uint64_t generation_ = 0;
    std::size_t joined_ = 0; // workers running the current job_
    bool stop_ = false;
};

} // namespace

std::size_t parse_thread_count(const char* value, std::size_t fallback) noexcept {
    if (value == nullptr || *value == '\0') return fallback;
    char* end = nullptr;
    const long n = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || n <= 0) return fallback;
    return std::min<std::size_t>(static_cast<std::size_t>(n), 1024);
}

std::size_t thread_count() { return Pool::instance().threads(); }

void set_thread_count(std::size_t n) { Pool::instance().set_threads(n); }

bool in_parallel_region() noexcept { return t_in_region; }

PoolStats pool_stats() { return Pool::instance().stats(); }

void reset_pool_stats() { Pool::instance().reset_stats(); }

namespace detail {

void run_chunked(std::size_t n, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& body) {
    Pool::instance().run(n, grain, body);
}

} // namespace detail

} // namespace pgsi::par

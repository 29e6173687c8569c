// Fault-contained batch job engine (pgsi::serve).
//
// A JobQueue takes a campaign of solve requests and runs them across the
// shared pgsi::par pool, each job inside its own containment boundary:
//
//  * Deadlines — a per-job CancelToken armed at job start, threaded through
//    RecoveryOptions into every engine underneath (sweep backends per
//    frequency / GMRES column, transient stepper per step, DC continuation
//    per pass). A watchdog thread forces lazy deadline evaluation so a job
//    stuck between polls is still detected promptly. Expiry surfaces as
//    JobState::DeadlineExpired with a "serve.deadline" recovery event —
//    never as a hung batch.
//  * Exception capture — anything a job throws becomes its JobReport
//    (state, error text, recovery trail). One poisoned geometry cannot take
//    down the other 49 jobs of a campaign.
//  * Retry ladder — a failed attempt retries up to JobSpec::max_retries
//    times, sleeping backoff_s·multiplier^k between attempts, each retry one
//    rung up the robust::escalate_one_rung ladder (deeper timestep cutting,
//    wider DC continuation, iterative escalation forced open). Healthy code
//    paths are rung-invariant, so retried jobs stay bit-identical to clean
//    ones.
//  * Journal + resume — with a journal path set, every finished job is
//    appended (fsync'd) to jobs.jsonl; BatchOptions::resume skips jobs whose
//    completed records are already journaled. Job results are bit-reproducible
//    (pgsi kernels are thread-count invariant), so a killed-and-resumed
//    campaign merges to exactly the digests of an uninterrupted one.
//
// Underneath, every job acquires its plane model through a shared ModelCache
// (single-flight, LRU under a byte budget), so a campaign over a handful of
// geometries pays for each extraction once.
//
// Fault sites: "serve.job" (an attempt fails at dispatch), "serve.deadline"
// (a job's deadline expires immediately). Recovery sites noted on reports:
// "serve.retry", "serve.deadline", "serve.cancelled".
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/robust.hpp"
#include "serve/job.hpp"
#include "serve/model_cache.hpp"

namespace pgsi::serve {

/// Campaign-level knobs of a JobQueue.
struct BatchOptions {
    /// Model cache to share; nullptr uses the process-wide instance.
    ModelCache* cache = nullptr;
    /// Append one fsync'd JSON line per finished job here; "" disables.
    std::string journal_path;
    /// Skip jobs with a completed record already in the journal (requires
    /// journal_path). Their reports come back as JobState::Resumed with the
    /// journaled digest but no payload.
    bool resume = false;
    /// Rung-0 recovery options every attempt starts from; retries escalate
    /// from here.
    robust::RecoveryOptions recovery;
};

/// Campaign-level outcome counts.
struct BatchStats {
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t deadline_expired = 0;
    std::size_t cancelled = 0;
    std::size_t resumed = 0;         ///< skipped via the journal
    std::size_t retries = 0;         ///< attempts beyond each job's first
    std::uint64_t cache_hits = 0;    ///< among jobs executed this run
    std::uint64_t cache_misses = 0;
    double wall_seconds = 0;         ///< whole-campaign wall time
};

/// Everything a campaign produced, reports in input order.
struct BatchResult {
    std::vector<JobReport> reports;
    BatchStats stats;

    /// True when every job either completed this run or was resumed.
    bool all_completed() const noexcept;
    /// Report of one job by id; throws InvalidArgument when absent.
    const JobReport& report(std::string_view id) const;
};

/// Batch scheduler with per-job fault containment. One run() at a time per
/// queue; cancel_all() may be called concurrently from another thread.
class JobQueue {
public:
    explicit JobQueue(BatchOptions options = {});
    ~JobQueue();
    JobQueue(const JobQueue&) = delete;
    JobQueue& operator=(const JobQueue&) = delete;

    /// Run the campaign to completion (every job reaches a terminal state).
    /// Throws InvalidArgument on duplicate/empty job ids or resume without a
    /// journal; job-level failures never throw — they come back as reports.
    BatchResult run(const std::vector<JobSpec>& jobs);

    /// Trip every in-flight job's CancelToken. Jobs stop at their next
    /// cancellation point with JobState::Cancelled; queued jobs that have
    /// not started yet are cancelled before doing any work. No-op outside
    /// run().
    void cancel_all(const std::string& reason);

private:
    struct Active;
    BatchOptions opt_;
    std::mutex active_mu_;
    std::shared_ptr<Active> active_; ///< tokens of the run in flight
};

} // namespace pgsi::serve

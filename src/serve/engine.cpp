#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <map>
#include <thread>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "em/surface_impedance.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/journal.hpp"
#include "si/board_file.hpp"

namespace pgsi::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

/// Watchdog poll period for deadline detection [s]: the bound on how late
/// an expired deadline is noticed by a job stuck between cancellation
/// points.
constexpr double kWatchdogPeriodS = 2e-3;

/// Mesh nodes the sweep measures at: explicit port locations, else the
/// driver Vcc pins, else the regulator tie-in.
std::vector<std::size_t> sweep_port_nodes(const PlaneModel& model,
                                          const JobSpec& spec) {
    std::vector<Point2> positions = spec.ports;
    if (positions.empty())
        for (const DriverSite& site : model.board().driver_sites())
            positions.push_back(site.vcc_pin);
    if (positions.empty()) positions.push_back(model.board().vrm_location());
    std::vector<std::size_t> nodes;
    nodes.reserve(positions.size());
    for (const Point2& p : positions)
        nodes.push_back(model.bem().mesh().nearest_node_any(p));
    return nodes;
}

/// One attempt of one job: acquire the model, solve, fill the payload.
/// Throws on failure; cancellation points cover every stage boundary plus
/// whatever the engines poll internally.
void execute_job(const JobSpec& spec, const robust::RecoveryOptions& ropt,
                 ModelCache& cache, JobReport& rep) {
    PGSI_TRACE_SCOPE("serve.job");
    if (ropt.cancel != nullptr) ropt.cancel->poll("serve.job.start");
    const Board board = parse_board_file(spec.board_text);
    bool hit = false;
    const std::shared_ptr<const PlaneModel> model =
        cache.acquire(board, spec.model, &hit);
    rep.cache_hit = hit;
    if (ropt.cancel != nullptr) ropt.cancel->poll("serve.job.model");

    if (spec.kind == JobKind::Sweep) {
        const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(
            board.stackup().sheet_resistance);
        SolverOptions sopt;
        sopt.backend = spec.backend;
        sopt.recovery = ropt;
        const std::unique_ptr<PlaneSolver> solver =
            make_solver(model->bem(), zs, sopt);
        rep.z = solver->sweep_impedance(spec.freqs_hz,
                                        sweep_port_nodes(*model, spec));
        rep.digest = digest_matrices(rep.z);
        double zmax = 0;
        for (const MatrixC& m : rep.z)
            for (std::size_t r = 0; r < m.rows(); ++r)
                for (std::size_t c = 0; c < m.cols(); ++c)
                    zmax = std::max(zmax, std::abs(m(r, c)));
        rep.summary = zmax;
    } else {
        const SsnModel ssn(model);
        TransientResult tr = ssn.simulate(spec.dt, spec.tstop, {}, ropt);
        rep.recovery.merge(tr.recovery);
        rep.digest = digest_transient(tr);
        double excursion = 0;
        for (const NodeId node : tr.probes)
            excursion = std::max(excursion, tr.peak_excursion(node));
        rep.summary = excursion;
        rep.transient = std::move(tr);
    }
}

/// Retry backoff that stays responsive to cancellation: sleeps in short
/// slices, bailing as soon as the token trips.
void backoff_sleep(double seconds, const robust::CancelToken& token) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(seconds);
    while (std::chrono::steady_clock::now() < until) {
        if (token.cancelled()) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

/// Run one job to a terminal state. Never throws: every outcome, including
/// injected faults and deadline expiry, lands in the report.
void run_one(const JobSpec& spec, robust::CancelToken& token,
             const robust::RecoveryOptions& base, ModelCache& cache,
             JobReport& rep) {
    static obs::Histogram& h_latency = obs::histogram("serve.job.latency_us");
    const auto t0 = std::chrono::steady_clock::now();
    rep.id = spec.id;

    // Deadline containment. The injected variant ("serve.deadline") arms a
    // token that is already expired, which exercises exactly the real
    // expiry path: the first cancellation point aborts the job.
    if (robust::FaultInjector::should_fire("serve.deadline")) {
        token.set_deadline_after(1e-9);
        token.expire_deadline();
    } else if (spec.deadline_s > 0) {
        token.set_deadline_after(spec.deadline_s);
    }

    robust::RecoveryOptions ropt = base;
    ropt.cancel = &token;
    for (int attempt = 0;; ++attempt) {
        rep.attempts = attempt + 1;
        try {
            if (robust::FaultInjector::should_fire("serve.job"))
                throw NumericalError("fault injected at serve.job (job " +
                                     spec.id + ", attempt " +
                                     std::to_string(attempt + 1) + ")");
            token.poll("serve.job");
            execute_job(spec, ropt, cache, rep);
            rep.state = JobState::Completed;
            break;
        } catch (const Cancelled& e) {
            rep.error = e.what();
            if (token.deadline_expired()) {
                rep.state = JobState::DeadlineExpired;
                robust::note_recovery(&rep.recovery, "serve.deadline",
                                      "job " + spec.id + " abandoned on "
                                      "attempt " +
                                          std::to_string(attempt + 1) + ": " +
                                          token.reason());
            } else {
                rep.state = JobState::Cancelled;
                robust::note_recovery(&rep.recovery, "serve.cancelled",
                                      "job " + spec.id + " cancelled: " +
                                          token.reason());
            }
            break;
        } catch (const std::exception& e) {
            rep.error = e.what();
            if (attempt >= spec.max_retries) {
                rep.state = JobState::Failed;
                break;
            }
            robust::note_recovery(
                &rep.recovery, "serve.retry",
                "attempt " + std::to_string(attempt + 1) + " of job " +
                    spec.id + " failed (" + rep.error + "); retrying");
            const double backoff =
                spec.backoff_s *
                std::pow(spec.backoff_multiplier, static_cast<double>(attempt));
            if (backoff > 0) backoff_sleep(backoff, token);
        } catch (...) {
            rep.error = "unknown exception";
            rep.state = JobState::Failed;
            break;
        }
    }
    rep.wall_seconds = seconds_since(t0);
    h_latency.record(rep.wall_seconds * 1e6);
    switch (rep.state) {
    case JobState::Completed: ++obs::counter("serve.jobs.completed"); break;
    case JobState::Failed: ++obs::counter("serve.jobs.failed"); break;
    case JobState::DeadlineExpired:
        ++obs::counter("serve.jobs.deadline_expired");
        break;
    case JobState::Cancelled: ++obs::counter("serve.jobs.cancelled"); break;
    default: break;
    }
}

} // namespace

bool BatchResult::all_completed() const noexcept {
    for (const JobReport& r : reports)
        if (r.state != JobState::Completed && r.state != JobState::Resumed)
            return false;
    return true;
}

const JobReport& BatchResult::report(std::string_view id) const {
    for (const JobReport& r : reports)
        if (r.id == id) return r;
    throw InvalidArgument("BatchResult: no job named \"" + std::string(id) +
                          "\"");
}

/// Shared state between run(), the watchdog, and cancel_all(): the live
/// tokens of the campaign in flight.
struct JobQueue::Active {
    std::vector<std::unique_ptr<robust::CancelToken>> tokens; ///< per job
    std::mutex mu;                ///< guards done + cv
    std::condition_variable cv;   ///< wakes the watchdog for shutdown
    bool done = false;
};

JobQueue::JobQueue(BatchOptions options) : opt_(std::move(options)) {}

JobQueue::~JobQueue() = default;

void JobQueue::cancel_all(const std::string& reason) {
    std::shared_ptr<Active> active;
    {
        const std::lock_guard<std::mutex> lock(active_mu_);
        active = active_;
    }
    if (active == nullptr) return;
    for (const auto& token : active->tokens)
        if (token != nullptr) token->cancel(reason);
}

BatchResult JobQueue::run(const std::vector<JobSpec>& jobs) {
    PGSI_TRACE_SCOPE("serve.batch");
    const auto t0 = std::chrono::steady_clock::now();
    {
        std::map<std::string, std::size_t> seen;
        for (const JobSpec& spec : jobs) {
            PGSI_REQUIRE(!spec.id.empty(), "JobQueue: job with empty id");
            PGSI_REQUIRE(seen.emplace(spec.id, 1).second,
                         "JobQueue: duplicate job id \"" + spec.id + "\"");
        }
    }
    PGSI_REQUIRE(!opt_.resume || !opt_.journal_path.empty(),
                 "JobQueue: resume requires a journal path");
    ModelCache& cache =
        opt_.cache != nullptr ? *opt_.cache : ModelCache::instance();

    const std::size_t n = jobs.size();
    BatchResult res;
    res.reports.resize(n);

    // Resume: the last completed journal record per id wins; failed or
    // abandoned records leave the job eligible to run again.
    std::map<std::string, JournalRecord> done;
    if (opt_.resume)
        for (JournalRecord& rec : Journal::load(opt_.journal_path))
            if (rec.state == JobState::Completed) done[rec.id] = std::move(rec);

    std::vector<std::size_t> to_run;
    for (std::size_t i = 0; i < n; ++i) {
        JobReport& rep = res.reports[i];
        rep.id = jobs[i].id;
        const auto it = done.find(rep.id);
        if (it == done.end()) {
            to_run.push_back(i);
            continue;
        }
        const JournalRecord& rec = it->second;
        rep.state = JobState::Resumed;
        rep.attempts = rec.attempts;
        rep.cache_hit = rec.cache_hit;
        rep.digest = rec.digest;
        rep.summary = rec.summary;
        rep.wall_seconds = rec.wall_seconds;
        ++res.stats.resumed;
        ++obs::counter("serve.jobs.resumed");
    }

    std::unique_ptr<Journal> journal;
    if (!opt_.journal_path.empty())
        journal = std::make_unique<Journal>(opt_.journal_path);

    const auto active = std::make_shared<Active>();
    active->tokens.resize(n);
    for (const std::size_t i : to_run)
        active->tokens[i] = std::make_unique<robust::CancelToken>();
    {
        const std::lock_guard<std::mutex> lock(active_mu_);
        active_ = active;
    }

    // The watchdog forces lazy deadline evaluation on every live token so a
    // job stuck inside a long kernel between cancellation points is still
    // marked expired the moment it reaches the next poll — and so that
    // deadline detection latency is bounded by this period, not by the
    // slowest kernel.
    std::thread watchdog([&active] {
        static obs::Counter& c_polls = obs::counter("serve.watchdog.polls");
        std::unique_lock<std::mutex> lock(active->mu);
        while (!active->done) {
            active->cv.wait_for(lock,
                                std::chrono::duration<double>(kWatchdogPeriodS));
            if (active->done) break;
            for (const auto& token : active->tokens)
                if (token != nullptr) (void)token->cancelled();
            ++c_polls;
        }
    });

    // The campaign fans out over the shared pool; each job's own kernels
    // run inline on the worker that owns it (nested parallel_for), which is
    // what keeps job results bit-identical to direct single-job solves.
    par::parallel_for(to_run.size(), [&](std::size_t k) {
        const std::size_t i = to_run[k];
        run_one(jobs[i], *active->tokens[i], opt_.recovery, cache,
                res.reports[i]);
        if (journal != nullptr)
            journal->append(to_journal_record(res.reports[i]));
    });

    {
        const std::lock_guard<std::mutex> lock(active->mu);
        active->done = true;
    }
    active->cv.notify_all();
    watchdog.join();
    {
        const std::lock_guard<std::mutex> lock(active_mu_);
        active_.reset();
    }

    for (const std::size_t i : to_run) {
        const JobReport& rep = res.reports[i];
        switch (rep.state) {
        case JobState::Completed: ++res.stats.completed; break;
        case JobState::Failed: ++res.stats.failed; break;
        case JobState::DeadlineExpired: ++res.stats.deadline_expired; break;
        case JobState::Cancelled: ++res.stats.cancelled; break;
        default: break;
        }
        if (rep.attempts > 1)
            res.stats.retries += static_cast<std::size_t>(rep.attempts - 1);
        if (rep.state == JobState::Completed ||
            rep.state == JobState::Failed) {
            if (rep.cache_hit)
                ++res.stats.cache_hits;
            else
                ++res.stats.cache_misses;
        }
    }
    res.stats.wall_seconds = seconds_since(t0);
    return res;
}

} // namespace pgsi::serve

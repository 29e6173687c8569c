// Batch job engine (pgsi::serve): job-file parsing, the shared model cache,
// fault containment (injected failures, deadlines, cancellation), and
// journal-based crash resume. The campaign tests pin the pool to one thread
// where fault-site call ordering must be deterministic; the resume test
// sweeps 1/2/8 threads to hold the bit-identity guarantee where it matters.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/robust.hpp"
#include "em/surface_impedance.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "serve/journal.hpp"
#include "si/board_file.hpp"
#include "tests/test_util.hpp"

using namespace pgsi;

namespace {

// One small board per variant: the decap position moves with the variant, so
// each variant is a distinct geometry (a distinct ModelCache key) while all
// variants cost the same. Mirrors the bench_batch campaign.
std::string board_text(int variant) {
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "board 0.06 0.05\n"
        "stackup sep 0.4m eps 4.5 sheet 0.6m\n"
        "vrm 0.005 0.005\n"
        "driver d0 vcc 0.03 0.025 gnd 0.03 0.02 switch rise 1n delay 1n "
        "width 4n\n"
        "decap %.4f 0.035\n",
        0.010 + 0.008 * variant);
    return buf;
}

serve::JobSpec base_spec(const std::string& id, int variant) {
    serve::JobSpec spec;
    spec.id = id;
    spec.board_text = board_text(variant);
    spec.model.mesh_pitch = 0.01;
    spec.model.interior_nodes = 8;
    return spec;
}

serve::JobSpec sweep_spec(const std::string& id, int variant,
                          std::size_t nfreqs = 4) {
    serve::JobSpec spec = base_spec(id, variant);
    spec.kind = serve::JobKind::Sweep;
    spec.freqs_hz.resize(nfreqs);
    for (std::size_t k = 0; k < nfreqs; ++k)
        spec.freqs_hz[k] = 1e8 * static_cast<double>(k + 1);
    return spec;
}

serve::JobSpec transient_spec(const std::string& id, int variant) {
    serve::JobSpec spec = base_spec(id, variant);
    spec.kind = serve::JobKind::Transient;
    spec.dt = 200e-12;
    spec.tstop = 4e-9;
    return spec;
}

// The same solve a JobSpec denotes, run directly against the library — no
// queue, no cache, no containment. The digest is the comparison handle.
std::uint64_t direct_digest(const serve::JobSpec& spec) {
    const Board board = parse_board_file(spec.board_text);
    const auto model = std::make_shared<const PlaneModel>(board, spec.model);
    if (spec.kind == serve::JobKind::Sweep) {
        const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(
            board.stackup().sheet_resistance);
        SolverOptions sopt;
        sopt.backend = spec.backend;
        const std::unique_ptr<PlaneSolver> solver =
            make_solver(model->bem(), zs, sopt);
        std::vector<std::size_t> nodes;
        for (const Point2& p : spec.ports)
            nodes.push_back(model->bem().mesh().nearest_node_any(p));
        return serve::digest_matrices(
            solver->sweep_impedance(spec.freqs_hz, nodes));
    }
    const SsnModel ssn(model);
    return serve::digest_transient(ssn.simulate(spec.dt, spec.tstop, {}, {}));
}

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + name;
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream f(path, std::ios::trunc | std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    f << text;
}

std::string read_file(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.good()) << path;
    return {std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
}

class ServeEnv : public ::testing::Test {
protected:
    void SetUp() override { robust::FaultInjector::disarm_all(); }
    void TearDown() override { robust::FaultInjector::disarm_all(); }
};

// --- job files ---------------------------------------------------------------

TEST(JobFile, DefaultsOverlayDerivedGridsAndBoardFileInlining) {
    const std::string board_path = temp_path("jobfile_board.brd");
    write_file(board_path, board_text(1));
    const std::string doc_text = R"({
      "schema": "pgsi.jobs/1",
      "defaults": { "pitch": 0.01, "interior": 8, "deadline_s": 30,
                    "max_retries": 2, "backend": "iterative" },
      "jobs": [
        { "id": "sweep-a", "type": "sweep", "board": "board 0.06 0.05\nstackup sep 0.4m eps 4.5 sheet 0.6m\nvrm 0.005 0.005\n",
          "fmin": 1e7, "fmax": 1e9, "points": 5,
          "ports": [[0.02, 0.02], [0.05, 0.04]] },
        { "id": "tran-a", "type": "transient", "board_file": "jobfile_board.brd",
          "dt": 1e-10, "tstop": 5e-9, "max_retries": 0, "backend": "direct" }
      ]
    })";
    const serve::JobFile jf =
        serve::parse_jobs(parse_json(doc_text), ::testing::TempDir());
    ASSERT_EQ(jf.jobs.size(), 2u);

    const serve::JobSpec& a = jf.jobs[0];
    EXPECT_EQ(a.kind, serve::JobKind::Sweep);
    EXPECT_DOUBLE_EQ(a.model.mesh_pitch, 0.01);     // from defaults
    EXPECT_EQ(a.model.interior_nodes, 8u);
    EXPECT_DOUBLE_EQ(a.deadline_s, 30);
    EXPECT_EQ(a.max_retries, 2);
    EXPECT_EQ(a.backend, SolverBackend::Iterative);
    ASSERT_EQ(a.freqs_hz.size(), 5u);               // log grid, exact endpoints
    EXPECT_DOUBLE_EQ(a.freqs_hz.front(), 1e7);
    EXPECT_DOUBLE_EQ(a.freqs_hz.back(), 1e9);
    for (std::size_t i = 1; i < a.freqs_hz.size(); ++i)
        EXPECT_GT(a.freqs_hz[i], a.freqs_hz[i - 1]);
    ASSERT_EQ(a.ports.size(), 2u);
    EXPECT_DOUBLE_EQ(a.ports[1].x, 0.05);
    EXPECT_DOUBLE_EQ(a.ports[1].y, 0.04);

    const serve::JobSpec& b = jf.jobs[1];
    EXPECT_EQ(b.kind, serve::JobKind::Transient);
    EXPECT_EQ(b.max_retries, 0);                    // per-job beats defaults
    EXPECT_EQ(b.backend, SolverBackend::Direct);
    EXPECT_EQ(b.board_text, board_text(1));         // inlined at parse time
    EXPECT_DOUBLE_EQ(b.dt, 1e-10);
    EXPECT_DOUBLE_EQ(b.tstop, 5e-9);
}

TEST(JobFile, RejectsUnknownFieldsDuplicateIdsAndBadBoards) {
    const std::string good_board =
        "\"board 0.06 0.05\\nstackup sep 0.4m eps 4.5 sheet 0.6m\\n"
        "vrm 0.005 0.005\\n\"";
    EXPECT_THROW(
        serve::parse_jobs(parse_json(
            R"({"jobs": [{"id": "a", "board": )" + good_board +
            R"(, "freqs": [1e8], "pich": 0.01}]})")),
        InvalidArgument);
    EXPECT_THROW(
        serve::parse_jobs(parse_json(
            R"({"jobs": [{"id": "a", "board": )" + good_board +
            R"(, "freqs": [1e8]},
                {"id": "a", "board": )" + good_board +
            R"(, "freqs": [1e8]}]})")),
        InvalidArgument);
    // A malformed board fails at parse time, naming the job.
    try {
        serve::parse_jobs(parse_json(
            R"({"jobs": [{"id": "bad-board", "board": "bogus 1 2\n",
                          "freqs": [1e8]}]})"));
        FAIL() << "malformed board accepted";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("bad-board"), std::string::npos);
    }
}

// --- model cache -------------------------------------------------------------

TEST(ModelCache, SharesOneModelPerGeometryAndForksOnOptions) {
    serve::ModelCache cache;
    const Board board = parse_board_file(board_text(0));
    SsnModelOptions opt;
    opt.mesh_pitch = 0.01;
    opt.interior_nodes = 8;

    bool hit = true;
    const auto m1 = cache.acquire(board, opt, &hit);
    EXPECT_FALSE(hit);
    const auto m2 = cache.acquire(board, opt, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(m1.get(), m2.get()); // literally the same model

    // Any knob that changes the extraction forks the key.
    SsnModelOptions coarser = opt;
    coarser.mesh_pitch = 0.012;
    (void)cache.acquire(board, coarser, &hit);
    EXPECT_FALSE(hit);
    // ...and so does a different geometry.
    (void)cache.acquire(parse_board_file(board_text(1)), opt, &hit);
    EXPECT_FALSE(hit);

    const serve::ModelCache::Stats st = cache.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 3u);
    EXPECT_EQ(st.entries, 3u);
    EXPECT_GT(st.bytes, 0u);
}

TEST(ModelCache, ChargesPotentialInductanceAndReducedBlocks) {
    serve::ModelCache cache;
    const auto model =
        cache.acquire(parse_board_file(board_text(0)), base_spec("x", 0).model);
    const std::size_t n = model->bem().node_count();
    const std::size_t b = model->bem().branch_count();
    const std::size_t c = model->circuit().node_count();
    const std::size_t want =
        sizeof(double) * (n * n + b * b + 4 * c * c) +
        sizeof(RlcBranch) * model->circuit().branches.size() + (1u << 14);
    EXPECT_EQ(serve::estimated_model_bytes(*model), want);
    EXPECT_EQ(cache.stats().bytes, want);
}

TEST(ModelCache, EvictsLeastRecentlyUsedUnderByteBudget) {
    serve::ModelCache cache;
    const SsnModelOptions opt = base_spec("x", 0).model;
    const Board a = parse_board_file(board_text(0));
    const Board b = parse_board_file(board_text(1));

    bool hit = false;
    (void)cache.acquire(a, opt, &hit);
    const std::size_t one_entry = cache.stats().bytes;
    ASSERT_GT(one_entry, 0u);

    // Budget for one entry: caching B must push A out (B itself is
    // protected as the entry just inserted).
    cache.set_budget_bytes(one_entry);
    (void)cache.acquire(b, opt, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);
    (void)cache.acquire(b, opt, &hit);
    EXPECT_TRUE(hit); // B survived
    (void)cache.acquire(a, opt, &hit);
    EXPECT_FALSE(hit); // A was the eviction victim

    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
    EXPECT_GE(cache.stats().evictions, 1u); // cumulative stats survive clear()
}

TEST_F(ServeEnv, ModelCacheFaultForcedEviction) {
    serve::ModelCache cache;
    const SsnModelOptions opt = base_spec("x", 0).model;
    bool hit = false;
    (void)cache.acquire(parse_board_file(board_text(0)), opt, &hit);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // "cache.evict" forces one LRU eviction on the acquire where it fires,
    // so the eviction path is exercised without gigabyte fixtures.
    robust::FaultInjector::arm("cache.evict", 1, 1);
    (void)cache.acquire(parse_board_file(board_text(1)), opt, &hit);
    EXPECT_EQ(robust::FaultInjector::fire_count("cache.evict"), 1u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);
    (void)cache.acquire(parse_board_file(board_text(0)), opt, &hit);
    EXPECT_FALSE(hit); // the older entry was the victim
}

TEST(ModelCache, SingleFlightBuildsEachGeometryOnce) {
    serve::ModelCache cache;
    const Board board = parse_board_file(board_text(0));
    const SsnModelOptions opt = base_spec("x", 0).model;

    constexpr int kThreads = 4;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::shared_ptr<const PlaneModel>> models(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            ++ready;
            while (!go.load()) std::this_thread::yield();
            models[t] = cache.acquire(board, opt);
        });
    while (ready.load() < kThreads) std::this_thread::yield();
    go.store(true);
    for (std::thread& t : threads) t.join();

    // Exactly one build, everyone sharing its result — whether a caller won
    // the build race or waited behind the builder.
    const serve::ModelCache::Stats st = cache.stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.hits, static_cast<std::uint64_t>(kThreads - 1));
    EXPECT_EQ(st.entries, 1u);
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(models[t].get(), models[0].get());
}

// --- journal -----------------------------------------------------------------

TEST(Journal, RoundTripsRecordsAndToleratesTornTail) {
    const std::string path = temp_path("journal_torn.jsonl");
    std::remove(path.c_str());
    {
        serve::Journal journal(path);
        serve::JournalRecord rec;
        rec.id = "sweep-a";
        rec.state = serve::JobState::Completed;
        rec.attempts = 2;
        rec.cache_hit = true;
        rec.digest = 0x9f86d081884c7d65ull;
        rec.summary = 1.25e-2;
        rec.wall_seconds = 0.034;
        journal.append(rec);
        rec.id = "tran-a";
        rec.state = serve::JobState::Failed;
        rec.error = "fault injected \"quoted\"";
        journal.append(rec);
    }
    // Simulate a kill mid-append: a torn final line.
    write_file(path, read_file(path) + "{\"id\":\"tran-b\",\"sta");

    const std::uint64_t torn_before =
        obs::counter("serve.journal.torn_lines").value();
    const std::vector<serve::JournalRecord> back = serve::Journal::load(path);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].id, "sweep-a");
    EXPECT_EQ(back[0].state, serve::JobState::Completed);
    EXPECT_EQ(back[0].attempts, 2);
    EXPECT_TRUE(back[0].cache_hit);
    EXPECT_EQ(back[0].digest, 0x9f86d081884c7d65ull); // hex round trip
    EXPECT_DOUBLE_EQ(back[0].summary, 1.25e-2);
    EXPECT_EQ(back[1].state, serve::JobState::Failed);
    EXPECT_EQ(back[1].error, "fault injected \"quoted\"");
    EXPECT_EQ(obs::counter("serve.journal.torn_lines").value(),
              torn_before + 1);

    EXPECT_TRUE(serve::Journal::load(temp_path("no_such_journal.jsonl"))
                    .empty());
}

// --- engine ------------------------------------------------------------------

TEST_F(ServeEnv, CampaignResultsAreBitIdenticalToDirectSolves) {
    std::vector<serve::JobSpec> jobs;
    for (int i = 0; i < 4; ++i) {
        serve::JobSpec spec = sweep_spec("sweep" + std::to_string(i), i % 2);
        spec.ports = {{0.02, 0.02}, {0.05, 0.04}};
        jobs.push_back(std::move(spec));
    }
    jobs.push_back(transient_spec("tran0", 0));
    jobs.push_back(transient_spec("tran1", 1));

    serve::ModelCache cache;
    serve::BatchOptions opt;
    opt.cache = &cache;
    serve::JobQueue queue(opt);
    const serve::BatchResult res = queue.run(jobs);

    ASSERT_TRUE(res.all_completed());
    EXPECT_EQ(res.stats.completed, jobs.size());
    EXPECT_EQ(res.stats.cache_misses, 2u); // two distinct geometries
    EXPECT_EQ(res.stats.cache_hits, jobs.size() - 2);
    for (const serve::JobSpec& spec : jobs) {
        const serve::JobReport& rep = res.report(spec.id);
        EXPECT_EQ(rep.attempts, 1);
        EXPECT_EQ(rep.digest, direct_digest(spec)) << spec.id;
        EXPECT_GT(rep.summary, 0.0);
        if (spec.kind == serve::JobKind::Sweep) {
            EXPECT_EQ(rep.z.size(), spec.freqs_hz.size());
        }
    }
}

// The ISSUE acceptance campaign: 50 mixed jobs, "serve.job" armed to fail
// calls 3 and 4, plus one job whose deadline expires. Pinned to one thread
// so the fault lands on a known job: jobs run in order, job "sweep2"'s first
// attempt is site call 3 (fires), its retry is call 4 (fires again), and
// with max_retries = 1 it fails. Everything else must be untouched — and
// bit-identical to direct solves.
TEST_F(ServeEnv, AcceptanceCampaignContainsFaultsAndDeadlines) {
    test::ScopedThreadCount pin(1);
    constexpr int kGeometries = 5;
    std::vector<serve::JobSpec> jobs;
    for (int i = 0; i < 40; ++i) {
        serve::JobSpec spec = sweep_spec("sweep" + std::to_string(i),
                                         i % kGeometries);
        spec.ports = {{0.03, 0.025}};
        spec.max_retries = 1;
        jobs.push_back(std::move(spec));
    }
    for (int i = 0; i < 10; ++i) {
        serve::JobSpec spec = transient_spec("tran" + std::to_string(i), i % 2);
        spec.max_retries = 1;
        jobs.push_back(std::move(spec));
    }
    serve::JobSpec doomed = sweep_spec("deadline-job", 0);
    doomed.ports = {{0.03, 0.025}};
    doomed.deadline_s = 1e-7; // expires before the first cancellation point
    jobs.push_back(std::move(doomed));

    robust::FaultInjector::arm("serve.job", 3, 2);
    serve::ModelCache cache;
    serve::BatchOptions opt;
    opt.cache = &cache;
    serve::JobQueue queue(opt);
    const serve::BatchResult res = queue.run(jobs);

    // (disarm happens in TearDown — disarm_all also resets fire counts.)
    EXPECT_EQ(robust::FaultInjector::fire_count("serve.job"), 2u);

    // Exactly the faulted job failed (both its attempts absorbed the fault).
    const serve::JobReport& faulted = res.report("sweep2");
    EXPECT_EQ(faulted.state, serve::JobState::Failed);
    EXPECT_EQ(faulted.attempts, 2);
    EXPECT_EQ(faulted.recovery.count("serve.retry"), 1u);
    EXPECT_NE(faulted.error.find("fault injected"), std::string::npos);

    // Exactly the deadline job expired, with the recovery trail to prove it.
    const serve::JobReport& expired = res.report("deadline-job");
    EXPECT_EQ(expired.state, serve::JobState::DeadlineExpired);
    EXPECT_EQ(expired.recovery.count("serve.deadline"), 1u);

    // Every other job: clean first attempt, bit-identical to a direct solve.
    EXPECT_EQ(res.stats.failed, 1u);
    EXPECT_EQ(res.stats.deadline_expired, 1u);
    EXPECT_EQ(res.stats.completed, jobs.size() - 2);
    EXPECT_EQ(res.stats.retries, 1u);
    std::uint64_t checked = 0;
    for (const serve::JobSpec& spec : jobs) {
        const serve::JobReport& rep = res.report(spec.id);
        if (spec.id == "sweep2" || spec.id == "deadline-job") continue;
        EXPECT_EQ(rep.state, serve::JobState::Completed) << spec.id;
        EXPECT_EQ(rep.attempts, 1) << spec.id;
        EXPECT_FALSE(rep.recovery.any()) << spec.id;
        // Digest-check a sample (direct solves are the expensive part).
        if (checked < 5) {
            EXPECT_EQ(rep.digest, direct_digest(spec)) << spec.id;
            ++checked;
        }
    }

    // The campaign hammers 5 geometries, so the cache carries it: hit rate
    // well past the 50% acceptance bar even with the faulted job counting
    // as a miss.
    const double total = static_cast<double>(res.stats.cache_hits +
                                             res.stats.cache_misses);
    ASSERT_GT(total, 0.0);
    EXPECT_GT(static_cast<double>(res.stats.cache_hits) / total, 0.5);
}

TEST_F(ServeEnv, RetryLadderRecoversAFlakyJob) {
    // One fault on the first "serve.job" call: the only job's first attempt
    // fails, the retry (same recovery options) succeeds, and the result is
    // still bit-identical to a direct solve.
    serve::JobSpec spec = sweep_spec("flaky", 0);
    spec.ports = {{0.03, 0.025}};
    spec.max_retries = 2;
    spec.backoff_s = 1e-3;
    robust::FaultInjector::arm("serve.job", 1, 1);

    serve::ModelCache cache;
    serve::BatchOptions opt;
    opt.cache = &cache;
    serve::JobQueue queue(opt);
    const serve::BatchResult res = queue.run({spec});

    const serve::JobReport& rep = res.report("flaky");
    EXPECT_EQ(rep.state, serve::JobState::Completed);
    EXPECT_EQ(rep.attempts, 2);
    EXPECT_EQ(rep.recovery.count("serve.retry"), 1u);
    EXPECT_EQ(res.stats.retries, 1u);
    EXPECT_EQ(rep.digest, direct_digest(spec));
}

TEST_F(ServeEnv, CancelAllAbandonsTheCampaign) {
    // The first attempt to start faults, and its job parks in an hour-long
    // retry backoff that only a cancellation cuts short: that job stays in
    // flight until cancel_all lands, however the threads are scheduled.
    std::vector<serve::JobSpec> jobs;
    for (int i = 0; i < 8; ++i) {
        serve::JobSpec spec = transient_spec("tran" + std::to_string(i), i % 2);
        spec.max_retries = 1;
        spec.backoff_s = 3600;
        jobs.push_back(std::move(spec));
    }
    robust::FaultInjector::arm("serve.job", 1, 1);

    serve::ModelCache cache;
    serve::BatchOptions opt;
    opt.cache = &cache;
    serve::JobQueue queue(opt);

    // Hammer cancel_all from another thread for the whole run: every job
    // reaches a terminal state (containment), and at least the parked job
    // is abandoned at a cancellation point.
    std::atomic<bool> done{false};
    std::thread canceller([&] {
        while (!done.load()) {
            queue.cancel_all("operator abort");
            std::this_thread::yield();
        }
    });
    const serve::BatchResult res = queue.run(jobs);
    done.store(true);
    canceller.join();

    EXPECT_EQ(res.stats.cancelled + res.stats.completed, jobs.size());
    EXPECT_GE(res.stats.cancelled, 1u);
    EXPECT_EQ(res.stats.retries, 1u);
    for (const serve::JobReport& rep : res.reports) {
        if (rep.state == serve::JobState::Completed) continue;
        EXPECT_EQ(rep.state, serve::JobState::Cancelled) << rep.id;
        EXPECT_EQ(rep.recovery.count("serve.cancelled"), 1u) << rep.id;
        EXPECT_NE(rep.error.find("operator abort"), std::string::npos)
            << rep.id;
    }
}

TEST(ServeEngine, RunRejectsBadCampaigns) {
    serve::JobQueue queue;
    EXPECT_THROW(queue.run({serve::JobSpec{}}), InvalidArgument); // empty id
    std::vector<serve::JobSpec> dup{sweep_spec("a", 0), sweep_spec("a", 1)};
    EXPECT_THROW(queue.run(dup), InvalidArgument);

    serve::BatchOptions opt;
    opt.resume = true; // resume without a journal path
    serve::JobQueue bad(opt);
    EXPECT_THROW(bad.run({sweep_spec("a", 0)}), InvalidArgument);
}

// Satellite of the ISSUE acceptance: a campaign killed mid-journal (here:
// the journal truncated after a prefix of fsync'd records plus a torn final
// line) and resumed must merge to exactly the digests of an uninterrupted
// run — at 1, 2, and 8 threads.
TEST_F(ServeEnv, CrashResumeMergesBitIdenticalAtAnyThreadCount) {
    std::vector<serve::JobSpec> jobs;
    for (int i = 0; i < 6; ++i) {
        serve::JobSpec spec = sweep_spec("sweep" + std::to_string(i), i % 2);
        spec.ports = {{0.03, 0.025}};
        jobs.push_back(std::move(spec));
    }
    jobs.push_back(transient_spec("tran0", 0));
    jobs.push_back(transient_spec("tran1", 1));

    // Reference: the uninterrupted campaign.
    std::vector<std::uint64_t> want;
    {
        serve::ModelCache cache;
        serve::BatchOptions opt;
        opt.cache = &cache;
        const serve::BatchResult res = serve::JobQueue(opt).run(jobs);
        ASSERT_TRUE(res.all_completed());
        for (const serve::JobReport& rep : res.reports)
            want.push_back(rep.digest);
    }

    // The "crashed" journal: a full run's journal cut after 4 records, with
    // a torn tail byte-for-byte like a writer killed mid-append.
    const std::string full_path = temp_path("resume_full.jsonl");
    std::remove(full_path.c_str());
    {
        test::ScopedThreadCount pin(1); // journal order = job order
        serve::ModelCache cache;
        serve::BatchOptions opt;
        opt.cache = &cache;
        opt.journal_path = full_path;
        ASSERT_TRUE(serve::JobQueue(opt).run(jobs).all_completed());
    }
    std::string torn;
    {
        const std::string text = read_file(full_path);
        std::size_t pos = 0;
        for (int lines = 0; lines < 4; ++lines)
            pos = text.find('\n', pos) + 1;
        torn = text.substr(0, pos) + "{\"id\":\"sweep4\",\"state\":\"comp";
    }

    for (const std::size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        test::ScopedThreadCount pin(threads);
        const std::string path =
            temp_path("resume_t" + std::to_string(threads) + ".jsonl");
        write_file(path, torn);

        serve::ModelCache cache;
        serve::BatchOptions opt;
        opt.cache = &cache;
        opt.journal_path = path;
        opt.resume = true;
        const serve::BatchResult res = serve::JobQueue(opt).run(jobs);

        ASSERT_TRUE(res.all_completed());
        EXPECT_EQ(res.stats.resumed, 4u); // the intact journal prefix
        EXPECT_EQ(res.stats.completed, jobs.size() - 4);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_EQ(res.reports[i].digest, want[i]) << jobs[i].id;
            EXPECT_EQ(res.reports[i].state, i < 4
                                                ? serve::JobState::Resumed
                                                : serve::JobState::Completed);
        }

        // Resuming again from the (now complete) journal runs nothing.
        const serve::BatchResult again = serve::JobQueue(opt).run(jobs);
        EXPECT_EQ(again.stats.resumed, jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            EXPECT_EQ(again.reports[i].digest, want[i]);
    }
}

} // namespace

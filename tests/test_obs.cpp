// Tests for the observability subsystem: span nesting and timing invariants,
// counter atomicity under thread contention, JSON escaping, and the
// disabled-mode guarantee that nothing is recorded.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "circuit/transient.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "tests/test_util.hpp"

using namespace pgsi;

namespace {

// Per-test trace sandbox: tracing enabled, records cleared, restored off.
class ObsTest : public ::testing::Test {
protected:
    void SetUp() override {
        obs::set_trace_enabled(true);
        obs::reset_trace();
    }
    void TearDown() override {
        obs::set_trace_enabled(false);
        obs::reset_trace();
    }
};

const obs::SpanRecord* find_span(const std::vector<obs::SpanRecord>& recs,
                                 const std::string& path) {
    for (const obs::SpanRecord& r : recs)
        if (r.path == path) return &r;
    return nullptr;
}

void spin_for(std::chrono::microseconds d) {
    const auto until = std::chrono::steady_clock::now() + d;
    while (std::chrono::steady_clock::now() < until) {
    }
}

} // namespace

TEST_F(ObsTest, SpanNestingBuildsPaths) {
    {
        PGSI_TRACE_SCOPE("outer");
        {
            PGSI_TRACE_SCOPE("inner");
            { PGSI_TRACE_SCOPE("leaf"); }
        }
        { PGSI_TRACE_SCOPE("sibling"); }
    }
    const auto recs = obs::trace_records();
    ASSERT_EQ(recs.size(), 4u);
    EXPECT_NE(find_span(recs, "outer"), nullptr);
    EXPECT_NE(find_span(recs, "outer/inner"), nullptr);
    EXPECT_NE(find_span(recs, "outer/inner/leaf"), nullptr);
    EXPECT_NE(find_span(recs, "outer/sibling"), nullptr);
    EXPECT_EQ(find_span(recs, "outer")->depth, 0u);
    EXPECT_EQ(find_span(recs, "outer/inner/leaf")->depth, 2u);
}

TEST_F(ObsTest, ParentEnclosesChildTiming) {
    {
        PGSI_TRACE_SCOPE("parent");
        spin_for(std::chrono::microseconds(200));
        {
            PGSI_TRACE_SCOPE("child");
            spin_for(std::chrono::microseconds(200));
        }
        spin_for(std::chrono::microseconds(200));
    }
    const auto recs = obs::trace_records();
    const obs::SpanRecord* parent = find_span(recs, "parent");
    const obs::SpanRecord* child = find_span(recs, "parent/child");
    ASSERT_NE(parent, nullptr);
    ASSERT_NE(child, nullptr);
    // The child's interval nests inside the parent's.
    EXPECT_GE(child->start_ns, parent->start_ns);
    EXPECT_LE(child->start_ns + child->dur_ns, parent->start_ns + parent->dur_ns);
    EXPECT_LT(child->dur_ns, parent->dur_ns);
}

TEST_F(ObsTest, CurrentSpanPathTracksInnermost) {
    EXPECT_EQ(obs::current_span_path(), "");
    {
        PGSI_TRACE_SCOPE("a");
        {
            PGSI_TRACE_SCOPE("b");
            EXPECT_EQ(obs::current_span_path(), "a/b");
        }
        EXPECT_EQ(obs::current_span_path(), "a");
    }
    EXPECT_EQ(obs::current_span_path(), "");
}

TEST_F(ObsTest, DisabledModeRecordsNothing) {
    obs::set_trace_enabled(false);
    {
        PGSI_TRACE_SCOPE("invisible");
        { PGSI_TRACE_SCOPE("also_invisible"); }
    }
    EXPECT_TRUE(obs::trace_records().empty());
    EXPECT_EQ(obs::current_span_path(), "");
}

TEST_F(ObsTest, SpansFromWorkerThreadsAreRecorded) {
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t)
        pool.emplace_back([] {
            for (int i = 0; i < 50; ++i) { PGSI_TRACE_SCOPE("worker"); }
        });
    for (std::thread& th : pool) th.join();
    const auto recs = obs::trace_records();
    EXPECT_EQ(recs.size(), 200u);
    for (const obs::SpanRecord& r : recs) EXPECT_EQ(r.path, "worker");
}

TEST_F(ObsTest, ChromeTraceJsonIsWellFormed) {
    {
        PGSI_TRACE_SCOPE("alpha");
        { PGSI_TRACE_SCOPE("beta"); }
    }
    const std::string json = obs::chrome_trace_json();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"beta\""), std::string::npos);
    EXPECT_NE(json.find("\"path\":\"alpha/beta\""), std::string::npos);
    // Balanced braces/brackets outside of strings (no string content here
    // contains either).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(ObsJson, EscapesSpecialCharacters) {
    EXPECT_EQ(obs::json_escape("plain"), "plain");
    EXPECT_EQ(obs::json_escape("q\"q"), "q\\\"q");
    EXPECT_EQ(obs::json_escape("b\\s"), "b\\\\s");
    EXPECT_EQ(obs::json_escape("n\nr\rt\t"), "n\\nr\\rt\\t");
    EXPECT_EQ(obs::json_escape(std::string_view("\x01\x1f", 2)),
              "\\u0001\\u001f");
    EXPECT_EQ(obs::json_escape("\b\f"), "\\b\\f");
}

TEST(ObsJson, PassesThroughMultiByteUtf8) {
    // json_escape must leave valid UTF-8 sequences byte-for-byte intact:
    // 2-byte (é), 3-byte (∑), and 4-byte (𝛑) code points.
    const std::string utf8 = "\xC3\xA9 \xE2\x88\x91 \xF0\x9D\x9B\x91";
    EXPECT_EQ(obs::json_escape(utf8), utf8);
    // DEL (0x7f) is above the JSON control range and passes through.
    EXPECT_EQ(obs::json_escape("\x7f"), "\x7f");
    // Control characters embedded between multi-byte sequences still escape.
    EXPECT_EQ(obs::json_escape(std::string("\xC3\xA9\x01\xC3\xA9")),
              "\xC3\xA9\\u0001\xC3\xA9");
}

TEST(ObsMetrics, CounterIsAtomicUnderContention) {
    obs::Counter& c = obs::counter("test.contended");
    c.reset();
    constexpr int kThreads = 8;
    constexpr int kIters = 20000;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&c] {
            for (int i = 0; i < kIters; ++i) ++c;
        });
    for (std::thread& th : pool) th.join();
    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(ObsMetrics, RegistryReturnsStableReferences) {
    obs::Counter& a = obs::counter("test.stable");
    obs::Counter& b = obs::counter("test.stable");
    EXPECT_EQ(&a, &b);
    a.reset();
    ++a;
    EXPECT_EQ(b.value(), 1u);
}

TEST(ObsMetrics, GaugeAndHistogram) {
    obs::Gauge& g = obs::gauge("test.gauge");
    g.set(42.5);
    EXPECT_DOUBLE_EQ(g.value(), 42.5);

    obs::Histogram& h = obs::histogram("test.hist");
    h.reset();
    h.record(1.0);
    h.record(3.0);
    h.record(8.0);
    const obs::Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, 3u);
    EXPECT_DOUBLE_EQ(s.sum, 12.0);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 8.0);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    // Buckets: 1.0 -> [1,2) = bucket 1, 3.0 -> [2,4) = bucket 2,
    // 8.0 -> [8,16) = bucket 4.
    EXPECT_EQ(s.buckets[1], 1u);
    EXPECT_EQ(s.buckets[2], 1u);
    EXPECT_EQ(s.buckets[4], 1u);
}

TEST(ObsMetrics, HistogramConcurrentRecordAndSnapshot) {
    // Writers hammer record() while a reader snapshots; every snapshot must
    // be internally consistent (bucket sum == count) because the histogram
    // is mutex-protected, and the final totals must be exact.
    obs::Histogram& h = obs::histogram("test.hist.concurrent");
    h.reset();
    constexpr int kThreads = 4;
    constexpr int kIters = 5000;
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const obs::Histogram::Snapshot s = h.snapshot();
            std::uint64_t in_buckets = 0;
            for (const std::uint64_t b : s.buckets) in_buckets += b;
            ASSERT_EQ(in_buckets, s.count);
        }
    });
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t)
        writers.emplace_back([&h] {
            for (int i = 1; i <= kIters; ++i) h.record(double(i));
        });
    for (std::thread& th : writers) th.join();
    stop.store(true);
    reader.join();
    const obs::Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, std::uint64_t(kThreads) * kIters);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, double(kIters));
}

TEST(ObsMetrics, FormatMetricsListsRegisteredNames) {
    obs::counter("test.formatted").reset();
    obs::counter("test.formatted").add(7);
    const std::string s = obs::format_metrics();
    EXPECT_NE(s.find("test.formatted"), std::string::npos);
    EXPECT_NE(s.find("7"), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceCarriesProcessAndThreadNames) {
    obs::set_thread_name("main-test-thread");
    { PGSI_TRACE_SCOPE("named_span"); }
    std::thread worker([] {
        obs::set_thread_name("obs-worker-7");
        PGSI_TRACE_SCOPE("worker_span");
    });
    worker.join();
    const std::string json = obs::chrome_trace_json();
    // Metadata events name the process and both threads for the viewer.
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"name\":\"pgsi\"}"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("main-test-thread"), std::string::npos);
    EXPECT_NE(json.find("obs-worker-7"), std::string::npos);
    // The whole trace must be well-formed JSON, not just contain the
    // expected substrings (a truncated metadata event once passed the
    // substring checks above).
    const JsonValue doc = parse_json(json);
    ASSERT_TRUE(doc.is_object());
    const JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_GE(events->array.size(), 3u);
}

TEST(ObsError, ContextChainFormatsAndPreservesType) {
    NumericalError err("base failure");
    err.with_context("while factoring MNA at t=1.2ns");
    err.with_context("in span ssn.simulate/transient.run");
    const std::string w = err.what();
    EXPECT_NE(w.find("base failure"), std::string::npos);
    EXPECT_NE(w.find("while factoring MNA at t=1.2ns"), std::string::npos);
    EXPECT_NE(w.find("in span ssn.simulate/transient.run"), std::string::npos);
    EXPECT_EQ(err.message(), "base failure");
    ASSERT_EQ(err.context().size(), 2u);

    // Catch-annotate-rethrow keeps the dynamic type.
    try {
        try {
            throw NumericalError("inner");
        } catch (Error& e) {
            e.with_context("layer context");
            throw;
        }
    } catch (const NumericalError& e) {
        EXPECT_NE(std::string(e.what()).find("layer context"), std::string::npos);
    } catch (...) {
        FAIL() << "dynamic exception type was not preserved";
    }
}

TEST_F(ObsTest, TraceSummaryAggregatesByPath) {
    for (int i = 0; i < 3; ++i) {
        PGSI_TRACE_SCOPE("stage");
        { PGSI_TRACE_SCOPE("sub"); }
    }
    const std::string s = obs::trace_summary();
    EXPECT_NE(s.find("stage"), std::string::npos);
    EXPECT_NE(s.find("sub"), std::string::npos);
    EXPECT_NE(s.find("x3"), std::string::npos);
}

TEST_F(ObsTest, WorkerSpansAggregateIntoOnePathEntryEverywhere) {
    // Spans recorded on pool workers (and the caller's share of the job)
    // have the same path, so the one aggregation folds them into one entry,
    // and the summary tree and the SolveReport both show that entry.
    par::set_thread_count(4);
    constexpr std::size_t kItems = 64;
    par::parallel_for(kItems, [](std::size_t) {
        PGSI_TRACE_SCOPE("pool.item");
        const auto t0 = std::chrono::steady_clock::now();
        while (std::chrono::steady_clock::now() - t0 <
               std::chrono::microseconds(200)) {
        }
    });

    const std::vector<obs::SpanRecord> recs = obs::trace_records();
    ASSERT_EQ(recs.size(), kItems);
    std::set<std::uint32_t> threads;
    std::uint64_t sum_ns = 0;
    for (const obs::SpanRecord& r : recs) {
        threads.insert(r.thread);
        sum_ns += r.dur_ns;
    }
    EXPECT_GE(threads.size(), 2u);

    const std::vector<obs::SpanTotal> totals = obs::span_totals();
    ASSERT_EQ(totals.size(), 1u);
    EXPECT_EQ(totals[0].path, "pool.item");
    EXPECT_EQ(totals[0].count, kItems);
    EXPECT_EQ(totals[0].total_ns, sum_ns);
    EXPECT_DOUBLE_EQ(obs::leaf_seconds(totals, "pool.item"),
                     static_cast<double>(sum_ns) * 1e-9);
    EXPECT_EQ(obs::leaf_seconds(totals, "item"), 0.0);

    const std::string summary = obs::trace_summary();
    EXPECT_NE(summary.find("pool.item"), std::string::npos);
    EXPECT_NE(summary.find(obs::format_duration(static_cast<double>(sum_ns))),
              std::string::npos);
    EXPECT_NE(summary.find("x64"), std::string::npos);

    const JsonValue report =
        parse_json(obs::SolveReportBuilder("test_obs").build_json());
    const JsonValue& spans = report.at("spans");
    ASSERT_EQ(spans.array.size(), 1u);
    EXPECT_EQ(spans.array[0].str_or("path", ""), "pool.item");
    EXPECT_EQ(spans.array[0].num_or("count", 0), static_cast<double>(kItems));
    EXPECT_EQ(spans.array[0].num_or("total_ns", 0),
              static_cast<double>(sum_ns));

    par::set_thread_count(0);
}

TEST_F(ObsTest, TransientRunEmitsSpansAndStats) {
    // Simple RC step: linear, so zero Newton iterations and one
    // factorization per integrator (BE on the first step, trapezoidal after).
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId out = nl.node("out");
    nl.add_vsource("V1", in, nl.ground(), Source::dc(1.0));
    nl.add_resistor("R1", in, out, 1e3);
    nl.add_capacitor("C1", out, nl.ground(), 1e-12);

    TransientOptions opt;
    opt.dt = 1e-11;
    opt.tstop = 1e-9;
    const TransientResult r = transient_analyze(nl, opt);

    // The stepper advances until t >= tstop, so the count is ceil(tstop/dt)
    // up to rounding; one LU solve per (linear) step.
    EXPECT_GE(r.stats.steps, 100u);
    EXPECT_LE(r.stats.steps, 101u);
    EXPECT_EQ(r.stats.newton_iterations, 0u);
    EXPECT_EQ(r.stats.step_rejections, 0u);
    EXPECT_EQ(r.stats.lu_factorizations, 2u);
    // Unknowns V(in), V(out), I(V1); the minimum-degree order is V(out),
    // V(in), I(V1). V(in)'s column takes the V1 branch row as pivot (its
    // diagonal G·sC/(G + sC) ≈ 1e-3 is below 0.1 of the branch row's 1), so
    // L holds 2 entries and U 4, and each factor runs one multiply-add.
    EXPECT_EQ(r.stats.lu_nnz, 6u);
    EXPECT_EQ(r.stats.factor_flops, 2u);
    EXPECT_EQ(r.stats.lu_solves, r.stats.steps);

    // The run's wall time is its transient.run span.
    const auto recs = obs::trace_records();
    const obs::SpanRecord* run = find_span(recs, "transient.run");
    ASSERT_NE(run, nullptr);
    EXPECT_GT(run->dur_ns, 0u);
    EXPECT_NE(find_span(recs, "transient.run/transient.dcop"), nullptr);
    EXPECT_NE(find_span(recs, "transient.run/transient.factor"), nullptr);
    EXPECT_NE(find_span(recs, "transient.run/transient.lti_setup"), nullptr);
}

TEST(ObsTelemetry, NonlinearTransientCountsNewtonIterations) {
    // Diode clamp driven by a pulse: every step runs the Newton relaxation
    // over the table element, so the iteration count must exceed the step
    // count while rejections stay zero for this well-behaved circuit.
    const Netlist nl = test::diode_clamp_netlist();

    TransientOptions opt;
    opt.dt = 2.5e-11;
    opt.tstop = 2e-9;
    const TransientResult r = transient_analyze(nl, opt);

    EXPECT_GE(r.stats.steps, 80u);
    EXPECT_LE(r.stats.steps, 81u);
    EXPECT_GE(r.stats.newton_iterations, r.stats.steps);
    EXPECT_EQ(r.stats.step_rejections, 0u);
    EXPECT_GE(r.stats.lu_solves, r.stats.newton_iterations);
    EXPECT_GE(r.stats.lu_factorizations, 1u);
}

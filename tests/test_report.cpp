// Flight-recorder tests: convergence streams (zero-cost-off guarantee and
// bitwise-identical results), resource accounting, the JSON parser, the
// SolveReport round trip, pool statistics, the Markdown renderer, and the
// bench_compare perf-regression gate.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdio>
#include <filesystem>

#include "common/parallel.hpp"
#include "common/robust.hpp"
#include "io/json.hpp"
#include "numeric/gmres.hpp"
#include "obs/bench_gate.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/resource.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"

using namespace pgsi;

namespace {

// Per-test stream/resource sandbox: both recorders on, cleared, restored off.
class ReportTest : public ::testing::Test {
protected:
    void SetUp() override {
        obs::set_streams_enabled(true);
        obs::set_resources_enabled(true);
        obs::reset_streams();
    }
    void TearDown() override {
        obs::set_streams_enabled(false);
        obs::set_resources_enabled(false);
        obs::reset_streams();
    }
};

// Diagonally dominant dense test system; GMRES takes a handful of
// iterations, enough to populate a residual stream.
BlockGmresResult solve_test_system(VectorC& x) {
    const std::size_t n = 24;
    MatrixC a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = i == j ? Complex(4.0 + double(i) * 0.1, 0.5)
                             : Complex(1.0 / (1.0 + double(i + 2 * j)), 0.0);
    VectorC b(n);
    for (std::size_t i = 0; i < n; ++i)
        b[i] = Complex(1.0, double(i) * 0.01);
    const LinearOpC op = [&a](const VectorC& v, VectorC& y) {
        for (std::size_t i = 0; i < a.rows(); ++i) {
            Complex s = 0;
            for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * v[j];
            y[i] = s;
        }
    };
    std::vector<VectorC> xs(1, VectorC(n, Complex(0, 0)));
    const BlockGmresResult r = block_gmres(op, {b}, xs);
    x = std::move(xs[0]);
    return r;
}

const obs::StreamSeries* find_series(const std::vector<obs::StreamSeries>& all,
                                     const std::string& name) {
    for (const obs::StreamSeries& s : all)
        if (s.name == name) return &s;
    return nullptr;
}

} // namespace

TEST_F(ReportTest, GmresRecordsResidualStream) {
    VectorC x;
    const BlockGmresResult r = solve_test_system(x);
    ASSERT_TRUE(r.converged);
    const auto streams = obs::stream_snapshot();
    const obs::StreamSeries* s = find_series(streams, "gmres.residual");
    ASSERT_NE(s, nullptr);
    // One point per iteration, the first at iteration 1, plus the final
    // true residual; monotone x, and the last y equals the reported residual.
    ASSERT_EQ(s->x.size(), r.iterations + 1);
    EXPECT_EQ(s->x.size(), s->y.size());
    EXPECT_DOUBLE_EQ(s->x.front(), 1.0);
    EXPECT_DOUBLE_EQ(s->y.back(), r.worst_residual);
    for (std::size_t i = 1; i < s->x.size(); ++i)
        EXPECT_GE(s->x[i], s->x[i - 1]);
    EXPECT_EQ(s->dropped, 0u);
}

TEST_F(ReportTest, StreamsOffIsEmptyAndBitwiseIdentical) {
    // Reference run with streams ON.
    VectorC x_on;
    const BlockGmresResult r_on = solve_test_system(x_on);
    ASSERT_NE(find_series(obs::stream_snapshot(), "gmres.residual"), nullptr);

    // Same solve with recording OFF: nothing recorded, and the solution and
    // telemetry are bitwise identical — instrumentation only reads state.
    obs::set_streams_enabled(false);
    obs::reset_streams();
    VectorC x_off;
    const BlockGmresResult r_off = solve_test_system(x_off);
    EXPECT_TRUE(obs::stream_snapshot().empty());
    EXPECT_EQ(obs::stream_open("ignored"), obs::kStreamNone);
    ASSERT_EQ(x_on.size(), x_off.size());
    for (std::size_t i = 0; i < x_on.size(); ++i) {
        EXPECT_EQ(x_on[i].real(), x_off[i].real());
        EXPECT_EQ(x_on[i].imag(), x_off[i].imag());
    }
    EXPECT_EQ(r_on.iterations, r_off.iterations);
    EXPECT_EQ(r_on.matvecs, r_off.matvecs);
    EXPECT_EQ(r_on.worst_residual, r_off.worst_residual);
}

TEST_F(ReportTest, StreamCapsAndStaleIdsAreSafe) {
    const std::size_t id = obs::stream_open("capped");
    ASSERT_NE(id, obs::kStreamNone);
    for (std::size_t i = 0; i < obs::kMaxPoints + 100; ++i)
        obs::stream_append(id, double(i), 1.0);
    const auto snap = obs::stream_snapshot();
    const obs::StreamSeries* s = find_series(snap, "capped");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->x.size(), obs::kMaxPoints);
    EXPECT_EQ(s->dropped, 100u);

    // Ids issued before a reset must go dead, not alias new series.
    EXPECT_TRUE(obs::stream_live(id));
    obs::reset_streams();
    EXPECT_FALSE(obs::stream_live(id));
    obs::stream_append(id, 0, 0); // silently dropped
    obs::stream_mark(id, 0, "stale");
    const std::size_t fresh = obs::stream_open("after_reset");
    ASSERT_NE(fresh, obs::kStreamNone);
    obs::stream_append(fresh, 1, 2);
    const auto snap2 = obs::stream_snapshot();
    ASSERT_EQ(snap2.size(), 1u);
    EXPECT_EQ(snap2[0].name, "after_reset");
    EXPECT_EQ(snap2[0].x.size(), 1u);
    EXPECT_TRUE(snap2[0].marks.empty());
}

TEST_F(ReportTest, MatrixAllocationsAreAttributedToScopes) {
    const std::uint64_t count0 =
        obs::metrics_snapshot().counter_value("alloc.matrix.count");
    const std::uint64_t tagged0 =
        obs::metrics_snapshot().counter_value("alloc.test.scope.bytes");
    {
        PGSI_ALLOC_SCOPE("test.scope");
        MatrixD m(10, 20);
        (void)m;
    }
    const obs::MetricsSnapshot snap = obs::metrics_snapshot();
    EXPECT_GE(snap.counter_value("alloc.matrix.count"), count0 + 1);
    EXPECT_EQ(snap.counter_value("alloc.test.scope.bytes"),
              tagged0 + 10 * 20 * sizeof(double));
}

TEST_F(ReportTest, PoolStatsCountJobsAndBusyTime) {
    par::reset_pool_stats();
    std::atomic<std::uint64_t> sum{0};
    par::parallel_for(1000, [&sum](std::size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 1000u * 999u / 2);
    const par::PoolStats st = par::pool_stats();
    EXPECT_GE(st.jobs, 1u);
    EXPECT_GE(st.items, 1000u);
    EXPECT_GT(st.wall_ns, 0u);
    ASSERT_FALSE(st.busy_ns.empty());
    std::uint64_t busy = 0;
    for (const std::uint64_t b : st.busy_ns) busy += b;
    EXPECT_GT(busy, 0u);
}

TEST(JsonParser, ParsesScalarsContainersAndEscapes) {
    const JsonValue v = parse_json(
        " {\"a\": 1.5e2, \"b\": [true, false, null, -3], "
        "\"s\": \"q\\\"\\\\\\n\\u0041\\u00e9\\ud83d\\ude00\", "
        "\"nested\": {\"deep\": {\"x\": 7}}} ");
    ASSERT_TRUE(v.is_object());
    EXPECT_DOUBLE_EQ(v.at("a").number, 150.0);
    const JsonValue& b = v.at("b");
    ASSERT_TRUE(b.is_array());
    ASSERT_EQ(b.array.size(), 4u);
    EXPECT_TRUE(b.array[0].is_bool() && b.array[0].boolean);
    EXPECT_TRUE(b.array[1].is_bool() && !b.array[1].boolean);
    EXPECT_TRUE(b.array[2].is_null());
    EXPECT_DOUBLE_EQ(b.array[3].number, -3.0);
    // \u0041 = 'A', \u00e9 = é (2-byte UTF-8), the surrogate pair = 😀.
    EXPECT_EQ(v.at("s").string, "q\"\\\nA\xC3\xA9\xF0\x9F\x98\x80");
    EXPECT_DOUBLE_EQ(v.at("nested").at("deep").at("x").number, 7.0);
    EXPECT_DOUBLE_EQ(v.num_or("missing", -1.0), -1.0);
}

TEST(JsonParser, RejectsMalformedDocuments) {
    EXPECT_THROW(parse_json(""), InvalidArgument);
    EXPECT_THROW(parse_json("{"), InvalidArgument);
    EXPECT_THROW(parse_json("{\"a\": }"), InvalidArgument);
    EXPECT_THROW(parse_json("[1, 2,]"), InvalidArgument);
    EXPECT_THROW(parse_json("{\"a\": 1} trailing"), InvalidArgument);
    EXPECT_THROW(parse_json("\"unterminated"), InvalidArgument);
    EXPECT_THROW(parse_json("{\"bad\": \"\\ud800\"}"), InvalidArgument);
    EXPECT_THROW(parse_json("nul"), InvalidArgument);
    // Depth bomb must hit the recursion cap, not the stack.
    std::string deep(1000, '[');
    deep += std::string(1000, ']');
    EXPECT_THROW(parse_json(deep), InvalidArgument);
}

TEST(JsonParser, MetricsJsonIsParseable) {
    obs::counter("test.report.counter").add(3);
    obs::gauge("test.report.gauge").set(2.5);
    obs::histogram("test.report.hist").record(5.0);
    const JsonValue v = parse_json(obs::metrics_json());
    ASSERT_TRUE(v.is_object());
    EXPECT_GE(v.at("counters").num_or("test.report.counter", 0), 3.0);
    EXPECT_DOUBLE_EQ(v.at("gauges").num_or("test.report.gauge", 0), 2.5);
    const JsonValue& h = v.at("histograms").at("test.report.hist");
    EXPECT_GE(h.num_or("count", 0), 1.0);
    EXPECT_DOUBLE_EQ(h.num_or("max", 0), 5.0);
}

TEST(JsonParser, NonFiniteAndHugeNumbersStayParseable) {
    // JSON has no NaN/Inf: both documents must write null there, and a
    // magnitude past 2^63 must not go through an integer cast.
    obs::gauge("test.report.nan").set(std::nan(""));
    obs::gauge("test.report.huge").set(1e300);
    const JsonValue m = parse_json(obs::metrics_json());
    EXPECT_TRUE(m.at("gauges").at("test.report.nan").is_null());
    EXPECT_DOUBLE_EQ(m.at("gauges").num_or("test.report.huge", 0), 1e300);
    const JsonValue r =
        parse_json(obs::SolveReportBuilder("test_report").build_json());
    EXPECT_TRUE(r.at("metrics").at("gauges").at("test.report.nan").is_null());
    obs::gauge("test.report.nan").set(0);
    obs::gauge("test.report.huge").set(0);
}

TEST(JsonParser, NumberWriterKeepsIntegersExact) {
    EXPECT_EQ(obs::json_number(123456.0), "123456");
    EXPECT_EQ(obs::json_number(-0.0), "0");
    EXPECT_EQ(obs::json_number(0.5), "0.5");
    EXPECT_EQ(obs::json_number(1e15), "1000000000000000");
    EXPECT_EQ(obs::json_number(-1e19), "-1e+19");
    EXPECT_EQ(obs::json_number(INFINITY), "null");
}

TEST_F(ReportTest, SolveReportRoundTripsThroughTheParser) {
    obs::set_trace_enabled(true);
    obs::reset_trace();
    { PGSI_TRACE_SCOPE("report_span"); }

    VectorC x;
    solve_test_system(x); // populates a gmres.residual stream

    obs::SolveReportBuilder builder("test_report");
    const char* argv[] = {"test_report", "--flag"};
    builder.set_argv(2, argv);
    builder.add_number("custom", "answer", 42.0);
    builder.add_text("custom", "note", "quote \" backslash \\ done");
    robust::RecoveryReport rr;
    rr.events.push_back({"gmres.stall", "escalated to dense fallback"});
    builder.add_recoveries(rr);

    const std::filesystem::path path =
        std::filesystem::temp_directory_path() / "pgsi_test_report.json";
    builder.write_file(path.string());
    const JsonValue v = parse_json_file(path.string());
    std::filesystem::remove(path);

    EXPECT_EQ(v.str_or("schema", ""), obs::kSolveReportSchema);
    EXPECT_EQ(v.str_or("tool", ""), "test_report");
    EXPECT_GE(v.num_or("wall_seconds", -1), 0.0);
    ASSERT_TRUE(v.at("argv").is_array());
    EXPECT_EQ(v.at("argv").array[1].string, "--flag");
    EXPECT_GE(v.at("environment").num_or("threads", 0), 1.0);
    EXPECT_GE(v.at("resources").num_or("matrix_alloc_count", 0), 1.0);
    ASSERT_TRUE(v.at("pool").at("busy_ns").is_array());

    // The recorded span and stream made it through.
    bool saw_span = false;
    for (const JsonValue& s : v.at("spans").array)
        saw_span = saw_span || s.str_or("path", "") == "report_span";
    EXPECT_TRUE(saw_span);
    const JsonValue& streams = v.at("streams");
    ASSERT_TRUE(streams.is_array());
    bool saw_stream = false;
    for (const JsonValue& s : streams.array)
        if (s.str_or("name", "") == "gmres.residual") {
            saw_stream = true;
            EXPECT_FALSE(s.at("points").array.empty());
        }
    EXPECT_TRUE(saw_stream);

    ASSERT_EQ(v.at("recoveries").array.size(), 1u);
    EXPECT_EQ(v.at("recoveries").array[0].str_or("site", ""), "gmres.stall");
    EXPECT_DOUBLE_EQ(v.at("sections").at("custom").num_or("answer", 0), 42.0);
    EXPECT_EQ(v.at("sections").at("custom").str_or("note", ""),
              "quote \" backslash \\ done");

    // The Markdown renderer consumes the same document.
    const std::string md = obs::render_solve_report_markdown(v);
    EXPECT_NE(md.find("# SolveReport: test_report"), std::string::npos);
    EXPECT_NE(md.find("gmres.residual"), std::string::npos);
    EXPECT_NE(md.find("## Recoveries"), std::string::npos);

    obs::set_trace_enabled(false);
    obs::reset_trace();
}

namespace {

// Synthetic golden/fresh pair shaped like BENCH_scaling.json.
constexpr const char* kGolden = R"({
  "bench": "scaling", "threads": 8,
  "cases": [
    {"n": 6, "nodes": 30, "fill_direct_s": 0.10, "sweep_s": 0.04,
     "cached_rel_err": 1e-12, "gmres_iterations": 100},
    {"n": 10, "nodes": 80, "fill_direct_s": 0.50, "sweep_s": 0.20,
     "cached_rel_err": 1e-12, "gmres_iterations": 300}
  ],
  "resources": {"peak_rss_bytes": 1000000, "matrix_alloc_count": 500}
})";

std::string fresh_with(double fill10, double iters10) {
    char buf[1024];
    std::snprintf(buf, sizeof buf, R"({
  "bench": "scaling", "threads": 8,
  "cases": [
    {"n": 6, "nodes": 30, "fill_direct_s": 0.10, "sweep_s": 0.04,
     "cached_rel_err": 1e-12, "gmres_iterations": 100},
    {"n": 10, "nodes": 80, "fill_direct_s": %.4f, "sweep_s": 0.20,
     "cached_rel_err": 1e-12, "gmres_iterations": %.0f}
  ],
  "resources": {"peak_rss_bytes": 9000000, "matrix_alloc_count": 500}
})",
                  fill10, iters10);
    return buf;
}

} // namespace

TEST(BenchGate, UnchangedRecordPasses) {
    const JsonValue golden = parse_json(kGolden);
    const obs::BenchGateResult r =
        obs::compare_bench(parse_json(fresh_with(0.50, 300)), golden);
    EXPECT_TRUE(r.ok()) << obs::format_bench_gate(r);
    EXPECT_GT(r.compared.size(), 0u);
}

TEST(BenchGate, TwofoldSlowdownFails) {
    const JsonValue golden = parse_json(kGolden);
    const obs::BenchGateResult r =
        obs::compare_bench(parse_json(fresh_with(1.00, 300)), golden);
    EXPECT_FALSE(r.ok());
    ASSERT_EQ(r.regression_count(), 1u);
    EXPECT_EQ(r.compared.front().path, "cases[n=10].fill_direct_s");
    EXPECT_NEAR(r.compared.front().ratio, 2.0, 1e-9);
}

TEST(BenchGate, IterationBlowupFails) {
    const JsonValue golden = parse_json(kGolden);
    const obs::BenchGateResult r =
        obs::compare_bench(parse_json(fresh_with(0.50, 600)), golden);
    EXPECT_FALSE(r.ok());
    ASSERT_EQ(r.regression_count(), 1u);
    EXPECT_EQ(r.compared.front().path, "cases[n=10].gmres_iterations");
}

TEST(BenchGate, ImprovementsAndDescriptorsPass) {
    const JsonValue golden = parse_json(kGolden);
    // Twice as fast, and peak RSS (machine-dependent, skipped) 9x higher.
    const obs::BenchGateResult r =
        obs::compare_bench(parse_json(fresh_with(0.25, 150)), golden);
    EXPECT_TRUE(r.ok()) << obs::format_bench_gate(r);
    bool rss_skipped = false;
    for (const std::string& s : r.skipped)
        rss_skipped = rss_skipped ||
                      s.find("peak_rss_bytes") != std::string::npos;
    EXPECT_TRUE(rss_skipped);
}

TEST(BenchGate, SubsetAndMissingKeysAreSkippedNotFailed) {
    const JsonValue golden = parse_json(kGolden);
    // A smoke run covering only n=6, with one extra key the golden lacks.
    const JsonValue fresh = parse_json(R"({
  "bench": "scaling", "threads": 8,
  "cases": [
    {"n": 6, "nodes": 30, "fill_direct_s": 0.10, "sweep_s": 0.04,
     "cached_rel_err": 1e-12, "gmres_iterations": 100, "new_metric_s": 5.0}
  ]
})");
    const obs::BenchGateResult r = obs::compare_bench(fresh, golden);
    EXPECT_TRUE(r.ok()) << obs::format_bench_gate(r);
    bool saw_new = false, saw_resources = false;
    for (const std::string& s : r.skipped) {
        saw_new = saw_new || s.find("new_metric_s") != std::string::npos;
        saw_resources =
            saw_resources || s.find("resources") != std::string::npos;
    }
    EXPECT_TRUE(saw_new);
    EXPECT_TRUE(saw_resources);
    // But a matched case that regressed still fails, even in a subset run.
    const JsonValue bad = parse_json(R"({
  "cases": [{"n": 6, "fill_direct_s": 0.40}]
})");
    EXPECT_FALSE(obs::compare_bench(bad, golden).ok());
}

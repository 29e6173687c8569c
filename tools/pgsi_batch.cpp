// pgsi_batch — run a campaign of solve jobs through the fault-contained
// batch engine (pgsi::serve).
//
//   pgsi_batch <jobs.json> [--journal jobs.jsonl] [--resume]
//              [--threads n] [--cache-mb n] [--out results.json]
//
// Each job in the JSON campaign (see src/serve/job.hpp for the format) runs
// inside its own containment boundary: deadline, retry ladder, exception
// capture. Plane models are shared through the process ModelCache. With
// --journal, every finished job is fsync'd to the journal so a killed
// campaign restarted with --resume skips the completed jobs and merges to
// bit-identical results. Exit code: 0 when every job completed (or was
// resumed), 2 when some jobs failed but the batch itself ran, 1 on usage /
// campaign-level errors.
#include <cinttypes>
#include <cstdio>
#include <string>

#include "common/parallel.hpp"
#include "serve/engine.hpp"
#include "tools/cli_common.hpp"

using namespace pgsi;

namespace {

constexpr const char* kUsage =
    "pgsi_batch <jobs.json> [--journal jobs.jsonl] [--resume] [--threads n]\n"
    "           [--cache-mb n] [--out results.json]\n"
    "           [--profile] [--trace-json out.json] [--report out.json]";

void write_results_json(const std::string& path,
                        const serve::BatchResult& result) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw Error("cannot write " + path);
    std::fprintf(f, "{\n  \"schema\": \"pgsi.batch_results/1\",\n");
    std::fprintf(f, "  \"jobs\": [\n");
    for (std::size_t i = 0; i < result.reports.size(); ++i) {
        const serve::JobReport& rep = result.reports[i];
        std::fprintf(f,
                     "    {\"id\": \"%s\", \"state\": \"%s\", "
                     "\"attempts\": %d, \"cache_hit\": %s, "
                     "\"digest\": \"%016" PRIx64 "\", \"summary\": %.17g, "
                     "\"wall_s\": %.6f}%s\n",
                     obs::json_escape(rep.id).c_str(),
                     serve::to_string(rep.state), rep.attempts,
                     rep.cache_hit ? "true" : "false", rep.digest, rep.summary,
                     rep.wall_seconds,
                     i + 1 < result.reports.size() ? "," : "");
    }
    const serve::BatchStats& st = result.stats;
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"completed\": %zu, \"failed\": %zu, "
                 "\"deadline_expired\": %zu, \"cancelled\": %zu, "
                 "\"resumed\": %zu, \"retries\": %zu,\n"
                 "  \"cache_hits\": %" PRIu64 ", \"cache_misses\": %" PRIu64
                 ", \"wall_s\": %.6f\n}\n",
                 st.completed, st.failed, st.deadline_expired, st.cancelled,
                 st.resumed, st.retries, st.cache_hits, st.cache_misses,
                 st.wall_seconds);
    std::fclose(f);
}

} // namespace

int main(int argc, char** argv) {
    return cli::run_tool(
        [&]() -> int {
            const cli::Args args(
                argc, argv,
                cli::ObsSession::flags(
                    {"journal", "resume", "threads", "cache-mb", "out"}));
            if (args.positional().size() != 1)
                throw InvalidArgument("expected exactly one job file");
            const cli::ObsSession obs_session(args, "pgsi_batch", argc, argv);

            const std::size_t threads =
                static_cast<std::size_t>(args.num("threads", 0));
            if (threads > 0) par::set_thread_count(threads);

            const serve::JobFile campaign =
                serve::parse_job_file(args.positional()[0]);

            serve::BatchOptions opt;
            opt.journal_path = args.str("journal", "");
            opt.resume = args.has("resume");
            const double cache_mb = args.num("cache-mb", 0);
            serve::ModelCache local_cache(
                static_cast<std::size_t>(cache_mb * 1024 * 1024));
            if (cache_mb > 0) opt.cache = &local_cache;

            serve::JobQueue queue(opt);
            const serve::BatchResult result = queue.run(campaign.jobs);

            std::printf("%-16s %-16s %8s %6s %10s %18s %12s\n", "job", "state",
                        "attempts", "cache", "wall [s]", "digest", "summary");
            for (const serve::JobReport& rep : result.reports) {
                std::printf("%-16s %-16s %8d %6s %10.3f   %016" PRIx64
                            " %12.4g\n",
                            rep.id.c_str(), serve::to_string(rep.state),
                            rep.attempts, rep.cache_hit ? "hit" : "miss",
                            rep.wall_seconds, rep.digest, rep.summary);
                if (!rep.error.empty())
                    std::printf("  ^ %s\n", rep.error.c_str());
            }
            const serve::BatchStats& st = result.stats;
            std::printf(
                "\n%zu completed, %zu resumed, %zu failed, %zu deadline, "
                "%zu cancelled; %zu retries; cache %" PRIu64 "/%" PRIu64
                " hits; %.3f s\n",
                st.completed, st.resumed, st.failed, st.deadline_expired,
                st.cancelled, st.retries, st.cache_hits,
                st.cache_hits + st.cache_misses, st.wall_seconds);

            const std::string out = args.str("out", "");
            if (!out.empty()) {
                write_results_json(out, result);
                std::printf("wrote %s\n", out.c_str());
            }
            return result.all_completed() ? 0 : 2;
        },
        kUsage);
}

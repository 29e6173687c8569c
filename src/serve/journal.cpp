#include "serve/journal.hpp"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pgsi::serve {

JournalRecord to_journal_record(const JobReport& report) {
    JournalRecord rec;
    rec.id = report.id;
    rec.state = report.state;
    rec.attempts = report.attempts;
    rec.cache_hit = report.cache_hit;
    rec.digest = report.digest;
    rec.summary = report.summary;
    rec.wall_seconds = report.wall_seconds;
    rec.error = report.error;
    return rec;
}

Journal::Journal(const std::string& path) : path_(path) {
    // O_RDWR (not O_WRONLY): the torn-tail probe below needs to read the
    // last byte back; O_APPEND still pins every write to the end.
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_APPEND, 0644);
    if (fd_ < 0)
        throw Error("journal: cannot open " + path + ": " +
                    std::strerror(errno));
    // Heal a torn tail: a writer killed mid-append leaves a final line with
    // no newline, and appending straight after it would glue the next record
    // onto the torn fragment — losing a record that *was* fsync'd. Terminate
    // the fragment so it stays one (skippable) torn line.
    struct ::stat st{};
    char last = '\n';
    if (::fstat(fd_, &st) == 0 && st.st_size > 0 &&
        ::pread(fd_, &last, 1, st.st_size - 1) == 1 && last != '\n') {
        if (::write(fd_, "\n", 1) != 1)
            throw Error("journal: cannot terminate torn tail of " + path +
                        ": " + std::strerror(errno));
    }
}

Journal::~Journal() {
    if (fd_ >= 0) ::close(fd_);
}

void Journal::append(const JournalRecord& record) {
    std::string line = "{\"id\":\"";
    line += obs::json_escape(record.id);
    line += "\",\"state\":\"";
    line += to_string(record.state);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\",\"attempts\":%d,\"cache_hit\":%s,\"digest\":\"%016" PRIx64
                  "\",\"summary\":%.17g,\"wall_s\":%.6g,\"error\":\"",
                  record.attempts, record.cache_hit ? "true" : "false",
                  record.digest, record.summary, record.wall_seconds);
    line += buf;
    line += obs::json_escape(record.error);
    line += "\"}\n";

    const std::lock_guard<std::mutex> lock(mu_);
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw Error("journal: write to " + path_ + " failed: " +
                        std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }
    // The durability contract: a record the engine saw appended survives a
    // kill. One fsync per job is noise next to the solve it records.
    if (::fsync(fd_) != 0)
        throw Error("journal: fsync of " + path_ + " failed: " +
                    std::strerror(errno));
}

std::vector<JournalRecord> Journal::load(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return {};
    std::vector<JournalRecord> out;
    std::string line;
    std::uint64_t torn = 0;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        JournalRecord rec;
        try {
            const JsonValue v = parse_json(line);
            rec.id = v.at("id").string;
            rec.state = job_state_from_string(v.at("state").string);
            rec.attempts = static_cast<int>(v.num_or("attempts", 0));
            const JsonValue* hit = v.find("cache_hit");
            rec.cache_hit = hit != nullptr && hit->is_bool() && hit->boolean;
            rec.digest = std::strtoull(v.str_or("digest", "0").c_str(),
                                       nullptr, 16);
            rec.summary = v.num_or("summary", 0);
            rec.wall_seconds = v.num_or("wall_s", 0);
            rec.error = v.str_or("error", "");
            if (rec.id.empty()) throw Error("journal record without id");
        } catch (const Error&) {
            // A torn line is the expected signature of a kill mid-append;
            // anything after it is unreachable by the append-only writer,
            // but stay line-tolerant and keep scanning.
            ++torn;
            continue;
        }
        out.push_back(std::move(rec));
    }
    if (torn > 0) obs::counter("serve.journal.torn_lines").add(torn);
    return out;
}

} // namespace pgsi::serve

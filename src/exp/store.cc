#include "exp/store.hh"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "audit/shapes.hh"
#include "trace/json.hh"

namespace wwt::exp
{

namespace
{

/** snake_case category key (mirrors scenario.cc's shape metrics). */
std::string
snakeCategory(stats::Category c)
{
    std::string out;
    for (char ch : std::string(stats::categoryName(c))) {
        if (ch == ' ' || ch == '-')
            out += '_';
        else
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(ch)));
    }
    return out;
}

void
makeDir(const std::string& path)
{
    if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST)
        throw std::runtime_error("cannot create directory " + path +
                                 ": " + std::strerror(errno));
}

double
numberOr(const audit::JsonValue& obj, const std::string& key,
         double fallback)
{
    const audit::JsonValue* v = obj.find(key);
    return v && v->kind == audit::JsonValue::Kind::Number ? v->number
                                                          : fallback;
}

std::string
stringOr(const audit::JsonValue& obj, const std::string& key,
         const std::string& fallback)
{
    const audit::JsonValue* v = obj.find(key);
    return v && v->kind == audit::JsonValue::Kind::String ? v->string
                                                          : fallback;
}

bool
boolOr(const audit::JsonValue& obj, const std::string& key,
       bool fallback)
{
    const audit::JsonValue* v = obj.find(key);
    return v && v->kind == audit::JsonValue::Kind::Bool ? v->boolean
                                                        : fallback;
}

} // namespace

const char*
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::Pass: return "pass";
      case RunStatus::Fail: return "fail";
      case RunStatus::Crash: return "crash";
      case RunStatus::Timeout: return "timeout";
    }
    return "?";
}

void
RunRecord::setReport(const core::MachineReport& rep)
{
    elapsedCycles = static_cast<double>(rep.elapsed);
    totalCyclesPerProc = rep.totalCycles();
    cycles.clear();
    for (std::size_t i = 0; i < stats::kNumCategories; ++i) {
        auto cat = static_cast<stats::Category>(i);
        cycles.emplace_back(snakeCategory(cat), rep.cycles(cat));
    }
    stats::Counts c = rep.counts();
    counts.clear();
    counts.emplace_back("priv_misses",
                        static_cast<double>(c.privMisses));
    counts.emplace_back("shared_miss_local",
                        static_cast<double>(c.sharedMissLocal));
    counts.emplace_back("shared_miss_remote",
                        static_cast<double>(c.sharedMissRemote));
    counts.emplace_back("write_faults",
                        static_cast<double>(c.writeFaults));
    counts.emplace_back("tlb_misses",
                        static_cast<double>(c.tlbMisses));
    counts.emplace_back("packets_sent",
                        static_cast<double>(c.packetsSent));
    counts.emplace_back("channel_writes",
                        static_cast<double>(c.channelWrites));
    counts.emplace_back("proto_msgs", static_cast<double>(c.protoMsgs));
    counts.emplace_back("bytes_data", static_cast<double>(c.bytesData));
    counts.emplace_back("bytes_ctrl", static_cast<double>(c.bytesCtrl));
    counts.emplace_back("lock_acquires",
                        static_cast<double>(c.lockAcquires));
    counts.emplace_back("barriers", static_cast<double>(c.barriers));
}

std::string
RunRecord::toJsonLine() const
{
    std::ostringstream os;
    {
        trace::JsonWriter w(os, /*pretty=*/false);
        w.beginObject();
        w.kv("schema", "wwtcmp.campaign-record/1");
        w.kv("scenario", scenario);
        w.kv("config_hash", configHash);
        w.kv("status", runStatusName(status));
        w.kv("attempts", attempts);
        w.kv("app", app);
        w.kv("machine", machine);
        w.key("config").beginObject();
        for (const auto& [k, v] : config)
            w.kv(k, v);
        w.endObject();
        w.kv("elapsed_cycles", elapsedCycles);
        w.kv("total_cycles_per_proc", totalCyclesPerProc);
        w.key("cycles_per_proc").beginObject();
        for (const auto& [k, v] : cycles)
            w.kv(k, v);
        w.endObject();
        w.key("counts").beginObject();
        for (const auto& [k, v] : counts)
            w.kv(k, v);
        w.endObject();
        w.kv("wall_sec", wallSec);
        w.kv("user_sec", userSec);
        w.kv("sys_sec", sysSec);
        w.kv("max_rss_kb", maxRssKb);
        if (!hostPhases.empty()) {
            w.key("host_phases").beginObject();
            for (const auto& [k, v] : hostPhases)
                w.kv(k, v);
            w.endObject();
        }
        w.kv("metrics", metricsPath);
        w.kv("shape_violations", shapeViolations);
        w.kv("error", error);
        // Provenance keys only exist on cache-hit records so that
        // executed records keep their historical byte layout (the
        // determinism diff gates compare stores byte-for-byte).
        if (cached) {
            w.kv("cached", true);
            w.kv("cache_source", cacheSource);
            w.kv("cache_line", cacheLine);
            w.kv("cache_wall_sec", cacheWallSec);
        }
        w.endObject();
    }
    return os.str();
}

RunRecord
RunRecord::fromJsonLine(const std::string& line)
{
    audit::JsonValue doc = audit::parseJson(line);
    if (doc.kind != audit::JsonValue::Kind::Object)
        throw std::runtime_error("record line is not an object");
    if (stringOr(doc, "schema", "") != "wwtcmp.campaign-record/1")
        throw std::runtime_error(
            "record schema is not wwtcmp.campaign-record/1");

    RunRecord r;
    r.scenario = stringOr(doc, "scenario", "");
    if (r.scenario.empty())
        throw std::runtime_error("record lacks a scenario id");
    r.configHash = stringOr(doc, "config_hash", "");
    std::string status = stringOr(doc, "status", "");
    if (status == "pass")
        r.status = RunStatus::Pass;
    else if (status == "fail")
        r.status = RunStatus::Fail;
    else if (status == "crash")
        r.status = RunStatus::Crash;
    else if (status == "timeout")
        r.status = RunStatus::Timeout;
    else
        throw std::runtime_error("record has unknown status \"" +
                                 status + "\"");
    r.attempts = static_cast<int>(numberOr(doc, "attempts", 1));
    r.app = stringOr(doc, "app", "");
    r.machine = stringOr(doc, "machine", "");
    if (const audit::JsonValue* cfg = doc.find("config")) {
        for (const auto& [k, v] : cfg->object) {
            if (v.kind == audit::JsonValue::Kind::String)
                r.config.emplace_back(k, v.string);
        }
    }
    r.elapsedCycles = numberOr(doc, "elapsed_cycles", 0);
    r.totalCyclesPerProc = numberOr(doc, "total_cycles_per_proc", 0);
    if (const audit::JsonValue* cy = doc.find("cycles_per_proc")) {
        for (const auto& [k, v] : cy->object)
            r.cycles.emplace_back(k, v.number);
    }
    if (const audit::JsonValue* ct = doc.find("counts")) {
        for (const auto& [k, v] : ct->object)
            r.counts.emplace_back(k, v.number);
    }
    r.wallSec = numberOr(doc, "wall_sec", 0);
    r.userSec = numberOr(doc, "user_sec", 0);
    r.sysSec = numberOr(doc, "sys_sec", 0);
    r.maxRssKb = numberOr(doc, "max_rss_kb", 0);
    if (const audit::JsonValue* hp = doc.find("host_phases")) {
        for (const auto& [k, v] : hp->object)
            r.hostPhases.emplace_back(k, v.number);
    }
    r.metricsPath = stringOr(doc, "metrics", "");
    r.shapeViolations =
        static_cast<int>(numberOr(doc, "shape_violations", 0));
    r.error = stringOr(doc, "error", "");
    r.cached = boolOr(doc, "cached", false);
    if (r.cached) {
        r.cacheSource = stringOr(doc, "cache_source", "");
        r.cacheLine = static_cast<std::uint64_t>(
            numberOr(doc, "cache_line", 0));
        r.cacheWallSec = numberOr(doc, "cache_wall_sec", 0);
    }
    return r;
}

void
Store::setWorker(const std::string& name)
{
    if (name.empty())
        throw std::runtime_error("worker name must not be empty");
    for (char c : name) {
        bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                  c == '_' || c == '-';
        if (!ok)
            throw std::runtime_error(
                "worker name \"" + name +
                "\" must match [A-Za-z0-9_-] (it names a file)");
    }
    worker_ = name;
}

bool
Store::exists() const
{
    return !resultsFiles().empty();
}

void
Store::create() const
{
    makeDir(dir_);
    makeDir(dir_ + "/logs");
    makeDir(dir_ + "/metrics");
    makeDir(dir_ + "/hostprof");
    makeDir(leasesDir());
}

std::vector<std::string>
Store::resultsFiles() const
{
    // Fold order: the classic single-runner file first, then the
    // worker shards sorted by name — the precedence order that the
    // tie rule in the file comment refers to.
    std::vector<std::string> shards;
    bool classic = false;
    if (DIR* d = ::opendir(dir_.c_str())) {
        while (const dirent* e = ::readdir(d)) {
            std::string name = e->d_name;
            if (name == "results.jsonl")
                classic = true;
            else if (name.rfind("results.", 0) == 0 &&
                     name.size() > 14 &&
                     name.compare(name.size() - 6, 6, ".jsonl") == 0)
                shards.push_back(dir_ + "/" + name);
        }
        ::closedir(d);
    }
    std::sort(shards.begin(), shards.end());
    std::vector<std::string> files;
    if (classic)
        files.push_back(dir_ + "/results.jsonl");
    files.insert(files.end(), shards.begin(), shards.end());
    return files;
}

void
Store::append(const RunRecord& rec) const
{
    std::ofstream os(resultsPath(), std::ios::app);
    if (!os)
        throw std::runtime_error("cannot append to " + resultsPath());
    os << rec.toJsonLine() << '\n';
}

void
Store::scanResultsFile(
    const std::string& path,
    const std::function<void(std::size_t, RunRecord&&)>& cb)
{
    std::ifstream in(path);
    if (!in)
        return;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);

    // A truncated or garbled *final* line means the writer was
    // interrupted mid-append (crash, full disk); every earlier record
    // is still intact, so salvage them with a warning. Garbage
    // anywhere else has no benign explanation — refuse the store.
    std::size_t last = lines.size();
    while (last > 0 && lines[last - 1].empty())
        --last;
    for (std::size_t i = 0; i < last; ++i) {
        if (lines[i].empty())
            continue;
        try {
            cb(i + 1, RunRecord::fromJsonLine(lines[i]));
        } catch (const std::exception& e) {
            if (i + 1 == last) {
                std::fprintf(stderr,
                             "warning: %s:%zu: skipping malformed "
                             "trailing record (%s)\n",
                             path.c_str(), i + 1, e.what());
                break;
            }
            throw std::runtime_error(path + ":" +
                                     std::to_string(i + 1) + ": " +
                                     e.what());
        }
    }
}

std::map<std::string, RunRecord>
Store::loadLatest() const
{
    std::map<std::string, RunRecord> latest;
    for (const std::string& file : resultsFiles()) {
        // Within one file, the last record per id wins (resume
        // appends supersede). Across files, a pass beats a non-pass
        // (a re-issued claim that recovered must shadow the dead
        // worker's timeout) and ties keep the earliest file in fold
        // order — deterministic regardless of scan interleaving.
        std::map<std::string, RunRecord> mine;
        scanResultsFile(file, [&](std::size_t, RunRecord&& r) {
            mine.insert_or_assign(r.scenario, std::move(r));
        });
        for (auto& [id, rec] : mine) {
            auto it = latest.find(id);
            if (it == latest.end())
                latest.emplace(id, std::move(rec));
            else if (it->second.status != RunStatus::Pass &&
                     rec.status == RunStatus::Pass)
                it->second = std::move(rec);
        }
    }
    return latest;
}

bool
Store::satisfiedBy(const std::map<std::string, RunRecord>& latest,
                   const Scenario& s) const
{
    auto it = latest.find(s.id);
    return it != latest.end() && it->second.status == RunStatus::Pass &&
           it->second.configHash == s.configHash();
}

} // namespace wwt::exp

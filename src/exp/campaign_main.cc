/**
 * @file
 * wwtcmp_campaign: the campaign front door.
 *
 *   wwtcmp_campaign run <campaign.json> [--profile P] [--dir D]
 *                   [--jobs N] [--timeout S] [--retries N]
 *                   [--chaos-kill ID] [--chaos-write-kill ID]
 *                   [--host-prof] [--cache DIR]...
 *                   [--workers A,B,..] [--worker A]
 *                   [--lease-timeout S]
 *   wwtcmp_campaign resume <campaign.json> [same flags]
 *   wwtcmp_campaign list <campaign.json> [--profile P]
 *   wwtcmp_campaign report <dir> [--format text|json|csv]
 *   wwtcmp_campaign diff <dirA> <dirB> [--tol X]
 *   wwtcmp_campaign analyze <dir> [--baseline DIR] [--json FILE]
 *                   [--outlier-eps X] [--skew-band X]
 *   wwtcmp_campaign serve <dir>... [--out D] [--trajectory FILE]
 *
 * `run` executes every expanded scenario of the campaign file in
 * crash-isolated parallel child processes (each child is this binary
 * re-invoked with the internal --run-one verb) and records one JSONL
 * result per run under the campaign directory. `resume` skips
 * scenarios whose stored records pass and still match the campaign
 * file's config hash, and re-runs the rest. `report` renders the
 * cross-scenario cycle table (text, JSON or CSV); `diff` compares
 * two campaign directories and fails on drift beyond the tolerance;
 * `analyze` runs the performance-debugging analytics (outlier
 * processors, desynchronization waves, baseline attribution — see
 * docs/analytics.md). See docs/campaigns.md for the file and record
 * schemas. `run --host-prof` additionally collects a host-time profile
 * per scenario (wwtcmp.hostprof/1, under <dir>/hostprof/) and fills
 * the records' host-phase breakdown; wall/user/sys/max-RSS are
 * recorded on every run regardless.
 *
 * Each child hands its record line back over a pipe it finds as fd 3
 * (exp/runner.hh); the parent validates the line before appending it.
 *
 * Service mode (docs/campaigns.md, "service mode"):
 *  - `--cache DIR` adds DIR's results to the content-addressed cache
 *    index: scenarios whose config hash already has a passing record
 *    anywhere (own store included) are adopted as cache-hit records
 *    with provenance instead of being re-executed.
 *  - `--workers a,b --worker a` runs this process as one of several
 *    cooperating runners sharing the store directory: scenarios are
 *    sharded by config hash, claims are lease files with heartbeats
 *    (svc/lease.hh), and a dead worker's claims re-issue after
 *    `--lease-timeout` seconds.
 *  - `serve` renders the read-side dashboard (svc/dashboard.hh), a
 *    static tree any file host can publish.
 */

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>

#include "audit/check.hh"
#include "core/parse.hh"
#include "exp/analyze.hh"
#include "exp/registry.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "exp/store.hh"
#include "prof/hostprof.hh"
#include "svc/cache_index.hh"
#include "svc/dashboard.hh"
#include "svc/lease.hh"

using namespace wwt;

namespace
{

int
usage(const char* msg = nullptr)
{
    if (msg)
        std::fprintf(stderr, "error: %s\n", msg);
    std::fprintf(
        stderr,
        "usage: wwtcmp_campaign run    <campaign.json> [--profile P] "
        "[--dir D] [--jobs N]\n"
        "                              [--timeout S] [--retries N] "
        "[--chaos-kill ID] [--host-prof]\n"
        "                              [--chaos-write-kill ID] "
        "[--cache DIR]...\n"
        "                              [--workers A,B,..] [--worker A] "
        "[--lease-timeout S]\n"
        "       wwtcmp_campaign resume <campaign.json> [same flags]\n"
        "       wwtcmp_campaign list   <campaign.json> [--profile P]\n"
        "       wwtcmp_campaign report <dir> [--format text|json|csv]\n"
        "       wwtcmp_campaign diff   <dirA> <dirB> [--tol X]\n"
        "       wwtcmp_campaign analyze <dir> [--baseline DIR] "
        "[--json FILE]\n"
        "                               [--outlier-eps X] "
        "[--skew-band X]\n"
        "       wwtcmp_campaign serve  <dir>... [--out D] "
        "[--trajectory FILE]\n"
        "apps: %s\n",
        exp::appNames().c_str());
    return 2;
}

/** Absolute path of this binary, for self-invoking children. */
std::string
selfExe(const char* argv0)
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

struct Cli {
    std::string verb;
    std::vector<std::string> positional;
    std::string profile = "paper";
    std::string dir;
    std::size_t jobs = 0; ///< 0 = pick from the host
    double timeoutOverride = 0;
    int retriesOverride = -1;
    std::string chaosKillId;
    double tolerance = 0.0;
    bool hostProf = false;
    exp::ReportFormat format = exp::ReportFormat::Text;
    exp::AnalyzeOptions analyze;
    // Service mode (run/resume).
    std::vector<std::string> cacheDirs; ///< --cache DIR (repeatable)
    std::vector<std::string> workers;   ///< --workers a,b,c
    std::string workerName;             ///< --worker a
    double leaseTimeoutSec = 30;        ///< --lease-timeout S
    std::string chaosWriteKillId;       ///< die mid-write once
    // serve
    std::string outDir = "dashboard";
    std::string trajectoryPath = "bench/BENCH_trajectory.json";
    // --run-one internals
    std::string scenarioId;
    bool chaosDieWriting = false;
};

/** Strict non-negative double flag value (core/parse.hh spirit). */
double
requireNonNegative(const char* flag, const char* v)
{
    char* end = nullptr;
    double x = std::strtod(v, &end);
    if (end == v || *end || !(x >= 0)) {
        std::fprintf(stderr,
                     "error: %s expects a non-negative number, "
                     "got '%s'\n",
                     flag, v);
        std::exit(2);
    }
    return x;
}

bool
parseCli(int argc, char** argv, Cli& c)
{
    if (argc < 2)
        return false;
    c.verb = argv[1];
    for (int i = 2; i < argc; ++i) {
        auto value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--profile")) {
            c.profile = value("--profile");
        } else if (!std::strcmp(argv[i], "--dir")) {
            c.dir = value("--dir");
        } else if (!std::strcmp(argv[i], "--jobs")) {
            c.jobs = static_cast<std::size_t>(
                core::requireCount("--jobs", value("--jobs"), 1, 256));
        } else if (!std::strcmp(argv[i], "--timeout")) {
            c.timeoutOverride = static_cast<double>(
                core::requireCount("--timeout", value("--timeout"), 1,
                                   exp::kMaxTimeoutSec));
        } else if (!std::strcmp(argv[i], "--retries")) {
            c.retriesOverride = static_cast<int>(core::requireCount(
                "--retries", value("--retries"), 0, 100));
        } else if (!std::strcmp(argv[i], "--chaos-kill")) {
            c.chaosKillId = value("--chaos-kill");
        } else if (!std::strcmp(argv[i], "--host-prof")) {
            c.hostProf = true;
        } else if (!std::strcmp(argv[i], "--tol")) {
            c.tolerance = requireNonNegative("--tol", value("--tol"));
        } else if (!std::strcmp(argv[i], "--format")) {
            const char* v = value("--format");
            if (!std::strcmp(v, "text")) {
                c.format = exp::ReportFormat::Text;
            } else if (!std::strcmp(v, "json")) {
                c.format = exp::ReportFormat::Json;
            } else if (!std::strcmp(v, "csv")) {
                c.format = exp::ReportFormat::Csv;
            } else {
                std::fprintf(stderr,
                             "error: --format expects text, json or "
                             "csv, got '%s'\n",
                             v);
                std::exit(2);
            }
        } else if (!std::strcmp(argv[i], "--baseline")) {
            c.analyze.baselineDir = value("--baseline");
        } else if (!std::strcmp(argv[i], "--json")) {
            c.analyze.jsonPath = value("--json");
        } else if (!std::strcmp(argv[i], "--outlier-eps")) {
            c.analyze.outlierEps =
                requireNonNegative("--outlier-eps",
                                   value("--outlier-eps"));
        } else if (!std::strcmp(argv[i], "--skew-band")) {
            c.analyze.skewBand = requireNonNegative(
                "--skew-band", value("--skew-band"));
        } else if (!std::strcmp(argv[i], "--cache")) {
            c.cacheDirs.push_back(value("--cache"));
        } else if (!std::strcmp(argv[i], "--workers")) {
            std::string csv = value("--workers");
            std::string name;
            std::istringstream ss(csv);
            while (std::getline(ss, name, ',')) {
                if (!name.empty())
                    c.workers.push_back(name);
            }
            if (c.workers.empty()) {
                std::fprintf(stderr,
                             "error: --workers expects a comma-"
                             "separated worker list, got '%s'\n",
                             csv.c_str());
                std::exit(2);
            }
        } else if (!std::strcmp(argv[i], "--worker")) {
            c.workerName = value("--worker");
        } else if (!std::strcmp(argv[i], "--lease-timeout")) {
            c.leaseTimeoutSec = static_cast<double>(core::requireCount(
                "--lease-timeout", value("--lease-timeout"), 1,
                86400));
        } else if (!std::strcmp(argv[i], "--chaos-write-kill")) {
            c.chaosWriteKillId = value("--chaos-write-kill");
        } else if (!std::strcmp(argv[i], "--out")) {
            c.outDir = value("--out");
        } else if (!std::strcmp(argv[i], "--trajectory")) {
            c.trajectoryPath = value("--trajectory");
        } else if (!std::strcmp(argv[i], "--scenario")) {
            c.scenarioId = value("--scenario");
        } else if (!std::strcmp(argv[i], "--chaos-die-writing")) {
            c.chaosDieWriting = true;
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
            std::exit(2);
        } else {
            c.positional.push_back(argv[i]);
        }
    }
    return true;
}

std::string
defaultDir(const exp::Campaign& campaign)
{
    return campaign.name + "-" + campaign.profile + ".campaign";
}

/** write(2) all of [p, p+n) to @p fd. @return false on error. */
bool
writeAll(int fd, const char* p, std::size_t n)
{
    while (n > 0) {
        ssize_t w = ::write(fd, p, n);
        if (w < 0 && errno == EINTR)
            continue;
        if (w < 0)
            return false;
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

// ----------------------------------------------------------------
// --run-one: the child side.
// ----------------------------------------------------------------

int
runOne(const Cli& cli)
{
    if (cli.positional.size() != 1 || cli.scenarioId.empty() ||
        cli.dir.empty())
        return usage("--run-one needs <campaign.json>, --scenario "
                     "and --dir");
    exp::Campaign campaign =
        exp::loadCampaign(cli.positional[0], cli.profile);
    const exp::Scenario* s = campaign.find(cli.scenarioId);
    if (!s) {
        std::fprintf(stderr, "unknown scenario '%s'\n",
                     cli.scenarioId.c_str());
        return 2;
    }

    exp::Store store(cli.dir);
    exp::RunRecord rec;
    rec.scenario = s->id;
    rec.configHash = s->configHash();
    rec.app = s->app;
    rec.machine = s->machine;
    rec.config = s->configKeyValues();
    rec.metricsPath = "metrics/" + s->id + ".json";

    if (cli.hostProf)
        prof::enable();
    auto t0 = std::chrono::steady_clock::now();

    try {
        core::ArtifactWriter art("", store.metricsPath(s->id));
        exp::LaunchResult res =
            exp::launch(s->launchSpec(), &art, s->id);
        art.write();
        rec.setReport(res.report);
        if (!res.note.empty())
            std::printf("%s\n", res.note.c_str());

        std::string verdicts;
        rec.shapeViolations = exp::checkShapes(*s, res.report, verdicts);
        if (!verdicts.empty())
            std::printf("%s", verdicts.c_str());
        if (rec.shapeViolations > 0) {
            rec.status = exp::RunStatus::Fail;
            rec.error = std::to_string(rec.shapeViolations) +
                        " shape band violation(s)";
        }
    } catch (const audit::AuditError& e) {
        rec.status = exp::RunStatus::Fail;
        rec.error = e.what();
        std::fprintf(stderr, "%s\n", e.what());
    } catch (const std::exception& e) {
        rec.status = exp::RunStatus::Fail;
        rec.error = e.what();
        std::fprintf(stderr, "%s\n", e.what());
    }

    rec.wallSec = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    prof::Rusage ru = prof::selfRusage();
    rec.userSec = ru.userSec;
    rec.sysSec = ru.sysSec;
    rec.maxRssKb = static_cast<double>(ru.maxRssKb);
    if (cli.hostProf) {
        prof::Report hp = prof::snapshot();
        rec.hostPhases.emplace_back(
            "untracked",
            hp.phase[static_cast<std::size_t>(
                         prof::Phase::Untracked)]
                .sec);
        for (std::size_t i = 1; i < prof::kNumPhases; ++i) {
            rec.hostPhases.emplace_back(
                prof::phaseName(static_cast<prof::Phase>(i)),
                hp.phase[i].sec);
        }
        std::ofstream hos(store.hostprofPath(s->id));
        if (hos)
            prof::writeManifest(hos, hp);
        // Coverage self-audit to stderr -> the scenario's log file.
        std::fprintf(stderr, "%s\n", prof::coverageLine(hp).c_str());
    }

    // Hand the record back over the runner's pipe (exp/runner.hh).
    // The parent only trusts the line after re-validating it.
    std::string line = rec.toJsonLine() + '\n';
    if (cli.chaosDieWriting) {
        // Chaos hook: die with half the line written, so the parent's
        // torn-record path is exercised for real.
        writeAll(exp::kRecordFd, line.data(), line.size() / 2);
        ::raise(SIGKILL);
    }
    if (!writeAll(exp::kRecordFd, line.data(), line.size())) {
        std::fprintf(stderr, "cannot write the record to fd %d: %s\n",
                     exp::kRecordFd, std::strerror(errno));
        return 3;
    }
    return rec.status == exp::RunStatus::Pass ? 0 : 1;
}

// ----------------------------------------------------------------
// run / resume: the parent side.
// ----------------------------------------------------------------

int
runCampaign(const Cli& cli, const char* argv0, bool resume)
{
    if (cli.positional.size() != 1)
        return usage("run/resume need exactly one campaign file");
    const std::string& path = cli.positional[0];
    exp::Campaign campaign = exp::loadCampaign(path, cli.profile);
    if (campaign.scenarios.empty()) {
        std::fprintf(stderr, "campaign '%s' has no scenarios\n",
                     campaign.name.c_str());
        return 2;
    }

    exp::Store store(cli.dir.empty() ? defaultDir(campaign) : cli.dir);

    // Cooperating-worker mode: several runner processes share the
    // store; each appends to its own shard file and claims scenarios
    // through leases. Worker mode always has resume semantics — the
    // other workers' records ARE previous results.
    bool cooperative = !cli.workers.empty() || !cli.workerName.empty();
    if (cooperative) {
        if (cli.workers.empty() || cli.workerName.empty()) {
            std::fprintf(stderr, "error: --workers and --worker go "
                                 "together\n");
            return 2;
        }
        if (std::find(cli.workers.begin(), cli.workers.end(),
                      cli.workerName) == cli.workers.end()) {
            std::fprintf(stderr,
                         "error: --worker '%s' is not in the "
                         "--workers list\n",
                         cli.workerName.c_str());
            return 2;
        }
        store.setWorker(cli.workerName);
    }

    if (!resume && !cooperative && store.exists()) {
        std::fprintf(stderr,
                     "error: %s already holds results; use 'resume' "
                     "to continue it or point --dir at a fresh "
                     "directory\n",
                     store.dir().c_str());
        return 2;
    }
    store.create();

    // Apply CLI overrides and split into skip/run lists.
    std::map<std::string, exp::RunRecord> latest =
        resume || cooperative ? store.loadLatest()
                              : std::map<std::string, exp::RunRecord>{};
    std::vector<exp::Scenario> todo;
    std::size_t skipped = 0;
    for (exp::Scenario s : campaign.scenarios) {
        if (cli.timeoutOverride > 0)
            s.timeoutSec = cli.timeoutOverride;
        if (cli.retriesOverride >= 0)
            s.retries = cli.retriesOverride;
        if ((resume || cooperative) && store.satisfiedBy(latest, s)) {
            ++skipped;
            continue;
        }
        todo.push_back(std::move(s));
    }

    std::size_t jobs = cli.jobs;
    if (jobs == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        jobs = std::min<std::size_t>(hw ? hw : 1, 8);
    }
    if (!todo.empty() && jobs > todo.size()) {
        // More job slots than runnable scenarios buys nothing; clamp
        // loudly so a mistyped --jobs is visible.
        std::fprintf(stderr,
                     "note: --jobs %zu exceeds the %zu runnable "
                     "scenario(s); clamping to %zu\n",
                     jobs, todo.size(), todo.size());
        jobs = todo.size();
    }
    std::printf("campaign %s [%s]: %zu scenario(s), %zu skipped, "
                "%zu job(s) -> %s\n",
                campaign.name.c_str(), campaign.profile.c_str(),
                campaign.scenarios.size(), skipped, jobs,
                store.dir().c_str());

    for (const std::string& id :
         {cli.chaosKillId, cli.chaosWriteKillId}) {
        if (!id.empty() && !campaign.find(id)) {
            std::fprintf(stderr, "error: chaos flag names unknown "
                                 "scenario '%s'\n",
                         id.c_str());
            return 2;
        }
    }

    // Content-addressed cache: every passing record already in this
    // store (any shard) or in a --cache store proves its config hash
    // and is adopted instead of re-executed.
    svc::CacheIndex cache;
    cache.addStore(store.dir());
    for (const std::string& d : cli.cacheDirs)
        cache.addStore(d);

    std::size_t done = 0;
    std::size_t executed = 0;
    std::size_t cachedCount = 0;
    int failures = 0;
    exp::RunnerStats stats;
    std::size_t total = todo.size();

    // Adopt a proven record for s, if the cache holds one.
    auto tryCache = [&](const exp::Scenario& s) -> bool {
        const svc::CacheHit* hit = cache.find(s.configHash());
        if (!hit)
            return false;
        exp::RunRecord rec =
            svc::CacheIndex::cacheRecord(*hit, s.id);
        store.append(rec);
        ++done;
        ++cachedCount;
        std::printf("[%zu/%zu] %-7s %-40s (cache <- %s:%llu)\n", done,
                    total, "cached", s.id.c_str(),
                    rec.cacheSource.c_str(),
                    static_cast<unsigned long long>(rec.cacheLine));
        std::fflush(stdout);
        return true;
    };

    auto onDone = [&](const exp::Scenario& s,
                      const exp::ChildOutcome& out) {
        exp::RunRecord rec;
        bool adopted = false;
        if (out.kind == exp::ChildOutcome::Kind::Exited &&
            (out.exitCode == 0 || out.exitCode == 1) &&
            !out.record.empty()) {
            // The child claims it handed a record back; validate it
            // before adopting it into the results file.
            try {
                rec = exp::RunRecord::fromJsonLine(out.record);
                adopted = rec.scenario == s.id &&
                          rec.configHash == s.configHash();
            } catch (const std::exception&) {
                adopted = false;
            }
        }
        if (!adopted) {
            rec = exp::RunRecord{};
            rec.scenario = s.id;
            rec.configHash = s.configHash();
            rec.app = s.app;
            rec.machine = s.machine;
            switch (out.kind) {
              case exp::ChildOutcome::Kind::Timeout:
                rec.status = exp::RunStatus::Timeout;
                break;
              case exp::ChildOutcome::Kind::Signal:
              case exp::ChildOutcome::Kind::SpawnError:
                rec.status = exp::RunStatus::Crash;
                break;
              case exp::ChildOutcome::Kind::Exited:
                rec.status = exp::RunStatus::Fail;
                break;
            }
            rec.error = !out.detail.empty()
                            ? out.detail
                            : "child exited with status " +
                                  std::to_string(out.exitCode) +
                                  " without a valid record";
        }
        rec.attempts = out.attempts;
        store.append(rec);
        ++done;
        ++executed;
        if (rec.status != exp::RunStatus::Pass)
            ++failures;
        std::printf("[%zu/%zu] %-7s %-40s (%d attempt%s%s%s)\n", done,
                    total, exp::runStatusName(rec.status),
                    s.id.c_str(), rec.attempts,
                    rec.attempts == 1 ? "" : "s",
                    rec.error.empty() ? "" : ": ",
                    rec.error.c_str());
        std::fflush(stdout);
    };

    std::string exe = selfExe(argv0);
    auto command = [&](const exp::Scenario& s, int attempt) {
        std::vector<std::string> cmd{
            exe,          "--run-one",  path,
            "--profile",  cli.profile,  "--scenario",
            s.id,         "--dir",      store.dir(),
        };
        if (attempt == 1 && s.id == cli.chaosWriteKillId)
            cmd.push_back("--chaos-die-writing");
        if (cli.hostProf)
            cmd.push_back("--host-prof");
        return cmd;
    };
    auto logPath = [&](const exp::Scenario& s) {
        return store.logPath(s.id);
    };

    exp::RunnerOptions ropts;
    ropts.jobs = jobs;
    ropts.chaosKillId = cli.chaosKillId;

    if (!cooperative) {
        std::vector<exp::Scenario> batch;
        for (const exp::Scenario& s : todo) {
            if (!tryCache(s))
                batch.push_back(s);
        }
        exp::Runner runner(ropts, command);
        stats = runner.run(batch, onDone, logPath);
    } else {
        // Cooperative loop: claim own-shard scenarios first; foreign
        // scenarios only once their lease is stale (their worker is
        // presumed dead) or absent after a startup grace period of
        // one lease timeout (their worker never arrived).
        std::vector<std::string> names = cli.workers;
        std::sort(names.begin(), names.end());
        names.erase(std::unique(names.begin(), names.end()),
                    names.end());
        std::size_t self = static_cast<std::size_t>(
            std::find(names.begin(), names.end(), cli.workerName) -
            names.begin());
        auto shardOf = [&](const exp::Scenario& s) {
            return static_cast<std::size_t>(
                       std::stoull(s.configHash(), nullptr, 16)) %
                   names.size();
        };
        std::stable_partition(todo.begin(), todo.end(),
                              [&](const exp::Scenario& s) {
                                  return shardOf(s) == self;
                              });

        svc::LeaseDir leases(store.leasesDir(), cli.workerName,
                             cli.leaseTimeoutSec);
        double lastBeat = svc::LeaseDir::now();
        ropts.tick = [&]() {
            double now = svc::LeaseDir::now();
            if (now - lastBeat > cli.leaseTimeoutSec / 4) {
                leases.heartbeat();
                lastBeat = now;
            }
        };

        double start = svc::LeaseDir::now();
        for (;;) {
            std::map<std::string, exp::RunRecord> fold =
                store.loadLatest();
            std::vector<exp::Scenario> batch;
            bool unresolved = false;
            for (const exp::Scenario& s : todo) {
                if (fold.count(s.id))
                    continue; // some worker recorded a terminal state
                unresolved = true;
                bool mine = shardOf(s) == self;
                if (!mine) {
                    svc::LeaseDir::Info info = leases.read(s.id);
                    bool grace = svc::LeaseDir::now() - start <
                                 cli.leaseTimeoutSec;
                    if (!info.exists && grace)
                        continue; // its worker may still arrive
                    if (info.exists && !leases.stale(info) &&
                        info.owner != cli.workerName)
                        continue; // its worker is alive
                }
                if (!leases.acquire(s.id))
                    continue;
                if (tryCache(s)) {
                    leases.release(s.id);
                    continue;
                }
                batch.push_back(s);
            }
            if (batch.empty()) {
                if (!unresolved)
                    break; // every scenario has a terminal record
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(200));
                continue;
            }
            exp::Runner runner(ropts, command);
            exp::RunnerStats bs =
                runner.run(batch,
                           [&](const exp::Scenario& s,
                               const exp::ChildOutcome& out) {
                               onDone(s, out);
                               leases.release(s.id);
                           },
                           logPath);
            stats.spawns += bs.spawns;
            stats.tornRecords += bs.tornRecords;
        }
    }

    std::printf("campaign %s: %zu executed, %zu cached, %zu skipped, "
                "%d failure(s); %zu child exec(s), %zu torn "
                "record(s)\n",
                campaign.name.c_str(), executed, cachedCount, skipped,
                failures, stats.spawns, stats.tornRecords);
    return failures == 0 ? 0 : 1;
}

int
listCampaign(const Cli& cli)
{
    if (cli.positional.size() != 1)
        return usage("list needs exactly one campaign file");
    exp::Campaign campaign =
        exp::loadCampaign(cli.positional[0], cli.profile);
    std::printf("campaign %s [%s]: %zu scenario(s)\n",
                campaign.name.c_str(), campaign.profile.c_str(),
                campaign.scenarios.size());
    for (const exp::Scenario& s : campaign.scenarios) {
        std::printf("  %-40s %s/%s procs=%zu cache_kb=%zu gap=%llu "
                    "size=%zu iters=%zu hash=%s\n",
                    s.id.c_str(), s.app.c_str(), s.machine.c_str(),
                    s.procs, s.cacheKb,
                    static_cast<unsigned long long>(s.netGap), s.size,
                    s.iters, s.configHash().c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli;
    if (!parseCli(argc, argv, cli))
        return usage();

    try {
        if (cli.verb == "--run-one")
            return runOne(cli);
        if (cli.verb == "run")
            return runCampaign(cli, argv[0], /*resume=*/false);
        if (cli.verb == "resume")
            return runCampaign(cli, argv[0], /*resume=*/true);
        if (cli.verb == "list")
            return listCampaign(cli);
        if (cli.verb == "report") {
            if (cli.positional.size() != 1)
                return usage("report needs exactly one directory");
            return exp::reportCampaign(cli.positional[0], std::cout,
                                       cli.format);
        }
        if (cli.verb == "analyze") {
            if (cli.positional.size() != 1)
                return usage("analyze needs exactly one directory");
            return exp::analyzeCampaign(cli.positional[0],
                                        cli.analyze, std::cout);
        }
        if (cli.verb == "serve") {
            if (cli.positional.empty())
                return usage(
                    "serve needs at least one campaign directory");
            svc::DashboardOptions d;
            d.campaignDirs = cli.positional;
            d.outDir = cli.outDir;
            d.trajectoryPath = cli.trajectoryPath;
            return svc::buildDashboard(d, std::cout);
        }
        if (cli.verb == "diff") {
            if (cli.positional.size() != 2)
                return usage("diff needs exactly two directories");
            exp::DiffOptions d;
            d.tolerance = cli.tolerance;
            return exp::diffCampaigns(cli.positional[0],
                                      cli.positional[1], d,
                                      std::cout) == 0
                       ? 0
                       : 1;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    return usage(("unknown verb '" + cli.verb + "'").c_str());
}

/**
 * @file
 * Tests for the campaign service (src/svc/): the scenario lease
 * protocol, the content-addressed cache index, the multi-file store
 * fold, and — through the real wwtcmp_campaign binary — warm-cache
 * runs, the resume-prefers-pass regression, children killed
 * mid-record-write, a runner started with stdin closed, two
 * cooperating workers on one store, and the static dashboard.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "exp/store.hh"
#include "svc/cache_index.hh"
#include "svc/lease.hh"

using namespace wwt;

namespace
{

/** A unique scratch directory, removed on destruction. */
struct TempDir {
    std::string path;

    TempDir()
    {
        std::string tmpl = ::testing::TempDir() + "wwtsvcXXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        path = ::mkdtemp(buf.data());
    }
    ~TempDir()
    {
        std::system(("rm -rf '" + path + "'").c_str());
    }
};

std::string
writeFile(const std::string& path, const std::string& text)
{
    std::ofstream os(path);
    os << text;
    return path;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

int
runBinary(const std::string& args)
{
    std::string cmd = std::string(WWTCMP_CAMPAIGN_BIN) + " " + args +
                      " > /dev/null 2>&1";
    int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/** Run the binary capturing combined stdout+stderr into @p out. */
int
runBinaryCapture(const std::string& args, std::string& out)
{
    std::string cmd =
        std::string(WWTCMP_CAMPAIGN_BIN) + " " + args + " 2>&1";
    FILE* p = ::popen(cmd.c_str(), "r");
    if (!p)
        return -1;
    char buf[4096];
    out.clear();
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        out.append(buf, n);
    int rc = ::pclose(p);
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/** A pass record with enough fields for cache adoption to matter. */
exp::RunRecord
passRecord(const std::string& id, const std::string& hash)
{
    exp::RunRecord r;
    r.scenario = id;
    r.configHash = hash;
    r.status = exp::RunStatus::Pass;
    r.totalCyclesPerProc = 1000;
    r.cycles = {{"computation", 800.0}, {"barrier", 200.0}};
    r.wallSec = 1.5;
    r.userSec = 1.2;
    r.maxRssKb = 4096;
    return r;
}

} // namespace

// ------------------------------------------------------------------
// Leases.
// ------------------------------------------------------------------

TEST(LeaseDir, FreshLeaseExcludesOtherWorkers)
{
    TempDir t;
    svc::LeaseDir a(t.path, "alpha", 30);
    svc::LeaseDir b(t.path, "beta", 30);

    EXPECT_TRUE(a.acquire("s1"));
    EXPECT_TRUE(a.acquire("s1")); // re-assert our own claim
    EXPECT_FALSE(b.acquire("s1")); // live foreign lease
    auto info = b.read("s1");
    EXPECT_TRUE(info.exists);
    EXPECT_EQ(info.owner, "alpha");
    EXPECT_FALSE(b.stale(info));

    a.release("s1");
    EXPECT_FALSE(a.read("s1").exists);
    EXPECT_TRUE(b.acquire("s1")); // free again
}

TEST(LeaseDir, StaleLeaseIsStolen)
{
    TempDir t;
    svc::LeaseDir b(t.path, "beta", 5);
    // A ghost worker's lease with a heartbeat far in the past.
    writeFile(t.path + "/s1.lease", "ghost 1000.0\n");
    auto info = b.read("s1");
    EXPECT_TRUE(info.exists);
    EXPECT_EQ(info.owner, "ghost");
    EXPECT_TRUE(b.stale(info));
    EXPECT_TRUE(b.acquire("s1")); // steal
    info = b.read("s1");
    EXPECT_EQ(info.owner, "beta");

    // A *fresh* ghost lease is respected: its worker may be alive.
    char buf[64];
    std::snprintf(buf, sizeof buf, "ghost %.3f\n",
                  svc::LeaseDir::now());
    writeFile(t.path + "/s2.lease", buf);
    EXPECT_FALSE(b.acquire("s2"));
}

TEST(LeaseDir, HeartbeatRefreshesHeldLeases)
{
    TempDir t;
    svc::LeaseDir a(t.path, "alpha", 30);
    ASSERT_TRUE(a.acquire("s1"));
    double before = a.read("s1").heartbeat;
    a.heartbeat();
    EXPECT_GE(a.read("s1").heartbeat, before);
    EXPECT_EQ(a.held().count("s1"), 1u);
    a.release("s1");
    EXPECT_EQ(a.held().count("s1"), 0u);
}

// ------------------------------------------------------------------
// Multi-file store fold.
// ------------------------------------------------------------------

TEST(StoreFold, PassingShardRecordBeatsClassicTimeout)
{
    TempDir t;
    exp::Store classic(t.path);
    classic.create();
    exp::RunRecord bad = passRecord("a", "h1");
    bad.status = exp::RunStatus::Timeout;
    classic.append(bad);

    exp::Store shard(t.path);
    shard.setWorker("w1");
    shard.append(passRecord("a", "h1"));

    auto files = exp::Store(t.path).resultsFiles();
    ASSERT_EQ(files.size(), 2u);
    EXPECT_NE(files[0].find("results.jsonl"), std::string::npos);
    EXPECT_NE(files[1].find("results.w1.jsonl"), std::string::npos);

    auto latest = exp::Store(t.path).loadLatest();
    ASSERT_EQ(latest.size(), 1u);
    EXPECT_EQ(latest.at("a").status, exp::RunStatus::Pass);
}

TEST(StoreFold, TieKeepsEarliestFileInFoldOrder)
{
    TempDir t;
    exp::Store s1(t.path), s2(t.path);
    s1.setWorker("w1");
    s2.setWorker("w2");
    s1.create();
    exp::RunRecord r1 = passRecord("a", "h1");
    r1.totalCyclesPerProc = 111;
    s1.append(r1);
    exp::RunRecord r2 = passRecord("a", "h1");
    r2.totalCyclesPerProc = 222; // benign duplicate execution
    s2.append(r2);

    auto latest = exp::Store(t.path).loadLatest();
    EXPECT_EQ(latest.at("a").totalCyclesPerProc, 111);
}

TEST(StoreFold, WorkerNamesAreValidated)
{
    exp::Store s("/tmp/x");
    EXPECT_THROW(s.setWorker(""), std::runtime_error);
    EXPECT_THROW(s.setWorker("a/b"), std::runtime_error);
    EXPECT_THROW(s.setWorker("a b"), std::runtime_error);
    s.setWorker("host-1_ok");
    EXPECT_EQ(s.resultsPath(), "/tmp/x/results.host-1_ok.jsonl");
}

TEST(StoreFold, CachedProvenanceRoundTripsThroughJson)
{
    exp::RunRecord r = passRecord("a", "h1");
    // Executed records carry no cache keys at all.
    EXPECT_EQ(r.toJsonLine().find("\"cached\""), std::string::npos);

    r.cached = true;
    r.cacheSource = "other/results.jsonl";
    r.cacheLine = 7;
    r.cacheWallSec = 1.5;
    exp::RunRecord back = exp::RunRecord::fromJsonLine(r.toJsonLine());
    EXPECT_TRUE(back.cached);
    EXPECT_EQ(back.cacheSource, "other/results.jsonl");
    EXPECT_EQ(back.cacheLine, 7u);
    EXPECT_DOUBLE_EQ(back.cacheWallSec, 1.5);
}

// ------------------------------------------------------------------
// Cache index.
// ------------------------------------------------------------------

TEST(CacheIndex, IndexesOnlyPassingRecords)
{
    TempDir t;
    exp::Store s(t.path);
    s.create();
    s.append(passRecord("a", "h1"));
    exp::RunRecord bad = passRecord("b", "h2");
    bad.status = exp::RunStatus::Timeout;
    s.append(bad);

    svc::CacheIndex idx;
    idx.addStore(t.path);
    EXPECT_EQ(idx.size(), 1u);
    ASSERT_NE(idx.find("h1"), nullptr);
    EXPECT_EQ(idx.find("h2"), nullptr);
    EXPECT_EQ(idx.find("h1")->line, 1u);
}

TEST(CacheIndex, OriginalExecutionBeatsCacheHitCopy)
{
    TempDir t;
    exp::Store s(t.path);
    s.create();
    // A cache-hit copy lands first in fold order...
    exp::RunRecord copy = passRecord("a", "h1");
    copy.cached = true;
    copy.cacheSource = "elsewhere/results.jsonl";
    copy.cacheLine = 3;
    copy.cacheWallSec = 9.0;
    s.append(copy);
    // ...but the executed original supersedes it in the index.
    s.append(passRecord("b", "h1"));

    svc::CacheIndex idx;
    idx.addStore(t.path);
    ASSERT_NE(idx.find("h1"), nullptr);
    EXPECT_FALSE(idx.find("h1")->record.cached);
    EXPECT_EQ(idx.find("h1")->line, 2u);
}

TEST(CacheIndex, CacheRecordZerosHostTimingsAndChainsWallTime)
{
    TempDir t;
    exp::Store s(t.path);
    s.create();
    s.append(passRecord("orig", "h1"));
    svc::CacheIndex idx;
    idx.addStore(t.path);
    const svc::CacheHit* hit = idx.find("h1");
    ASSERT_NE(hit, nullptr);

    exp::RunRecord adopted = svc::CacheIndex::cacheRecord(*hit, "mine");
    EXPECT_EQ(adopted.scenario, "mine");
    EXPECT_EQ(adopted.status, exp::RunStatus::Pass);
    EXPECT_EQ(adopted.attempts, 0);
    EXPECT_TRUE(adopted.cached);
    EXPECT_EQ(adopted.cacheSource, hit->sourceFile);
    EXPECT_EQ(adopted.cacheLine, 1u);
    // Simulated numbers are verbatim; host timings are zeroed with
    // the original wall time preserved in the provenance.
    EXPECT_EQ(adopted.totalCyclesPerProc, 1000);
    EXPECT_EQ(adopted.wallSec, 0);
    EXPECT_EQ(adopted.userSec, 0);
    EXPECT_EQ(adopted.maxRssKb, 0);
    EXPECT_DOUBLE_EQ(adopted.cacheWallSec, 1.5);

    // Adopting a cache hit *of a cache hit* keeps the measured wall
    // time of the real run, not the copy's zero.
    svc::CacheHit secondHop{adopted, "b/results.jsonl", 1};
    exp::RunRecord again =
        svc::CacheIndex::cacheRecord(secondHop, "third");
    EXPECT_DOUBLE_EQ(again.cacheWallSec, 1.5);
}

TEST(CacheIndex, MissingStoreIsEmptyNotAnError)
{
    svc::CacheIndex idx;
    idx.addStore("/nonexistent/store/dir");
    EXPECT_EQ(idx.size(), 0u);
}

// ------------------------------------------------------------------
// End-to-end through the real binary.
// ------------------------------------------------------------------

namespace
{

std::string
e2eCampaign()
{
    return R"({"schema": "wwtcmp.campaign/1",
               "name": "svc-e2e",
               "defaults": {"procs": 2, "size": 8, "iters": 2,
                            "timeout_sec": 60, "retries": 1},
               "scenarios": [
                 {"id": "ok-a", "app": "em3d"},
                 {"id": "ok-b", "app": "em3d", "machine": "sm"},
                 {"id": "ok-c", "app": "gauss", "size": 16,
                  "iters": 0}
               ]})";
}

} // namespace

TEST(SvcE2E, WarmCacheRunExecutesNothing)
{
    TempDir t;
    std::string camp = writeFile(t.path + "/c.json", e2eCampaign());
    ASSERT_EQ(runBinary("run " + camp + " --dir " + t.path +
                        "/cold --jobs 3"),
              0);

    std::string out;
    EXPECT_EQ(runBinaryCapture("run " + camp + " --dir " + t.path +
                                   "/warm --cache " + t.path +
                                   "/cold --jobs 3",
                               out),
              0);
    EXPECT_NE(out.find("0 executed, 3 cached"), std::string::npos)
        << out;
    EXPECT_NE(out.find("0 child exec(s)"), std::string::npos) << out;

    auto latest = exp::Store(t.path + "/warm").loadLatest();
    ASSERT_EQ(latest.size(), 3u);
    for (const auto& [id, rec] : latest) {
        EXPECT_TRUE(rec.cached) << id;
        EXPECT_EQ(rec.attempts, 0) << id;
        EXPECT_EQ(rec.wallSec, 0) << id;
        EXPECT_NE(rec.cacheSource.find("cold/results.jsonl"),
                  std::string::npos)
            << id;
        EXPECT_GT(rec.cacheWallSec, 0) << id;
    }
    // Identical simulated numbers: the adopted store diffs clean.
    EXPECT_EQ(runBinary("diff " + t.path + "/cold " + t.path + "/warm"),
              0);
}

TEST(SvcE2E, ResumePrefersSameHashPassOverTimeoutRecord)
{
    TempDir t;
    std::string camp = writeFile(t.path + "/c.json", e2eCampaign());
    ASSERT_EQ(runBinary("run " + camp + " --dir " + t.path +
                        "/cold --jobs 3"),
              0);

    // Rewrite one record as a timeout — the shape of the store after
    // a child was killed by the wall-clock budget. The cold store
    // still holds passes for the other hashes; the *cache* store
    // holds a pass for this very hash.
    exp::Store store(t.path + "/cold");
    auto latest = store.loadLatest();
    exp::RunRecord timeoutRec = latest.at("ok-a");
    timeoutRec.status = exp::RunStatus::Timeout;
    timeoutRec.error = "timeout after 60s";
    store.append(timeoutRec);
    latest = store.loadLatest();
    ASSERT_EQ(latest.at("ok-a").status, exp::RunStatus::Timeout);

    // The regression this guards: resume used to re-execute ok-a even
    // though a passing record for the same config hash existed. With
    // the cache index folded over an auxiliary store, the pass is
    // adopted instead of re-run.
    ASSERT_EQ(runBinary("run " + camp + " --dir " + t.path +
                        "/aux --jobs 3"),
              0);
    std::string out;
    EXPECT_EQ(runBinaryCapture("resume " + camp + " --dir " + t.path +
                                   "/cold --cache " + t.path +
                                   "/aux --jobs 3",
                               out),
              0);
    EXPECT_NE(out.find("0 executed, 1 cached, 2 skipped"),
              std::string::npos)
        << out;
    latest = store.loadLatest();
    EXPECT_EQ(latest.at("ok-a").status, exp::RunStatus::Pass);
    EXPECT_TRUE(latest.at("ok-a").cached);
}

TEST(SvcE2E, SelfStoreCacheSatisfiesRepeatHashOnResume)
{
    // Repeat instances share one config hash; a timeout for one must
    // not force a re-run when a sibling already proved the hash.
    TempDir t;
    std::string camp = writeFile(
        t.path + "/c.json",
        R"({"schema": "wwtcmp.campaign/1", "name": "rep",
            "defaults": {"procs": 2, "size": 8, "iters": 2,
                         "timeout_sec": 60, "retries": 0},
            "scenarios": [
              {"id": "twin", "app": "em3d", "repeat": 2}
            ]})");
    ASSERT_EQ(runBinary("run " + camp + " --dir " + t.path +
                        "/run --jobs 2"),
              0);
    exp::Store store(t.path + "/run");
    auto latest = store.loadLatest();
    ASSERT_EQ(latest.size(), 2u);

    // One twin timed out; its sibling's pass carries the same hash.
    auto it = latest.begin();
    exp::RunRecord timeoutRec = it->second;
    timeoutRec.status = exp::RunStatus::Timeout;
    timeoutRec.error = "timeout after 60s";
    store.append(timeoutRec);

    std::string out;
    EXPECT_EQ(runBinaryCapture("resume " + camp + " --dir " + t.path +
                                   "/run --jobs 2",
                               out),
              0);
    EXPECT_NE(out.find("0 executed, 1 cached"), std::string::npos)
        << out;
    latest = store.loadLatest();
    for (const auto& [id, rec] : latest)
        EXPECT_EQ(rec.status, exp::RunStatus::Pass) << id;
}

TEST(SvcE2E, JobsClampAndStrictZeroDiagnostic)
{
    TempDir t;
    std::string camp = writeFile(t.path + "/c.json", e2eCampaign());
    EXPECT_EQ(runBinary("run " + camp + " --dir " + t.path +
                        "/z --jobs 0"),
              2);

    std::string out;
    EXPECT_EQ(runBinaryCapture("run " + camp + " --dir " + t.path +
                                   "/r --jobs 64",
                               out),
              0);
    EXPECT_NE(out.find("clamping to 3"), std::string::npos) << out;
}

TEST(SvcE2E, ChaosWriteKillCountsTornRecordAndRetries)
{
    TempDir t;
    std::string camp = writeFile(t.path + "/c.json", e2eCampaign());
    std::string out;
    EXPECT_EQ(runBinaryCapture("run " + camp + " --dir " + t.path +
                                   "/r --jobs 2 --chaos-write-kill "
                                   "ok-a",
                               out),
              0);
    EXPECT_NE(out.find("1 torn record(s)"), std::string::npos) << out;
    auto latest = exp::Store(t.path + "/r").loadLatest();
    ASSERT_EQ(latest.size(), 3u);
    EXPECT_EQ(latest.at("ok-a").status, exp::RunStatus::Pass);
    EXPECT_EQ(latest.at("ok-a").attempts, 2);
}

TEST(SvcE2E, ClosedStdinStillHandsEveryRecordBack)
{
    // With fds 0 and 3 closed, the first record pipe is (0, 3): its
    // write end already sits on the fd the child expects, and only
    // clearing FD_CLOEXEC keeps it open across exec.
    TempDir t;
    std::string camp = writeFile(t.path + "/c.json", e2eCampaign());
    std::string out;
    EXPECT_EQ(runBinaryCapture("run " + camp + " --dir " + t.path +
                                   "/r --jobs 2 <&- 3>&-",
                               out),
              0);
    EXPECT_NE(out.find("3 executed"), std::string::npos) << out;
    EXPECT_NE(out.find("0 torn record(s)"), std::string::npos) << out;
    auto latest = exp::Store(t.path + "/r").loadLatest();
    ASSERT_EQ(latest.size(), 3u);
    for (const auto& [id, rec] : latest) {
        EXPECT_EQ(rec.status, exp::RunStatus::Pass)
            << id << ": " << rec.error;
        EXPECT_EQ(rec.attempts, 1) << id;
    }
}

TEST(SvcE2E, TwoCooperatingWorkersShareOneStore)
{
    TempDir t;
    std::string camp = writeFile(t.path + "/c.json", e2eCampaign());
    std::string dir = t.path + "/shared";

    // Two runner processes, one store, disjoint shards. Launch both
    // and wait; either may finish first.
    std::string base = std::string(WWTCMP_CAMPAIGN_BIN) + " run " +
                       camp + " --dir " + dir +
                       " --jobs 2 --workers alpha,beta";
    std::string cmd = "( " + base + " --worker alpha > " + t.path +
                      "/a.log 2>&1 & " + base + " --worker beta > " +
                      t.path + "/b.log 2>&1 ; wait )";
    int rc = std::system(cmd.c_str());
    EXPECT_EQ(WIFEXITED(rc) ? WEXITSTATUS(rc) : -1, 0);

    exp::Store store(dir);
    auto latest = store.loadLatest();
    ASSERT_EQ(latest.size(), 3u);
    for (const auto& [id, rec] : latest)
        EXPECT_EQ(rec.status, exp::RunStatus::Pass) << id;

    // Each worker appended only to its own shard file, and every
    // scenario ran exactly once across the two.
    std::string logs =
        readFile(t.path + "/a.log") + readFile(t.path + "/b.log");
    std::size_t execs = 0;
    for (std::size_t pos = 0;
         (pos = logs.find("] pass", pos)) != std::string::npos; ++pos)
        ++execs;
    EXPECT_EQ(execs, 3u) << logs;
    // No leases left behind.
    EXPECT_NE(std::system(
                  ("ls " + dir + "/leases/*.lease > /dev/null 2>&1")
                      .c_str()),
              0);
}

TEST(SvcE2E, DeadWorkersShardIsRecoveredByTheSurvivor)
{
    TempDir t;
    std::string camp = writeFile(t.path + "/c.json", e2eCampaign());
    std::string dir = t.path + "/shared";

    // Worker "ghost" never starts. With a short lease timeout the
    // survivor waits out the grace period, then claims the ghost's
    // shard and finishes the campaign alone.
    std::string out;
    EXPECT_EQ(runBinaryCapture("run " + camp + " --dir " + dir +
                                   " --jobs 2 --workers ghost,solo "
                                   "--worker solo --lease-timeout 1",
                               out),
              0);
    EXPECT_NE(out.find("3 executed"), std::string::npos) << out;
    auto latest = exp::Store(dir).loadLatest();
    ASSERT_EQ(latest.size(), 3u);
    for (const auto& [id, rec] : latest)
        EXPECT_EQ(rec.status, exp::RunStatus::Pass) << id;
}

TEST(SvcE2E, ServeRendersDashboardTree)
{
    TempDir t;
    std::string camp = writeFile(t.path + "/c.json", e2eCampaign());
    ASSERT_EQ(runBinary("run " + camp + " --dir " + t.path +
                        "/r --jobs 3"),
              0);
    EXPECT_EQ(runBinary("serve " + t.path + "/r --out " + t.path +
                        "/dash"),
              0);
    std::string root = readFile(t.path + "/dash/index.html");
    EXPECT_NE(root.find("campaigns"), std::string::npos);
    std::string page = readFile(t.path + "/dash/r/index.html");
    EXPECT_NE(page.find("ok-a"), std::string::npos);
    EXPECT_NE(page.find("ok-b"), std::string::npos);
    EXPECT_NE(page.find("ok-c"), std::string::npos);
    std::string rep = readFile(t.path + "/dash/r/report.json");
    EXPECT_NE(rep.find("\"wwtcmp.campaign-report/1\""),
              std::string::npos);
    EXPECT_NE(rep.find("\"executed\": 3"), std::string::npos);
    std::string ana = readFile(t.path + "/dash/r/analysis.json");
    EXPECT_NE(ana.find("\"wwtcmp.analysis/1\""), std::string::npos);
}

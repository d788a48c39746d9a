/**
 * @file
 * Tests for the campaign subsystem (src/exp/): scenario parsing and
 * sweep expansion, profile layering, config hashing, the JSONL result
 * store, shape checking, report/diff, the runner driven directly with
 * /bin/sh children, and — through the real wwtcmp_campaign binary —
 * crash isolation, retry, and resume.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "exp/registry.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "exp/store.hh"

using namespace wwt;

namespace
{

/** A unique scratch directory, removed on destruction. */
struct TempDir {
    std::string path;

    TempDir()
    {
        std::string tmpl = ::testing::TempDir() + "wwtexpXXXXXX";
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

/** A minimal valid campaign document around @p scenarios. */
std::string
campaignDoc(const std::string& scenarios,
            const std::string& defaults = R"({"procs": 2})")
{
    return std::string(R"({"schema": "wwtcmp.campaign/1",)") +
           R"("name": "t", "defaults": )" + defaults +
           R"(, "scenarios": [)" + scenarios + "]}";
}

int
runBinary(const std::string& args)
{
    std::string cmd = std::string(WWTCMP_CAMPAIGN_BIN) + " " + args +
                      " > /dev/null 2>&1";
    int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

std::size_t
lineCount(const std::string& path)
{
    std::ifstream in(path);
    std::size_t n = 0;
    std::string line;
    while (std::getline(in, line))
        ++n;
    return n;
}

} // namespace

// ------------------------------------------------------------------
// Scenario model.
// ------------------------------------------------------------------

TEST(CampaignParse, SweepExpandsCartesianProductInOrder)
{
    TempDir t;
    std::string path = writeFile(
        t.path + "/c.json",
        campaignDoc(R"({"id": "g", "app": "gauss",
                        "machine": ["mp", "sm"],
                        "cache_kb": [256, 1024], "size": 64})"));
    exp::Campaign c = exp::loadCampaign(path, "paper");
    ASSERT_EQ(c.scenarios.size(), 4u);
    // machine varies slower than cache_kb (kSweepable order).
    EXPECT_EQ(c.scenarios[0].id, "g-mp.cache_kb=256");
    EXPECT_EQ(c.scenarios[1].id, "g-mp.cache_kb=1024");
    EXPECT_EQ(c.scenarios[2].id, "g-sm.cache_kb=256");
    EXPECT_EQ(c.scenarios[3].id, "g-sm.cache_kb=1024");
    EXPECT_EQ(c.scenarios[1].cacheKb, 1024u);
    EXPECT_EQ(c.scenarios[2].machine, "sm");
    EXPECT_EQ(c.scenarios[0].procs, 2u); // from defaults
    EXPECT_EQ(c.scenarios[0].size, 64u);
}

TEST(CampaignParse, ProfileLayeringLastWins)
{
    TempDir t;
    std::string path = writeFile(
        t.path + "/c.json",
        std::string(R"({"schema": "wwtcmp.campaign/1", "name": "t",
          "defaults": {"procs": 32, "size": 1000},
          "profiles": {"smoke": {"procs": 4}},
          "scenarios": [
            {"id": "a", "app": "em3d",
             "profiles": {"smoke": {"size": 16}}}
          ]})"));
    exp::Campaign paper = exp::loadCampaign(path, "paper");
    ASSERT_EQ(paper.scenarios.size(), 1u);
    EXPECT_EQ(paper.scenarios[0].procs, 32u);
    EXPECT_EQ(paper.scenarios[0].size, 1000u);

    exp::Campaign smoke = exp::loadCampaign(path, "smoke");
    ASSERT_EQ(smoke.scenarios.size(), 1u);
    EXPECT_EQ(smoke.scenarios[0].procs, 4u);  // campaign profile
    EXPECT_EQ(smoke.scenarios[0].size, 16u);  // scenario profile
}

TEST(CampaignParse, RepeatExpandsWithStableSuffixes)
{
    TempDir t;
    std::string path = writeFile(
        t.path + "/c.json",
        campaignDoc(R"({"id": "r", "app": "em3d", "repeat": 3})"));
    exp::Campaign c = exp::loadCampaign(path, "paper");
    ASSERT_EQ(c.scenarios.size(), 3u);
    EXPECT_EQ(c.scenarios[0].id, "r.r0");
    EXPECT_EQ(c.scenarios[2].id, "r.r2");
    // Repeats are identical configurations by construction.
    EXPECT_EQ(c.scenarios[0].configHash(), c.scenarios[2].configHash());
}

TEST(CampaignParse, StrictErrors)
{
    TempDir t;
    auto load = [&](const std::string& doc) {
        std::string path = writeFile(t.path + "/c.json", doc);
        exp::loadCampaign(path, "paper");
    };
    // Unknown scenario key.
    EXPECT_THROW(load(campaignDoc(R"({"app": "em3d", "sise": 4})")),
                 std::runtime_error);
    // Unknown app / machine / tree / inject.
    EXPECT_THROW(load(campaignDoc(R"({"app": "emd3"})")),
                 std::runtime_error);
    EXPECT_THROW(load(campaignDoc(R"({"app": "em3d",
                                      "machine": "numa"})")),
                 std::runtime_error);
    EXPECT_THROW(load(campaignDoc(R"({"app": "em3d",
                                      "tree": "ternary"})")),
                 std::runtime_error);
    EXPECT_THROW(load(campaignDoc(R"({"app": "em3d",
                                      "inject": "sometimes"})")),
                 std::runtime_error);
    // Duplicate ids, empty sweeps, bad schema.
    EXPECT_THROW(load(campaignDoc(R"({"id": "x", "app": "em3d"},
                                     {"id": "x", "app": "gauss"})")),
                 std::runtime_error);
    EXPECT_THROW(load(campaignDoc(R"({"app": "em3d",
                                      "cache_kb": []})")),
                 std::runtime_error);
    EXPECT_THROW(load(R"({"schema": "wwtcmp.campaign/2",
                          "name": "t", "scenarios": []})"),
                 std::runtime_error);
    // A timeout past one day (the --timeout bound) would overflow the
    // runner's clock arithmetic; one day exactly is accepted.
    EXPECT_THROW(load(campaignDoc(R"({"app": "em3d",
                                      "timeout_sec": 1e10})")),
                 std::runtime_error);
    EXPECT_THROW(load(campaignDoc(R"({"app": "em3d",
                                      "timeout_sec": 1e300})")),
                 std::runtime_error);
    EXPECT_NO_THROW(load(campaignDoc(R"({"app": "em3d",
                                         "timeout_sec": 86400})")));
    // A profile nobody mentions is a typo, not an empty selection.
    std::string path =
        writeFile(t.path + "/c.json",
                  campaignDoc(R"({"id": "a", "app": "em3d"})"));
    EXPECT_THROW(exp::loadCampaign(path, "smoek"), std::runtime_error);
}

TEST(CampaignParse, ConfigHashTracksSimulationInputsOnly)
{
    TempDir t;
    std::string path = writeFile(
        t.path + "/c.json",
        campaignDoc(R"({"id": "a", "app": "em3d", "size": 16,
                        "timeout_sec": 60, "retries": 1})"));
    exp::Campaign c1 = exp::loadCampaign(path, "paper");
    std::string h1 = c1.scenarios[0].configHash();
    EXPECT_EQ(h1.size(), 16u);

    // Runner policy does not affect the hash...
    writeFile(t.path + "/c.json",
              campaignDoc(R"({"id": "a", "app": "em3d", "size": 16,
                              "timeout_sec": 5, "retries": 0})"));
    EXPECT_EQ(exp::loadCampaign(path, "paper").scenarios[0].configHash(),
              h1);
    // ...but any simulation input does.
    writeFile(t.path + "/c.json",
              campaignDoc(R"({"id": "a", "app": "em3d", "size": 17})"));
    EXPECT_NE(exp::loadCampaign(path, "paper").scenarios[0].configHash(),
              h1);
}

// ------------------------------------------------------------------
// Shape metrics against a real run.
// ------------------------------------------------------------------

TEST(CampaignShapes, BandsGateSingleRunMetrics)
{
    exp::Scenario s;
    s.id = "shape-test";
    s.app = "em3d";
    s.machine = "mp";
    s.procs = 2;
    s.size = 8;
    s.iters = 2;
    exp::LaunchResult res = exp::launch(s.launchSpec(), nullptr, s.id);

    double total = exp::shapeMetric(res.report, "total_mcycles");
    EXPECT_GT(total, 0.0);
    double comp = exp::shapeMetric(res.report, "computation_share");
    EXPECT_GT(comp, 0.0);
    EXPECT_LE(comp, 1.0);
    EXPECT_THROW(exp::shapeMetric(res.report, "no_such_metric"),
                 std::runtime_error);

    std::string out;
    s.shapes = {{"total_mcycles", total * 0.9, total * 1.1},
                {"computation_share", 0.0, 1.0}};
    EXPECT_EQ(exp::checkShapes(s, res.report, out), 0) << out;
    s.shapes = {{"total_mcycles", total * 2, total * 3}};
    out.clear();
    EXPECT_EQ(exp::checkShapes(s, res.report, out), 1);
    EXPECT_NE(out.find("total_mcycles"), std::string::npos);
}

// ------------------------------------------------------------------
// Result store.
// ------------------------------------------------------------------

TEST(CampaignStore, RecordRoundTripsThroughJson)
{
    exp::RunRecord r;
    r.scenario = "em3d-mp.cache_kb=256";
    r.configHash = "0123456789abcdef";
    r.status = exp::RunStatus::Fail;
    r.attempts = 3;
    r.app = "em3d";
    r.machine = "mp";
    r.config = {{"app", "em3d"}, {"machine", "mp"},
                {"cache_kb", "256"}};
    r.elapsedCycles = 123456;
    r.totalCyclesPerProc = 98765.25;
    r.cycles = {{"computation", 5000.5}, {"barrier", 12.0}};
    r.counts = {{"packets_sent", 42}};
    r.metricsPath = "metrics/em3d-mp.json";
    r.shapeViolations = 2;
    r.error = "2 shape band violation(s)";

    exp::RunRecord b = exp::RunRecord::fromJsonLine(r.toJsonLine());
    EXPECT_EQ(b.scenario, r.scenario);
    EXPECT_EQ(b.configHash, r.configHash);
    EXPECT_EQ(b.status, r.status);
    EXPECT_EQ(b.attempts, r.attempts);
    EXPECT_EQ(b.config, r.config);
    EXPECT_EQ(b.cycles, r.cycles);
    EXPECT_EQ(b.counts, r.counts);
    EXPECT_EQ(b.metricsPath, r.metricsPath);
    EXPECT_EQ(b.shapeViolations, r.shapeViolations);
    EXPECT_EQ(b.error, r.error);
    EXPECT_DOUBLE_EQ(b.totalCyclesPerProc, r.totalCyclesPerProc);

    EXPECT_THROW(exp::RunRecord::fromJsonLine("{\"schema\": \"x\"}"),
                 std::runtime_error);
    EXPECT_THROW(exp::RunRecord::fromJsonLine("not json"),
                 std::runtime_error);
}

TEST(CampaignStore, LoadLatestFoldsLastRecordPerScenario)
{
    TempDir t;
    exp::Store store(t.path + "/camp");
    store.create();
    EXPECT_FALSE(store.exists());

    exp::RunRecord r;
    r.scenario = "a";
    r.configHash = "h1";
    r.status = exp::RunStatus::Fail;
    store.append(r);
    r.status = exp::RunStatus::Pass; // resumed re-run of "a"
    store.append(r);
    r.scenario = "b";
    r.status = exp::RunStatus::Crash;
    store.append(r);
    EXPECT_TRUE(store.exists());

    auto latest = store.loadLatest();
    ASSERT_EQ(latest.size(), 2u);
    EXPECT_EQ(latest.at("a").status, exp::RunStatus::Pass);
    EXPECT_EQ(latest.at("b").status, exp::RunStatus::Crash);

    exp::Scenario sa;
    sa.id = "a";
    // satisfiedBy needs pass + matching hash.
    EXPECT_FALSE(store.satisfiedBy(latest, sa)); // hash differs
    latest.at("a").configHash = sa.configHash();
    EXPECT_TRUE(store.satisfiedBy(latest, sa));
    exp::Scenario sb;
    sb.id = "b";
    latest.at("b").configHash = sb.configHash();
    EXPECT_FALSE(store.satisfiedBy(latest, sb)); // crash, not pass
    exp::Scenario sc;
    sc.id = "c";
    EXPECT_FALSE(store.satisfiedBy(latest, sc)); // no record
}

TEST(CampaignStore, TruncatedTrailingLineToleratedInteriorRejected)
{
    TempDir t;
    exp::Store store(t.path + "/camp");
    store.create();

    exp::RunRecord r;
    r.scenario = "a";
    r.configHash = "h1";
    store.append(r);
    r.scenario = "b";
    store.append(r);

    // Hand-truncate an append: the writer died mid-line. The two
    // intact records must survive with the tail skipped.
    {
        std::ofstream os(store.resultsPath(), std::ios::app);
        os << R"({"schema": "wwtcmp.campaign-record/1", "scen)";
    }
    auto latest = store.loadLatest();
    EXPECT_EQ(latest.size(), 2u);
    EXPECT_TRUE(latest.count("a"));
    EXPECT_TRUE(latest.count("b"));

    // A trailing newline after the garbage changes nothing: the
    // garbled line is still the last record-bearing line.
    {
        std::ofstream os(store.resultsPath(), std::ios::app);
        os << "\n";
    }
    EXPECT_EQ(store.loadLatest().size(), 2u);

    // But once a valid record follows it, the garbage is interior
    // corruption and the store must refuse to load.
    r.scenario = "c";
    store.append(r);
    EXPECT_THROW(store.loadLatest(), std::runtime_error);
}

// ------------------------------------------------------------------
// Report and diff.
// ------------------------------------------------------------------

TEST(CampaignDiff, DetectsDriftStatusChangesAndMissingScenarios)
{
    TempDir t;
    exp::Store a(t.path + "/a"), b(t.path + "/b");
    a.create();
    b.create();

    exp::RunRecord r;
    r.scenario = "s1";
    r.configHash = "h";
    r.totalCyclesPerProc = 1000;
    r.cycles = {{"computation", 800.0}, {"barrier", 200.0}};
    a.append(r);
    b.append(r);

    std::ostringstream os;
    EXPECT_EQ(exp::diffCampaigns(a.dir(), b.dir(), {}, os), 0);

    // Drift in one category.
    exp::RunRecord r2 = r;
    r2.cycles[1].second = 230.0;
    b.append(r2);
    os.str("");
    EXPECT_EQ(exp::diffCampaigns(a.dir(), b.dir(), {}, os), 1);
    EXPECT_NE(os.str().find("barrier"), std::string::npos);
    // ...absorbed by a generous tolerance.
    os.str("");
    EXPECT_EQ(exp::diffCampaigns(a.dir(), b.dir(), {0.5}, os), 0);

    // Status change trumps value comparison.
    exp::RunRecord r3 = r;
    r3.status = exp::RunStatus::Timeout;
    b.append(r3);
    os.str("");
    EXPECT_EQ(exp::diffCampaigns(a.dir(), b.dir(), {}, os), 1);
    EXPECT_NE(os.str().find("status"), std::string::npos);

    // One-sided scenario.
    exp::RunRecord r4 = r;
    r4.scenario = "s2";
    a.append(r4);
    exp::RunRecord r5 = r;
    b.append(r5); // restore s1 parity
    os.str("");
    EXPECT_EQ(exp::diffCampaigns(a.dir(), b.dir(), {}, os), 1);
    EXPECT_NE(os.str().find("only in"), std::string::npos);
}

TEST(CampaignReport, RendersStatusSummaryAndRows)
{
    TempDir t;
    exp::Store s(t.path + "/c");
    s.create();
    exp::RunRecord r;
    r.scenario = "em3d-mp";
    r.configHash = "h";
    r.totalCyclesPerProc = 2.5e6;
    r.cycles = {{"computation", 2.0e6}};
    s.append(r);
    r.scenario = "em3d-sm";
    r.status = exp::RunStatus::Crash;
    r.error = "child died on signal 11 after 3 attempt(s)";
    s.append(r);

    std::ostringstream os;
    EXPECT_EQ(exp::reportCampaign(s.dir(), os), 0);
    std::string out = os.str();
    EXPECT_NE(out.find("1 pass"), std::string::npos);
    EXPECT_NE(out.find("1 crash"), std::string::npos);
    EXPECT_NE(out.find("em3d-mp"), std::string::npos);
    EXPECT_NE(out.find("signal 11"), std::string::npos);

    std::ostringstream empty;
    EXPECT_EQ(exp::reportCampaign(t.path + "/nothere", empty), 1);
}

TEST(CampaignReport, JsonAndCsvFormatsFoldTheSameRecords)
{
    TempDir t;
    exp::Store s(t.path + "/c");
    s.create();
    exp::RunRecord r;
    r.scenario = "em3d-mp";
    r.configHash = "h";
    r.app = "em3d";
    r.machine = "mp";
    r.config = {{"app", "em3d"}, {"cache_kb", "256"}};
    r.totalCyclesPerProc = 2.5e6;
    r.cycles = {{"computation", 2.0e6}};
    s.append(r);
    r.status = exp::RunStatus::Fail; // superseded by the next append
    s.append(r);
    r.status = exp::RunStatus::Pass;
    s.append(r);

    std::ostringstream js;
    EXPECT_EQ(exp::reportCampaign(s.dir(), js,
                                  exp::ReportFormat::Json),
              0);
    std::string json = js.str();
    EXPECT_NE(json.find("\"schema\": \"wwtcmp.campaign-report/1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"em3d-mp\""), std::string::npos);
    EXPECT_NE(json.find("\"cache_kb\": \"256\""), std::string::npos);
    // Latest-per-id fold: exactly one scenario object, status pass.
    EXPECT_EQ(json.find("\"id\""), json.rfind("\"id\""));
    EXPECT_NE(json.find("\"status\": \"pass\""), std::string::npos);
    EXPECT_EQ(json.find("\"fail\""), std::string::npos);

    std::ostringstream cs;
    EXPECT_EQ(exp::reportCampaign(s.dir(), cs, exp::ReportFormat::Csv),
              0);
    std::string csv = cs.str();
    EXPECT_EQ(csv.rfind("scenario,status,app,machine,attempts,"
                        "total_cycles_per_proc,computation,",
                        0),
              0u)
        << csv;
    EXPECT_NE(csv.find("\nem3d-mp,pass,em3d,mp,1,2500000,2000000,"),
              std::string::npos)
        << csv;

    // Byte-determinism: rendering twice gives identical output.
    std::ostringstream js2, cs2;
    exp::reportCampaign(s.dir(), js2, exp::ReportFormat::Json);
    exp::reportCampaign(s.dir(), cs2, exp::ReportFormat::Csv);
    EXPECT_EQ(js.str(), js2.str());
    EXPECT_EQ(cs.str(), cs2.str());
}

// ------------------------------------------------------------------
// End to end through the real binary: crash isolation, retry, resume.
// ------------------------------------------------------------------

namespace
{

/** Three tiny scenarios; @p middle_extra taints the second one. */
std::string
e2eCampaign(const std::string& middle_extra)
{
    return std::string(R"({"schema": "wwtcmp.campaign/1",)") +
           R"("name": "e2e",
              "defaults": {"procs": 2, "size": 8, "iters": 2,
                           "timeout_sec": 60, "retries": 0},
              "scenarios": [
                {"id": "ok-a", "app": "em3d"},
                {"id": "victim", "app": "em3d", "machine": "sm")" +
           middle_extra + R"(},
                {"id": "ok-b", "app": "gauss", "size": 16,
                 "iters": 0}
              ]})";
}

} // namespace

TEST(CampaignE2E, AuditErrorChildIsRecordedFailedAndResumeRerunsIt)
{
    TempDir t;
    std::string camp = t.path + "/c.json";
    std::string dir = t.path + "/run";
    writeFile(camp, e2eCampaign(R"(, "inject": "audit_error")"));

    // The poisoned child fails; the campaign completes anyway.
    EXPECT_EQ(runBinary("run " + camp + " --dir " + dir + " --jobs 2"),
              1);
    exp::Store store(dir);
    auto latest = store.loadLatest();
    ASSERT_EQ(latest.size(), 3u);
    EXPECT_EQ(latest.at("ok-a").status, exp::RunStatus::Pass);
    EXPECT_EQ(latest.at("ok-b").status, exp::RunStatus::Pass);
    EXPECT_EQ(latest.at("victim").status, exp::RunStatus::Fail);
    EXPECT_NE(latest.at("victim").error.find("audit"),
              std::string::npos)
        << latest.at("victim").error;
    // Deterministic failures are not retried.
    EXPECT_EQ(latest.at("victim").attempts, 1);
    EXPECT_EQ(lineCount(store.resultsPath()), 3u);

    // Fix the campaign file and resume: only the failed scenario
    // re-runs (inject is not part of the config hash, so the passing
    // records still satisfy their scenarios).
    writeFile(camp, e2eCampaign(""));
    EXPECT_EQ(
        runBinary("resume " + camp + " --dir " + dir + " --jobs 2"), 0);
    EXPECT_EQ(lineCount(store.resultsPath()), 4u);
    latest = store.loadLatest();
    EXPECT_EQ(latest.at("victim").status, exp::RunStatus::Pass);

    // A second resume is a no-op.
    EXPECT_EQ(runBinary("resume " + camp + " --dir " + dir), 0);
    EXPECT_EQ(lineCount(store.resultsPath()), 4u);
}

TEST(CampaignE2E, AbortingChildIsRecordedAsCrash)
{
    TempDir t;
    std::string camp = t.path + "/c.json";
    std::string dir = t.path + "/run";
    writeFile(camp, e2eCampaign(R"(, "inject": "abort")"));

    EXPECT_EQ(runBinary("run " + camp + " --dir " + dir + " --jobs 2"),
              1);
    auto latest = exp::Store(dir).loadLatest();
    ASSERT_EQ(latest.size(), 3u);
    EXPECT_EQ(latest.at("victim").status, exp::RunStatus::Crash);
    EXPECT_NE(latest.at("victim").error.find("signal"),
              std::string::npos)
        << latest.at("victim").error;
    EXPECT_EQ(latest.at("ok-a").status, exp::RunStatus::Pass);
    EXPECT_EQ(latest.at("ok-b").status, exp::RunStatus::Pass);
}

TEST(CampaignE2E, ChaosKilledScenarioPassesOnRetry)
{
    TempDir t;
    std::string camp = t.path + "/c.json";
    std::string dir = t.path + "/run";
    // retries=1 gives the chaos-killed first attempt one more try.
    writeFile(camp, e2eCampaign(R"(, "retries": 1)"));

    EXPECT_EQ(runBinary("run " + camp + " --dir " + dir +
                        " --jobs 2 --chaos-kill victim"),
              0);
    auto latest = exp::Store(dir).loadLatest();
    ASSERT_EQ(latest.size(), 3u);
    EXPECT_EQ(latest.at("victim").status, exp::RunStatus::Pass);
    EXPECT_EQ(latest.at("victim").attempts, 2);
    EXPECT_EQ(latest.at("ok-a").attempts, 1);
}

TEST(CampaignE2E, TwoRunsOfTheSameCampaignShowZeroDrift)
{
    TempDir t;
    std::string camp = t.path + "/c.json";
    writeFile(camp, e2eCampaign(""));
    EXPECT_EQ(runBinary("run " + camp + " --dir " + t.path +
                        "/r1 --jobs 3"),
              0);
    EXPECT_EQ(runBinary("run " + camp + " --dir " + t.path +
                        "/r2 --jobs 1"),
              0);
    std::ostringstream os;
    EXPECT_EQ(exp::diffCampaigns(t.path + "/r1", t.path + "/r2", {}, os),
              0)
        << os.str();
    // Running into an occupied directory is refused.
    EXPECT_EQ(runBinary("run " + camp + " --dir " + t.path + "/r1"), 2);
}

// ------------------------------------------------------------------
// The runner, driven directly: it is command-agnostic, so /bin/sh
// children exercise the record pipe, torn records and timeouts.
// ------------------------------------------------------------------

namespace
{

/** Scenarios @p ids with the given policy (nothing else is read). */
std::vector<exp::Scenario>
shellScenarios(const std::vector<std::string>& ids, double timeout_sec,
               int retries)
{
    std::vector<exp::Scenario> out;
    for (const std::string& id : ids) {
        exp::Scenario s;
        s.id = id;
        s.timeoutSec = timeout_sec;
        s.retries = retries;
        out.push_back(s);
    }
    return out;
}

/** Run @p scenarios through exp::Runner; each attempt's command is
 *  `/bin/sh -c <script(scenario, attempt)>`. */
exp::RunnerStats
runShell(const std::vector<exp::Scenario>& scenarios,
         const std::function<std::string(const exp::Scenario&, int)>&
             script,
         std::map<std::string, exp::ChildOutcome>& outcomes,
         std::size_t jobs = 1)
{
    TempDir logs;
    exp::RunnerOptions opts;
    opts.jobs = jobs;
    opts.backoffSec = 0.01;
    exp::Runner runner(opts, [&](const exp::Scenario& s, int attempt) {
        return std::vector<std::string>{"/bin/sh", "-c",
                                        script(s, attempt)};
    });
    return runner.run(
        scenarios,
        [&](const exp::Scenario& s, const exp::ChildOutcome& out) {
            outcomes[s.id] = out;
        },
        [&](const exp::Scenario& s) {
            return logs.path + "/" + s.id + ".log";
        });
}

} // namespace

TEST(Runner, RecordWrittenToFd3ArrivesWhole)
{
    std::map<std::string, exp::ChildOutcome> out;
    exp::RunnerStats st = runShell(
        shellScenarios({"a", "b", "c"}, 60, 0),
        [](const exp::Scenario& s, int) {
            return "echo noise; printf '{\"id\":\"" + s.id +
                   "\"}\\n' >&3";
        },
        out, /*jobs=*/2);
    EXPECT_EQ(st.spawns, 3u);
    EXPECT_EQ(st.tornRecords, 0u);
    ASSERT_EQ(out.size(), 3u);
    for (const auto& [id, o] : out) {
        EXPECT_EQ(o.kind, exp::ChildOutcome::Kind::Exited) << id;
        EXPECT_EQ(o.exitCode, 0) << id;
        EXPECT_EQ(o.attempts, 1) << id;
        // stdout went to the log; only fd 3 carries the record.
        EXPECT_EQ(o.record, "{\"id\":\"" + id + "\"}");
    }
}

TEST(Runner, RecordLargerThanThePipeBufferArrivesWhole)
{
    // 200000 bytes is three times the 64 KB pipe buffer: the child
    // only finishes if the parent reads while it runs.
    std::map<std::string, exp::ChildOutcome> out;
    exp::RunnerStats st = runShell(
        shellScenarios({"big"}, 60, 0),
        [](const exp::Scenario&, int) {
            return std::string("head -c 200000 /dev/zero | tr '\\0' x "
                               ">&3; echo >&3");
        },
        out);
    EXPECT_EQ(st.tornRecords, 0u);
    const exp::ChildOutcome& o = out.at("big");
    EXPECT_EQ(o.kind, exp::ChildOutcome::Kind::Exited);
    EXPECT_EQ(o.record, std::string(200000, 'x'));
}

TEST(Runner, TornRecordIsCountedRetriedAndEndsAsSignal)
{
    // Attempt 1 dies mid-write (torn); attempt 2 dies before writing
    // anything (not torn). Retries run out after attempt 2.
    std::map<std::string, exp::ChildOutcome> out;
    exp::RunnerStats st = runShell(
        shellScenarios({"torn"}, 60, 1),
        [](const exp::Scenario&, int attempt) {
            return std::string(attempt == 1
                                   ? "printf '{\"half' >&3; kill -9 $$"
                                   : "kill -9 $$");
        },
        out);
    EXPECT_EQ(st.spawns, 2u);
    EXPECT_EQ(st.tornRecords, 1u);
    const exp::ChildOutcome& o = out.at("torn");
    EXPECT_EQ(o.kind, exp::ChildOutcome::Kind::Signal);
    EXPECT_EQ(o.signal, SIGKILL);
    EXPECT_EQ(o.attempts, 2);
    EXPECT_TRUE(o.record.empty());
}

TEST(Runner, WallClockTimeoutKillsAndRetries)
{
    std::map<std::string, exp::ChildOutcome> out;
    auto t0 = std::chrono::steady_clock::now();
    exp::RunnerStats st = runShell(
        shellScenarios({"slow"}, 0.2, 1),
        [](const exp::Scenario&, int) {
            return std::string("exec sleep 5");
        },
        out);
    double sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    EXPECT_EQ(st.spawns, 2u);
    const exp::ChildOutcome& o = out.at("slow");
    EXPECT_EQ(o.kind, exp::ChildOutcome::Kind::Timeout);
    EXPECT_EQ(o.attempts, 2);
    EXPECT_NE(o.detail.find("wall-clock budget"), std::string::npos)
        << o.detail;
    // Two 0.2 s budgets plus backoff, nowhere near the 5 s sleeps.
    EXPECT_LT(sec, 3.0);
}

TEST(Runner, ExecOfAMissingBinaryIsASpawnError)
{
    TempDir logs;
    std::vector<exp::Scenario> sc = shellScenarios({"ghost"}, 60, 2);
    exp::Runner runner({}, [](const exp::Scenario&, int) {
        return std::vector<std::string>{"/nonexistent/wwt-no-such-bin"};
    });
    std::map<std::string, exp::ChildOutcome> out;
    exp::RunnerStats st = runner.run(
        sc,
        [&](const exp::Scenario& s, const exp::ChildOutcome& o) {
            out[s.id] = o;
        },
        [&](const exp::Scenario&) { return logs.path + "/ghost.log"; });
    EXPECT_EQ(st.spawns, 1u);
    const exp::ChildOutcome& o = out.at("ghost");
    EXPECT_EQ(o.kind, exp::ChildOutcome::Kind::SpawnError);
    EXPECT_EQ(o.attempts, 1); // exec failures are not retried
}

/**
 * @file
 * wwtperf: the benchmark's measuring program. It times calls into
 * each simulator layer's public functions from outside the library and
 * prints one compact JSON object on stdout; bench.py runs it, one
 * process per repetition, and does all statistics.
 *
 *   wwtperf app <em3d-sm|em3d-mp|gauss-mp|mse-sm> --seed N
 *               --metrics FILE [--host-prof FILE]
 *   wwtperf campaign-load <campaign.json>
 *   wwtperf probe
 *
 * `app` builds the machine, runs the application once on it, checks
 * the application's result, collects the audited report and writes it
 * as a wwtcmp.metrics/2 manifest to the --metrics file. It prints the
 * result and one span per step, timed with std::chrono::steady_clock:
 *
 *  - setup: the machine constructor call, kSetupReps times in a fresh
 *    process, each earlier machine destroyed untimed before the next
 *    call. The application runs on the last machine.
 *  - run: the apps::run* call: graph/matrix generation, the whole
 *    simulation, the end-of-run audit sweep.
 *  - check: the result check below (not part of the measured wall).
 *  - report: core::collectReport, which re-runs the audits.
 *
 * --host-prof turns the host profiler on after construction, so its
 * manifest covers run, check, report, the metrics write (phase
 * "trace") and the JSON printing.
 *
 * `campaign-load` times exp::loadCampaign (read, validate, expand and
 * hash every scenario), the set-up a campaign run does before its
 * first child, kSetupReps times as spans "setup".
 *
 * `probe` times single public operations of one layer each (see
 * probes() below) and reports ns per operation for each of kProbeReps
 * repetitions.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/em3d.hh"
#include "apps/gauss.hh"
#include "apps/mse.hh"
#include "core/metrics.hh"
#include "core/parse.hh"
#include "core/report.hh"
#include "exp/scenario.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"
#include "mp/mp_machine.hh"
#include "prof/hostprof.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sm/sm_machine.hh"
#include "trace/json.hh"

using namespace wwt;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/**
 * Seconds on the steady clock, for span boundaries. On Linux this is
 * CLOCK_MONOTONIC, the clock of Python's time.monotonic(), so bench.py
 * places these spans on its own timeline without an offset.
 */
double
now()
{
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

struct Span {
    std::string name;
    double start, end;
};

using Spans = std::vector<Span>;

/** Call @p fn and record its wall time as span @p name. */
template <typename Fn>
auto
timed(Spans& spans, const char* name, Fn&& fn)
{
    double start = now();
    auto r = fn();
    spans.push_back({name, start, now()});
    return r;
}

// ---------------------------------------------------------------------
// Application workloads
// ---------------------------------------------------------------------

/**
 * Workload sizes. 32 processors and the paper's machine everywhere;
 * problem sizes are cut so one repetition takes 2-3 s on a 4-vCPU
 * x86-64 host, which lets a 20-second run take a median over
 * several fresh processes (README.md, "Workloads").
 */
constexpr std::size_t kProcs = 32;
constexpr std::size_t kEm3dNodesPerProc = 500;
constexpr std::size_t kEm3dSmIters = 20;
constexpr std::size_t kEm3dMpIters = 50;
constexpr std::size_t kGaussN = 512;
constexpr std::size_t kMseBodies = 192;
constexpr std::size_t kMseIters = 4;

/**
 * Set-up takes 0.02-3 ms, short enough for one slow moment of the host
 * to double it, so it is timed several times per process and bench.py
 * reports the median.
 */
constexpr std::size_t kSetupReps = 7;
constexpr std::size_t kProbeReps = 5;

/**
 * Self-check limits. EM3D and Gauss use the app tests' bounds. MSE
 * starts from x = 0 (error 1) and after kMseIters Jacobi sweeps is
 * still far from converged (about 0.14); a solver that stopped
 * converging would not get under this limit, and expected.json pins
 * the exact value.
 */
constexpr double kEm3dRelTol = 1e-9;
constexpr double kGaussMaxErr = 1e-8;
constexpr double kMseMaxErr = 0.25;

/** What one app run produced, beyond the machine report. */
struct AppResult {
    std::string resultKey; ///< "checksum" or "max_err"
    double result = 0;
    bool ok = false;
    std::string detail;
};

/**
 * Serial host recomputation of EM3D from the same graph: every E node
 * becomes 0.2 + sum(w * h[src]), then every H node the same from the
 * new E values (the affine rule documented in apps/em3d.hh). The
 * summation order differs from the simulated one, hence a relative
 * tolerance rather than equality.
 */
AppResult
checkEm3d(const apps::Em3dParams& p, const apps::Em3dResult& r)
{
    AppResult out;
    out.resultKey = "checksum";
    out.result = r.checksum;
    apps::Em3dGraph g = apps::Em3dGraph::make(p, kProcs);
    const std::size_t n = p.nodesPerProc;
    std::vector<double> e(kProcs * n, 1.0), h(kProcs * n, 1.0);
    std::vector<double> acc(kProcs * n);
    auto half = [&](const std::vector<apps::Em3dEdge>& edges,
                    const std::vector<double>& src,
                    std::vector<double>& dst) {
        std::fill(acc.begin(), acc.end(), 0.0);
        for (const apps::Em3dEdge& ed : edges)
            acc[ed.tp * n + ed.ti] += ed.w * src[ed.sp * n + ed.si];
        for (std::size_t i = 0; i < acc.size(); ++i)
            dst[i] = 0.2 + acc[i];
    };
    for (std::size_t t = 0; t < p.iters; ++t) {
        half(g.hToE, h, e);
        half(g.eToH, e, h);
    }
    double worst = 0;
    if (r.eVals.size() != e.size() || r.hVals.size() != h.size()) {
        out.detail = "result vector size mismatch";
        return out;
    }
    for (std::size_t i = 0; i < e.size(); ++i) {
        worst = std::max(worst, std::abs(r.eVals[i] - e[i]) /
                                    std::abs(e[i]));
        worst = std::max(worst, std::abs(r.hVals[i] - h[i]) /
                                    std::abs(h[i]));
    }
    out.ok = worst <= kEm3dRelTol;
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "max relative error vs host reference %.3g (limit %g)",
                  worst, kEm3dRelTol);
    out.detail = buf;
    return out;
}

AppResult
checkMaxErr(double err, double limit)
{
    AppResult out;
    out.resultKey = "max_err";
    out.result = err;
    out.ok = std::isfinite(err) && err < limit;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "max error %.3g (limit %g)", err,
                  limit);
    out.detail = buf;
    return out;
}

/**
 * One application workload: its machine and how to run it. The run
 * functions record the "run" and "check" spans.
 */
struct AppWorkload {
    const char* name;
    bool isMp;
    std::vector<std::string> phases;
    AppResult (*runMp)(mp::MpMachine&, std::uint64_t seed, Spans&);
    AppResult (*runSm)(sm::SmMachine&, std::uint64_t seed, Spans&);
};

apps::Em3dParams
em3dParams(std::uint64_t seed, std::size_t iters)
{
    apps::Em3dParams p;
    p.nodesPerProc = kEm3dNodesPerProc;
    p.iters = iters;
    p.seed = seed;
    return p;
}

const std::vector<AppWorkload>&
appWorkloads()
{
    static const std::vector<AppWorkload> w = {
        {"em3d-sm", false, {"Init", "Main"}, nullptr,
         [](sm::SmMachine& m, std::uint64_t seed, Spans& spans) {
             apps::Em3dParams p = em3dParams(seed, kEm3dSmIters);
             auto r = timed(spans, "run",
                            [&] { return apps::runEm3dSm(m, p); });
             return timed(spans, "check",
                          [&] { return checkEm3d(p, r); });
         }},
        {"em3d-mp", true, {"Init", "Main"},
         [](mp::MpMachine& m, std::uint64_t seed, Spans& spans) {
             apps::Em3dParams p = em3dParams(seed, kEm3dMpIters);
             auto r = timed(spans, "run",
                            [&] { return apps::runEm3dMp(m, p); });
             return timed(spans, "check",
                          [&] { return checkEm3d(p, r); });
         },
         nullptr},
        {"gauss-mp", true, {"Init", "Solve"},
         [](mp::MpMachine& m, std::uint64_t seed, Spans& spans) {
             apps::GaussParams p;
             p.n = kGaussN;
             p.seed = seed;
             auto r = timed(spans, "run",
                            [&] { return apps::runGaussMp(m, p); });
             return timed(spans, "check", [&] {
                 return checkMaxErr(r.maxErr, kGaussMaxErr);
             });
         },
         nullptr},
        {"mse-sm", false, {"Init", "Main"}, nullptr,
         [](sm::SmMachine& m, std::uint64_t, Spans& spans) {
             apps::MseParams p;
             p.bodies = kMseBodies;
             p.iters = kMseIters;
             auto r = timed(spans, "run",
                            [&] { return apps::runMseSm(m, p); });
             return timed(spans, "check", [&] {
                 return checkMaxErr(r.maxErrFromOnes, kMseMaxErr);
             });
         }},
    };
    return w;
}

core::MachineConfig
paperConfig(std::size_t nprocs)
{
    core::MachineConfig cfg = core::MachineConfig::cm5Like();
    cfg.nprocs = nprocs;
    return cfg;
}

void
writeSpans(trace::JsonWriter& w, const Spans& spans)
{
    w.key("spans").beginArray();
    for (const Span& s : spans) {
        w.beginObject();
        w.kv("name", s.name);
        w.kv("start", s.start);
        w.kv("end", s.end);
        w.endObject();
    }
    w.endArray();
}

int
cmdApp(const AppWorkload& wl, std::uint64_t seed,
       const std::string& metricsPath, const std::string& hostProf)
{
    const core::MachineConfig cfg = paperConfig(kProcs);
    Spans spans;
    std::unique_ptr<mp::MpMachine> mpm;
    std::unique_ptr<sm::SmMachine> smm;
    for (std::size_t i = 0; i < kSetupReps; ++i) {
        mpm.reset();
        smm.reset();
        timed(spans, "setup", [&] {
            if (wl.isMp)
                mpm = std::make_unique<mp::MpMachine>(cfg);
            else
                smm = std::make_unique<sm::SmMachine>(cfg);
            return 0;
        });
    }
    sim::Engine& e = wl.isMp ? mpm->engine() : smm->engine();

    if (!hostProf.empty())
        prof::enableWithManifestAtExit(hostProf);

    AppResult res = wl.isMp ? wl.runMp(*mpm, seed, spans)
                            : wl.runSm(*smm, seed, spans);
    core::MachineReport rep = timed(spans, "report", [&] {
        prof::ScopedPhase hp(prof::Phase::Audit);
        return core::collectReport(e, wl.phases);
    });

    {
        prof::ScopedPhase hp(prof::Phase::Trace);
        std::ofstream mf(metricsPath);
        core::writeMetricsJson(mf, {{wl.name, cfg, rep}});
        if (!mf)
            throw std::runtime_error("cannot write " + metricsPath);
    }

    std::ostringstream os;
    trace::JsonWriter w(os, false);
    w.beginObject();
    w.kv("workload", wl.name);
    w.kv("seed", seed);
    w.key("result").beginObject();
    w.kv(res.resultKey, res.result);
    w.endObject();
    w.kv("check_ok", res.ok);
    w.kv("check", res.detail);
    writeSpans(w, spans);
    w.endObject();
    std::cout << os.str() << "\n";
    return res.ok ? 0 : 1;
}

int
cmdCampaignLoad(const std::string& path)
{
    Spans spans;
    exp::Campaign c;
    for (std::size_t i = 0; i < kSetupReps; ++i)
        c = timed(spans, "setup",
                  [&] { return exp::loadCampaign(path, "paper"); });
    std::ostringstream os;
    trace::JsonWriter w(os, false);
    w.beginObject();
    w.kv("scenarios", static_cast<std::uint64_t>(c.scenarios.size()));
    writeSpans(w, spans);
    w.endObject();
    std::cout << os.str() << "\n";
    return 0;
}

// ---------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------

/** One probe repetition: @c ops operations took @c sec seconds. */
struct Timed {
    std::uint64_t ops;
    double sec;
};

/** Keeps probe results observable so no loop is optimized away. */
volatile std::uint64_t g_sink = 0;

Timed
probeEvent()
{
    // Schedule + pop + run of one no-op event, 256 events in flight
    // (a calendar depth the 32-processor runs reach).
    constexpr int kBatches = 1024, kBatch = 256;
    sim::EventQueue q;
    std::uint64_t sink = 0;
    Clock::time_point t = Clock::now();
    for (int b = 0; b < kBatches; ++b) {
        Cycle base = static_cast<Cycle>(b) * 256;
        for (int i = 0; i < kBatch; ++i)
            q.schedule(base + (i * 7) % 251, [&sink] { ++sink; });
        q.runUntil(base + 256);
    }
    double sec = since(t);
    g_sink = sink;
    return {static_cast<std::uint64_t>(kBatches) * kBatch, sec};
}

Timed
probeFiberSwitch()
{
    // One switchTo() into a fiber plus its yieldToCaller() back.
    constexpr std::uint64_t kOps = 200000;
    sim::Fiber* fp = nullptr;
    sim::Fiber f(64 * 1024, [&fp] {
        while (true)
            fp->yieldToCaller();
    });
    fp = &f;
    Clock::time_point t = Clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i)
        f.switchTo();
    return {kOps, since(t)};
}

/** The Table 1 cache, half full of blocks spread over all sets. */
mem::Cache
paperCache()
{
    core::CacheConfig c;
    return mem::Cache(c.bytes, c.assoc, c.blockBytes, c.seed);
}

Timed
probeCacheFind()
{
    constexpr std::uint64_t kOps = 2000000;
    constexpr Addr kBlocks = 4096;
    mem::Cache c = paperCache();
    for (Addr b = 0; b < kBlocks; ++b)
        c.insert(b * 3, mem::LineState::Exclusive, false);
    std::uint64_t hits = 0;
    Clock::time_point t = Clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i)
        hits += c.find(((i * 2654435761u) % kBlocks) * 3) != nullptr;
    double sec = since(t);
    if (hits != kOps)
        throw std::logic_error("cache find probe missed");
    g_sink = hits;
    return {kOps, sec};
}

Timed
probeCacheInsert()
{
    // Miss installs into a full cache: every insert evicts.
    constexpr std::uint64_t kOps = 1000000;
    mem::Cache c = paperCache();
    Addr b = 0;
    for (; b < 65536; ++b)
        c.insert(b, mem::LineState::Exclusive, false);
    std::uint64_t evicted = 0;
    Clock::time_point t = Clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i)
        evicted += c.insert(b++, mem::LineState::Exclusive, false).valid;
    double sec = since(t);
    g_sink = evicted;
    return {kOps, sec};
}

Timed
probeTlbHit()
{
    // Hits cycling over 32 resident pages, so the one-entry
    // last-page shortcut rarely applies.
    constexpr std::uint64_t kOps = 2000000;
    core::TlbConfig cfg;
    mem::Tlb tlb(cfg.entries);
    for (Addr pg = 0; pg < 32; ++pg)
        tlb.access(pg << 12);
    std::uint64_t hits = 0;
    Clock::time_point t = Clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i)
        hits += tlb.access((((i * 5) & 31) << 12) | (i & 0xff8));
    double sec = since(t);
    if (hits != kOps)
        throw std::logic_error("TLB hit probe missed");
    g_sink = hits;
    return {kOps, sec};
}

/**
 * Time a loop of @p ops operations inside node 0's program on @p m, a
 * fresh shared-memory machine. @p prepare runs first on every node
 * (untimed); @p op is one timed operation on node 0.
 */
template <typename Prepare, typename Op>
Timed
smNode0Loop(sm::SmMachine& m, std::uint64_t ops, Prepare prepare, Op op)
{
    double sec = 0;
    m.run([&](sm::SmMachine::Node& n) {
        prepare(n);
        n.barrier();
        if (n.id != 0)
            return;
        Clock::time_point t = Clock::now();
        for (std::uint64_t i = 0; i < ops; ++i)
            op(n, i);
        sec = since(t);
    });
    return {ops, sec};
}

Timed
probeSmReadHit()
{
    // Node::rd of a cached shared block: the per-access path MSE-SM
    // lives on (TLB, fast-hit filter, one-cycle charge, amortized
    // quantum switches).
    sm::SmMachine m(paperConfig(2));
    Addr a = 0;
    std::uint64_t sum = 0;
    Timed r = smNode0Loop(
        m, 2000000,
        [&](sm::SmMachine::Node& n) {
            if (n.id == 0) {
                a = n.gmallocLocal(64);
                n.rd<std::uint64_t>(a);
            }
        },
        [&](sm::SmMachine::Node& n, std::uint64_t i) {
            sum += n.rd<std::uint64_t>(a + (i & 7) * 8);
        });
    g_sink = sum;
    return r;
}

Timed
probeSmRemoteMiss()
{
    // A read miss on a block homed on the other node: request,
    // directory service, reply, fill, resume.
    constexpr std::uint64_t kOps = 4096;
    sm::SmMachine m(paperConfig(2));
    Addr a = 0;
    std::uint64_t sum = 0;
    Timed r = smNode0Loop(
        m, kOps,
        [&](sm::SmMachine::Node& n) {
            if (n.id == 1)
                a = n.gmallocLocal(kOps * kBlockBytes, kBlockBytes);
        },
        [&](sm::SmMachine::Node& n, std::uint64_t i) {
            sum += n.rd<std::uint64_t>(a + i * kBlockBytes);
        });
    g_sink = sum;
    return r;
}

Timed
probeSmLockPair()
{
    // An uncontended MCS lockAcquire + lockRelease pair.
    sm::SmMachine m(paperConfig(2));
    std::size_t lock = m.createLock(0);
    return smNode0Loop(
        m, 50000, [](sm::SmMachine::Node&) {},
        [lock](sm::SmMachine::Node& n, std::uint64_t) {
            n.lockAcquire(lock);
            n.lockRelease(lock);
        });
}

/**
 * Time MpMachine::run of @p body on a fresh @p nprocs machine, from
 * outside (fiber start-up and the end-of-run audit included, amortized
 * over @p ops operations).
 */
Timed
mpRun(std::size_t nprocs, std::uint64_t ops,
      const std::function<void(mp::MpMachine::Node&)>& body)
{
    mp::MpMachine m(paperConfig(nprocs));
    Clock::time_point t = Clock::now();
    m.run(body);
    return {ops, since(t)};
}

Timed
probeNiPacket()
{
    // One NetIface::send on node 0 plus the matching waitPacket +
    // receive on node 1.
    constexpr std::uint64_t kOps = 100000;
    return mpRun(2, kOps, [](mp::MpMachine::Node& n) {
        if (n.id == 0) {
            mp::AmArgs words{1, 2, 3, 4, 5};
            for (std::uint64_t i = 0; i < kOps; ++i)
                n.ni.send(1, 0, words, 16);
        } else {
            std::uint64_t sum = 0;
            for (std::uint64_t i = 0; i < kOps; ++i) {
                n.ni.waitPacket();
                sum += n.ni.receive().words[0];
            }
            g_sink = sum;
        }
    });
}

Timed
probeChannelWrite1k()
{
    // One 1 KB ChannelMgr::write (64 packets) into a static endpoint,
    // with the receiver's data-packet handlers included.
    constexpr std::uint64_t kOps = 2000;
    constexpr std::size_t kBytes = 1024;
    constexpr std::uint32_t kChan = 7;
    return mpRun(2, kOps, [](mp::MpMachine::Node& n) {
        Addr buf = n.mem.alloc(kBytes, kBlockBytes);
        if (n.id == 1)
            n.chans.openStatic(kChan, buf, kBytes);
        n.barrier();
        if (n.id == 0) {
            for (std::uint64_t i = 0; i < kOps; ++i)
                n.chans.write(1, kChan, buf, kBytes);
        } else {
            n.chans.waitEpochs(kChan, kOps);
        }
    });
}

Timed
probeAmRtt()
{
    // Active-message round trip: request to node 1, whose handler
    // replies; node 0 polls for the reply.
    constexpr std::uint64_t kOps = 50000;
    return mpRun(2, kOps, [](mp::MpMachine::Node& n) {
        std::uint64_t pings = 0, pongs = 0;
        std::uint32_t pong = 0;
        std::uint32_t ping = n.am.registerHandler(
            [&](NodeId src, const mp::AmArgs& a) {
                ++pings;
                n.am.request(src, pong, a);
            });
        pong = n.am.registerHandler(
            [&](NodeId, const mp::AmArgs&) { ++pongs; });
        if (n.id == 0) {
            mp::AmArgs args{};
            for (std::uint64_t i = 0; i < kOps; ++i) {
                n.am.request(1, ping, args);
                n.am.pollUntil([&] { return pongs > i; });
            }
        } else {
            n.am.pollUntil([&] { return pings == kOps; });
        }
    });
}

Timed
probeAllReduce32()
{
    constexpr std::uint64_t kOps = 2000;
    return mpRun(kProcs, kOps, [](mp::MpMachine::Node& n) {
        for (std::uint64_t i = 0; i < kOps; ++i) {
            if (n.coll.allReduce(1.0, mp::RedOp::Sum) != kProcs)
                throw std::logic_error("allReduce probe: wrong sum");
        }
    });
}

Timed
probeBcast4k32()
{
    // A pipelined 4 KB broadcast from node 0 over the lop-sided tree.
    constexpr std::uint64_t kOps = 16;
    constexpr std::size_t kBytes = 4096;
    return mpRun(kProcs, kOps, [](mp::MpMachine::Node& n) {
        Addr src = n.mem.alloc(kBytes, kBlockBytes);
        for (std::uint64_t i = 0; i < kOps; ++i)
            n.coll.broadcastInPlace(src, kBytes, 0);
    });
}

Timed
probeBarrier32()
{
    constexpr std::uint64_t kOps = 5000;
    return mpRun(kProcs, kOps, [](mp::MpMachine::Node& n) {
        for (std::uint64_t i = 0; i < kOps; ++i)
            n.barrier();
    });
}

struct Probe {
    const char* name;
    Timed (*fn)();
};

/** Every probe, named as its per-layer metric. */
const std::vector<Probe>&
probes()
{
    static const std::vector<Probe> p = {
        {"probe.sim.event_ns", probeEvent},
        {"probe.sim.fiber_switch_ns", probeFiberSwitch},
        {"probe.mem.cache_find_ns", probeCacheFind},
        {"probe.mem.cache_insert_ns", probeCacheInsert},
        {"probe.mem.tlb_hit_ns", probeTlbHit},
        {"probe.sm.read_hit_ns", probeSmReadHit},
        {"probe.sm.remote_miss_ns", probeSmRemoteMiss},
        {"probe.sm.lock_pair_ns", probeSmLockPair},
        {"probe.mp.ni_packet_ns", probeNiPacket},
        {"probe.mp.channel_write_1k_ns", probeChannelWrite1k},
        {"probe.mp.am_rtt_ns", probeAmRtt},
        {"probe.mp.allreduce32_ns", probeAllReduce32},
        {"probe.mp.bcast4k32_ns", probeBcast4k32},
        {"probe.net.barrier32_ns", probeBarrier32},
    };
    return p;
}

int
cmdProbe()
{
    std::ostringstream os;
    trace::JsonWriter w(os, false);
    w.beginObject();
    w.key("probes").beginArray();
    for (const Probe& p : probes()) {
        w.beginObject();
        w.kv("name", p.name);
        std::uint64_t ops = 0;
        w.key("ns").beginArray();
        for (std::size_t r = 0; r < kProbeReps; ++r) {
            Timed t = p.fn();
            ops = t.ops;
            w.value(t.sec * 1e9 / static_cast<double>(t.ops));
        }
        w.endArray();
        w.kv("ops", ops);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::cout << os.str() << "\n";
    return 0;
}

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "error: %s\n"
                 "usage: wwtperf app <em3d-sm|em3d-mp|gauss-mp|mse-sm> "
                 "--seed N --metrics FILE [--host-prof FILE]\n"
                 "       wwtperf campaign-load <campaign.json>\n"
                 "       wwtperf probe\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage("missing verb");
    const std::string verb = argv[1];
    const AppWorkload* wl = nullptr;
    bool isProbe = verb == "probe";
    if (verb == "app") {
        for (const AppWorkload& a : appWorkloads()) {
            if (argc > 2 && a.name == std::string(argv[2]))
                wl = &a;
        }
        if (!wl)
            return usage("missing or unknown workload");
    } else if (verb == "campaign-load") {
        if (argc != 3)
            return usage("campaign-load takes one campaign file");
    } else if (!isProbe) {
        return usage("unknown verb");
    }

    std::uint64_t seed = 0;
    bool haveSeed = false;
    std::string metricsPath, hostProf;
    for (int i = isProbe ? 2 : 3; i < argc; i += 2) {
        std::string f = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + f).c_str());
        const char* v = argv[i + 1];
        if (f == "--seed" && wl) {
            seed = core::requireCount("--seed", v, 0, ~0ull >> 1);
            haveSeed = true;
        } else if (f == "--metrics" && wl) {
            metricsPath = v;
        } else if (f == "--host-prof" && wl) {
            hostProf = v;
        } else {
            return usage(("unknown flag " + f).c_str());
        }
    }
    if (wl && (!haveSeed || metricsPath.empty()))
        return usage("app needs --seed and --metrics");

    try {
        if (wl)
            return cmdApp(*wl, seed, metricsPath, hostProf);
        if (isProbe)
            return cmdProbe();
        return cmdCampaignLoad(argv[2]);
    } catch (const std::exception& e) {
        // Audit violations (audit::AuditError) land here too.
        std::fprintf(stderr, "wwtperf: %s\n", e.what());
        return 1;
    }
}

#!/usr/bin/env python3
"""The repository benchmark: where does the simulator's own time go?

Five workloads, end-to-end host metrics, per-layer counts, host-profiler
phases and probes, and a correctness gate. README.md says what every
timer covers and why each workload exists.

    python3 bench/perf/bench.py run [--reps N] [--out FILE]
    python3 bench/perf/bench.py measure --workload W --seed N \\
        --seconds S --trace 0|1
    python3 bench/perf/bench.py compare BASE.json CHANGE.json
    python3 bench/perf/bench.py bless

`run` builds the benchmark, runs every workload round-robin, then the
probes and one traced repetition per workload, prints every metric by
name and unit, and writes a results file for `compare`. `measure` runs
one workload for a fixed time and prints one JSON object as its last
line (the command BENCHMARK.json names). `bless` rewrites expected.json.
`run` and `bless` exit nonzero when a simulated output is wrong;
`measure` reports it in its JSON line.
"""

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-perf")
WORK = os.path.join(BUILD, "work")
RESULTS = os.path.join(HERE, "results")
EXPECTED = os.path.join(HERE, "expected.json")
CAMPAIGN = os.path.join(HERE, "campaign.json")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

APP_WORKLOADS = ("em3d-sm", "em3d-mp", "gauss-mp", "mse-sm")
WORKLOADS = APP_WORKLOADS + ("campaign",)
# Workloads whose inputs come from the seed, with the paper's seeds.
# The others have no random input and ignore --seed.
DEFAULT_SEEDS = {"em3d-sm": 42, "em3d-mp": 42, "gauss-mp": 12345}

CHILD_TIMEOUT_S = 60
RESULTS_SCHEMA = "wwtperf.results/1"

# The host-speed reference (README.md, "Noise on a shared host"): a
# fixed loop of REF_LOOP_N iterations, timed every REF_PERIOD_S on the
# CPU the measured process is pinned to. REF_LOOP_S is about its time on
# an uncontended vCPU of the host the bounds were measured on, so a
# normalized time reads as seconds on that CPU when it is idle. The
# simulator slows down more than the loop when the host is busy: about
# as the loop's slowdown to the power REF_SENSITIVITY.
REF_LOOP_N = 2000
REF_PERIOD_S = 0.02
REF_LOOP_S = 100e-6
REF_SENSITIVITY = 1.2

# End-to-end metrics `run` prints beside BENCHMARK.json's list. They
# are not in BENCHMARK.json because one follows the host's load rather
# than the program (raw wall_s), one exists only for the campaign, and
# one is 0 when healthy.
RUN_ONLY_METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "runner_overhead_s", "unit": "s", "better": "lower",
     "bound": 0.25},
    {"name": "failed_frac", "unit": "ratio", "better": "lower",
     "bound": 0.0},
]

# Informational rows of the traced run: probe ns x model count against
# the host-profiler phase that should contain that work. On mse-sm
# nearly every access is a hit, so the row prices the hit path;
# README.md says why it reads far above 100 %.
RECONCILE = [
    ("mse-sm", "mem (read hits)", "probe.sm.read_hit_ns", "mem.accesses",
     "mem.host_s"),
    ("em3d-sm", "event_drain", "probe.sim.event_ns", "sim.events",
     "sim.event_drain_s"),
    ("em3d-mp", "fiber (NI packets)", "probe.mp.ni_packet_ns",
     "mp.packets", "sim.fiber_s"),
]


class BenchError(Exception):
    """The benchmark itself could not run (build, missing binary)."""


def benchmark_spec():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


# ---------------------------------------------------------------------
# Statistics and verdicts (pure; test_bench.py covers them)
# ---------------------------------------------------------------------

def summarize(values):
    """Median, quartiles and count of a sample list."""
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    s = summarize(values)
    iqr = s["q3"] - s["q1"]
    if s["median"] == 0:
        return 0.0 if iqr == 0 else float("inf")
    return iqr / abs(s["median"])


def verdict(base, change, better, bound):
    """Classify CHANGE against BASE for one metric.

    A gain needs the change to win at least nine tenths of the pairs
    and the medians to differ by more than the base's interquartile
    distance; a regression is a median worse by more than `bound` (a
    share of the base median). When either side's spread exceeds the
    bound the result is "unresolved", unless every change sample beats
    every base sample.
    """
    sign = 1.0 if better == "lower" else -1.0
    mb, mc = statistics.median(base), statistics.median(change)
    worse_by = sign * (mc - mb)
    allowed = bound * abs(mb)

    def beats(x, y):
        return sign * (x - y) < 0

    every_better = all(beats(c, b) for c in change for b in base)
    if max(relative_spread(base), relative_spread(change)) > bound:
        return "better" if every_better else "unresolved"
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if beats(c, b))
    base_iqr = summarize(base)["q3"] - summarize(base)["q1"]
    if pairs and wins >= 0.9 * len(pairs) and abs(mc - mb) > base_iqr \
            and worse_by < 0:
        return "better"
    if worse_by > allowed:
        return "worse"
    return "unchanged"


def compare_results(base, change, metrics):
    """One row per workload x end-to-end metric present in both."""
    rows = []
    for wl in WORKLOADS:
        b = base["workloads"].get(wl)
        c = change["workloads"].get(wl)
        if not b or not c:
            continue
        for m in metrics:
            bs, cs = b["samples"].get(m["name"]), c["samples"].get(m["name"])
            if not bs or not cs:
                continue
            rows.append({
                "workload": wl, "metric": m["name"], "unit": m["unit"],
                "base": summarize(bs), "change": summarize(cs),
                "verdict": verdict(bs, cs, m["better"], m["bound"]),
            })
    return rows


# ---------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------

def simulated_outputs(run, result):
    """What expected.json pins for one app run: the manifest's elapsed
    cycles, event count and totals, plus the app's own result."""
    out = {k: run[k] for k in ("elapsed_cycles", "events_executed",
                               "totals")}
    out["result"] = result
    return out


def diff_expected(observed, expected, path=""):
    """Every field where OBSERVED differs from EXPECTED, exactly."""
    if isinstance(expected, dict) and isinstance(observed, dict):
        out = []
        for k in sorted(set(expected) | set(observed)):
            p = path + "." + k if path else k
            if k not in observed:
                out.append("%s: missing" % p)
            elif k not in expected:
                out.append("%s: unexpected (%r)" % (p, observed[k]))
            else:
                out += diff_expected(observed[k], expected[k], p)
        return out
    if observed != expected:
        return ["%s: got %r, expected %r" % (path, observed, expected)]
    return []


def exact_check_applies(wl, seed):
    return wl not in DEFAULT_SEEDS or seed == DEFAULT_SEEDS[wl]


def load_expected():
    try:
        with open(EXPECTED) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


# ---------------------------------------------------------------------
# Build and processes
# ---------------------------------------------------------------------

def build():
    """Configure and build wwtperf + wwtcmp_campaign into build-perf/."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD],
                ["cmake", "--build", BUILD, "--target", "wwtperf",
                 "wwtcmp_campaign", "-j", jobs]):
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))


def exe(name):
    if name == "wwtperf":
        path = os.path.join(BUILD, "wwtperf")
    else:
        path = os.path.join(BUILD, "wwt", "src", "exp", name)
    if not os.access(path, os.X_OK):
        raise BenchError("missing binary " + path)
    return path


def pin_to_one_cpu():
    """Pin bench.py, and so every child it starts, to one CPU (the
    highest-numbered one allowed), so that the speed sampler measures
    the CPU the program runs on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SpeedSampler(threading.Thread):
    """Times the reference loop once at start, then every REF_PERIOD_S
    until stopped. On a shared host a vCPU switches between full speed
    and about 1.45 times slower within seconds, and the switches slow
    the reference loop and the simulator together (README.md)."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []
        self.stopped = threading.Event()

    def run(self):
        while True:
            t = time.perf_counter()
            x = 0
            for i in range(REF_LOOP_N):
                x += i * i
            self.samples.append(time.perf_counter() - t)
            if self.stopped.wait(REF_PERIOD_S):
                return

    def speed(self):
        """REF_LOOP_S over the mean loop time, to the power
        REF_SENSITIVITY: below 1 on a slow CPU."""
        return (REF_LOOP_S / statistics.mean(self.samples)) \
            ** REF_SENSITIVITY


class Proc:
    """A finished child process: exit code, output, wall, peak RSS, and
    the host speed while it ran."""

    def __init__(self, code, out, err, start, end, maxrss_kb, speed):
        self.code, self.out, self.err = code, out, err
        self.start, self.end = start, end
        self.wall = end - start
        self.maxrss_kb = maxrss_kb
        self.speed = speed


def spawn(args):
    """Run ARGS to completion, killing it after CHILD_TIMEOUT_S.

    Output goes through files under build-perf/work so the process can
    be reaped with wait4, which reports its peak RSS (its own or its
    largest waited-for descendant's). A SpeedSampler runs meanwhile.
    """
    os.makedirs(WORK, exist_ok=True)
    out_path = os.path.join(WORK, "child.out")
    err_path = os.path.join(WORK, "child.err")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.monotonic()
        proc = subprocess.Popen(args, stdout=out, stderr=err, cwd=ROOT)
        sampler = SpeedSampler()
        sampler.start()
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            sampler.stopped.set()
            sampler.join()
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(proc.returncode, out.read().decode(errors="replace"),
                    err.read().decode(errors="replace"), start, end,
                    ru.ru_maxrss, sampler.speed())


class Tracer:
    """Spans the benchmark records around its calls into each layer.

    Times come from time.monotonic(), which is CLOCK_MONOTONIC on Linux
    like the steady clock wwtperf stamps its own spans with.
    """

    def __init__(self):
        self.t0 = time.monotonic()
        self.spans = []

    def add(self, name, start, end, parent=None):
        self.spans.append({"id": len(self.spans), "name": name,
                           "start": start - self.t0, "end": end - self.t0,
                           "parent": parent})
        return len(self.spans) - 1

    def add_proc(self, name, proc, parent=None):
        return self.add(name, proc.start, proc.end, parent)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"schema": "wwtperf.trace/1", "unit": "s",
                       "spans": self.spans}, f, indent=1)
            f.write("\n")


# ---------------------------------------------------------------------
# One repetition of a workload
# ---------------------------------------------------------------------

class Rep:
    """Samples, errors and layer data from one repetition."""

    def __init__(self):
        self.metrics = {}
        self.errors = []
        self.layers = {}


def span_durs(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def span_dur(spans, name):
    return sum(span_durs(spans, name))


def app_run(wl, seed, prof_path=None):
    """One wwtperf app process: (Proc, its report, its manifest run)."""
    metrics = os.path.join(WORK, wl + ".metrics.json")
    if os.path.exists(metrics):
        os.remove(metrics)
    args = [exe("wwtperf"), "app", wl, "--seed", str(seed),
            "--metrics", metrics]
    if prof_path:
        args += ["--host-prof", prof_path]
    p = spawn(args)
    try:
        d = json.loads(p.out.strip().splitlines()[-1])
        with open(metrics) as f:
            run = json.load(f)["runs"][0]
    except (ValueError, IndexError, OSError):
        return p, None, None
    return p, d, run


def app_rep(wl, seed, expected, tracer, prof_path=None):
    rep = Rep()
    p, d, run = app_run(wl, seed, prof_path)
    parent = tracer.add_proc(wl + (" traced" if prof_path else ""), p)
    if d is None:
        rep.errors.append("wwtperf exited %d without a report: %s"
                          % (p.code, p.err.strip()[-500:]))
        return rep
    for s in d["spans"]:
        tracer.add(s["name"], s["start"], s["end"], parent)
    if p.code != 0 or not d["check_ok"]:
        rep.errors.append("self-check failed: " + d["check"])
    if exact_check_applies(wl, seed):
        if wl not in expected:
            rep.errors.append("expected.json has no entry for " + wl)
        else:
            rep.errors += diff_expected(simulated_outputs(run, d["result"]),
                                        expected[wl])
    wall = span_dur(d["spans"], "run") + span_dur(d["spans"], "report")
    rep.metrics = wall_metrics(wall, p.speed, run["elapsed_cycles"])
    rep.metrics["setup_s"] = statistics.median(
        span_durs(d["spans"], "setup")) * p.speed
    rep.metrics["peak_rss_mb"] = p.maxrss_kb / 1024.0
    rep.layers = count_layers(run["events_executed"],
                              run["totals"]["counts"])
    return rep


def wall_metrics(wall, speed, cycles):
    """Raw and normalized wall time of one repetition, and throughput
    at the normalized time. The caller adds setup_s, likewise scaled by
    the speed measured while the set-up ran."""
    norm_wall = wall * speed
    return {"wall_s": wall, "norm_wall_s": norm_wall,
            "sim_cycles_per_s": cycles / norm_wall / 1e6}


def count_layers(events, c):
    """Per-layer counts from an event count and summed model counts."""
    return {
        "sim.events": events,
        "mem.accesses": c["priv_accesses"] + c["shared_accesses"],
        "mem.misses": c["priv_misses"] + c["shared_miss_local"]
        + c["shared_miss_remote"],
        "mem.tlb_misses": c["tlb_misses"],
        "sm.proto_msgs": c["proto_msgs"],
        "sm.invals": c["invals_sent"],
        "sm.lock_acquires": c["lock_acquires"],
        "mp.packets": c["packets_sent"],
        "mp.active_msgs": c["active_msgs"],
        "mp.channel_writes": c["channel_writes"],
        "net.barriers": c["barriers"],
    }


SUMMARY_RE = re.compile(r"(\d+) executed, (\d+) cached, .* (\d+) child "
                        r"exec\(s\)")


def run_summary(proc):
    """(executed, cached, child execs) from a campaign run's last line."""
    m = SUMMARY_RE.search(proc.out)
    return tuple(int(g) for g in m.groups()) if m else None


def load_records(store):
    path = os.path.join(store, "results.jsonl")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def campaign_outputs(records):
    """Simulated elapsed cycles per scenario, repeat suffix folded."""
    out = {}
    for r in records:
        out.setdefault(re.sub(r"\.r\d+$", "", r["scenario"]), set()).add(
            r["elapsed_cycles"])
    return {k: sorted(v) for k, v in sorted(out.items())}


def campaign_rep(expected, tracer, traced=False):
    """Load, cold run, warm run, report and diff of campaign.json.

    EXPECTED None skips the comparison with expected.json (for `bless`);
    every other check still runs.
    """
    rep = Rep()
    start = time.monotonic()
    camp = exe("wwtcmp_campaign")
    cold = os.path.join(WORK, "campaign-cold")
    warm = os.path.join(WORK, "campaign-warm")
    load_p = spawn([exe("wwtperf"), "campaign-load", CAMPAIGN])
    try:
        load = json.loads(load_p.out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        rep.errors.append("campaign-load failed: " + load_p.err.strip())
        return rep
    for d in (cold, warm):
        shutil.rmtree(d, ignore_errors=True)
    cold_p = spawn([camp, "run", CAMPAIGN, "--dir", cold, "--jobs", "1"]
                   + (["--host-prof"] if traced else []))
    warm_p = spawn([camp, "run", CAMPAIGN, "--dir", warm, "--jobs", "1",
                    "--cache", cold])
    report_p = spawn([camp, "report", cold, "--format", "json"])
    diff_p = spawn([camp, "diff", cold, warm])
    parent = tracer.add("campaign" + (" traced" if traced else ""), start,
                        time.monotonic())
    for s in load["spans"]:
        tracer.add(s["name"], s["start"], s["end"], parent)
    for name, p in (("cold", cold_p), ("warm", warm_p),
                    ("report", report_p), ("diff", diff_p)):
        tracer.add_proc(name, p, parent)

    records = load_records(cold)
    cold_sum, warm_sum = run_summary(cold_p), run_summary(warm_p)
    if cold_p.code != 0 or not cold_sum:
        rep.errors.append("cold run failed (exit %d)" % cold_p.code)
    passed = sum(1 for r in records if r["status"] == "pass")
    if not records or not passed == len(records) == load["scenarios"]:
        rep.errors.append("cold run: %d/%d pass of %d scenarios"
                          % (passed, len(records), load["scenarios"]))
    if expected is not None:
        want = expected.get("campaign", {})
        if len(records) != want.get("scenarios"):
            rep.errors.append("cold run: %d records, expected %s"
                              % (len(records), want.get("scenarios")))
        rep.errors += diff_expected(campaign_outputs(records),
                                    want.get("elapsed_cycles"), "campaign")
    if warm_p.code != 0 or not warm_sum or warm_sum[2] != 0 \
            or warm_sum[1] != len(records):
        rep.errors.append("warm run did not serve every scenario from "
                          "the cache: %s" % (warm_sum,))
    if report_p.code != 0:
        rep.errors.append("report failed (exit %d)" % report_p.code)
    if diff_p.code != 0:
        rep.errors.append("cold/warm diff drifted: "
                          + diff_p.out.strip()[-300:])
    if rep.errors:
        return rep

    child_wall = sum(r["wall_sec"] for r in records)
    cycles = sum(r["elapsed_cycles"] for r in records)
    rep.metrics = wall_metrics(cold_p.wall, cold_p.speed, cycles)
    rep.metrics["setup_s"] = statistics.median(
        span_durs(load["spans"], "setup")) * load_p.speed
    rep.metrics["peak_rss_mb"] = cold_p.maxrss_kb / 1024.0
    rep.metrics["runner_overhead_s"] = cold_p.wall - child_wall
    if not traced:
        return rep
    rep.layers = campaign_layers(cold, records)
    rep.layers.update({
        "exp.child_wall_s": child_wall,
        "exp.spawns": cold_sum[2],
        "exp.overhead_per_child_ms":
            (cold_p.wall - child_wall) / cold_sum[2] * 1e3,
        "exp.report_s": report_p.wall,
        "svc.warm_wall_s": warm_p.wall,
        "svc.warm_child_execs": warm_sum[2],
        "svc.cache_hit_ratio": warm_sum[1] / len(records),
    })
    return rep


def campaign_layers(store, records):
    """Per-layer counts summed over the children's metrics manifests."""
    totals = {}
    events = 0
    for r in records:
        with open(os.path.join(store, r["metrics"])) as f:
            run = json.load(f)["runs"][0]
        events += run["events_executed"]
        for k, v in run["totals"]["counts"].items():
            totals[k] = totals.get(k, 0) + v
    return count_layers(events, totals)


# ---------------------------------------------------------------------
# Host-profiler phases and probes
# ---------------------------------------------------------------------

PHASE_METRICS = {"event_drain": "sim.event_drain_s", "fiber": "sim.fiber_s",
                 "mem": "mem.host_s", "protocol": "sm.protocol_s",
                 "net": "net.host_s", "audit": "audit.host_s"}


def phase_layers(manifests):
    """Phase seconds and thread-time-weighted coverage of hostprof/1
    manifests (one per traced process)."""
    out = {m: 0.0 for m in PHASE_METRICS.values()}
    thread_sec = covered = 0.0
    for man in manifests:
        for ph in man["phases"]:
            if ph["name"] in PHASE_METRICS:
                out[PHASE_METRICS[ph["name"]]] += ph["sec"]
        thread_sec += man["thread_sec"]
        covered += man["coverage"] * man["thread_sec"]
    out["prof.coverage"] = covered / thread_sec if thread_sec else 0.0
    return out


def derived_layers(lay):
    """Host time per unit of simulated work; 0 where a layer is idle."""
    def per(sec, count, scale=1e9):
        return lay[sec] / lay[count] * scale if lay[count] else 0.0
    return {
        "mem.ns_per_access": per("mem.host_s", "mem.accesses"),
        "sm.ns_per_proto_msg": per("sm.protocol_s", "sm.proto_msgs"),
        "mp.fiber_ns_per_packet": per("sim.fiber_s", "mp.packets"),
    }


def run_probes(tracer):
    p = spawn([exe("wwtperf"), "probe"])
    tracer.add_proc("probes", p)
    if p.code != 0:
        raise BenchError("wwtperf probe failed: " + p.err.strip()[-500:])
    probes = json.loads(p.out.strip().splitlines()[-1])["probes"]
    return {pr["name"]: {"ns": statistics.median(pr["ns"]),
                         "ops": pr["ops"], "reps": len(pr["ns"])}
            for pr in probes}


def traced_rep(wl, seed, expected, tracer, untraced_wall):
    """One repetition with the host profiler on; returns (rep, layers)."""
    if wl == "campaign":
        rep = campaign_rep(expected, tracer, traced=True)
        prof_dir = os.path.join(WORK, "campaign-cold", "hostprof")
        paths = [os.path.join(prof_dir, f)
                 for f in sorted(os.listdir(prof_dir))] \
            if os.path.isdir(prof_dir) else []
    else:
        path = os.path.join(WORK, wl + ".hostprof.json")
        if os.path.exists(path):
            os.remove(path)
        rep = app_rep(wl, seed, expected, tracer, prof_path=path)
        paths = [path] if os.path.exists(path) else []
    if rep.errors:
        return rep, {}
    if not paths:
        rep.errors.append("traced run wrote no host profile")
        return rep, {}
    manifests = []
    for path in paths:
        with open(path) as f:
            manifests.append(json.load(f))
    layers = dict(rep.layers)
    layers.update(phase_layers(manifests))
    layers.update(derived_layers(layers))
    layers["prof.overhead"] = rep.metrics["norm_wall_s"] / untraced_wall - 1
    return rep, layers


def full_layers(layers, probes, spec):
    """Every BENCHMARK.json per-layer metric: measured, probed or 0."""
    return {m["name"]: probes[m["name"]]["ns"] if m["name"] in probes
            else layers.get(m["name"], 0) for m in spec["per_layer"]}


def reconcile_rows(layers_by_wl, probes):
    rows = []
    for wl, phase, probe, count, prof in RECONCILE:
        lay = layers_by_wl.get(wl)
        if not lay or probe not in probes:
            continue
        predicted = probes[probe]["ns"] * lay[count] * 1e-9
        rows.append((wl, phase, probe, lay[count], predicted, lay[prof]))
    return rows


def print_reconcile(rows):
    if not rows:
        return
    print("\nReconciliation (informational): probe ns x model count vs "
          "host-profiler phase")
    print("%-9s %-19s %-27s %12s %10s %10s %7s" % (
        "workload", "phase", "probe", "count", "probe s", "phase s",
        "share"))
    for wl, phase, probe, count, predicted, measured in rows:
        share = predicted / measured if measured else float("nan")
        print("%-9s %-19s %-27s %12d %10.4f %10.4f %6.0f%%" % (
            wl, phase, probe, count, predicted, measured, share * 100))


# ---------------------------------------------------------------------
# Host fingerprint
# ---------------------------------------------------------------------

def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)",
                             line)
                if m:
                    cache[m.group(1)] = m.group(2).strip()
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        compiler = subprocess.run(
            [compiler, "--version"], capture_output=True,
            text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "kernel": platform.release(), "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "git_sha": sha or "unknown"}


# ---------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------

def default_seed(wl):
    return DEFAULT_SEEDS.get(wl, 0)


def do_rep(wl, seed, expected, tracer):
    if wl == "campaign":
        return campaign_rep(expected, tracer)
    return app_rep(wl, seed, expected, tracer)


def seed_note(wl, seed):
    if wl not in DEFAULT_SEEDS:
        return "%s: no random input; --seed ignored, exact check on" % wl
    if seed != DEFAULT_SEEDS[wl]:
        return ("%s: seed %d is not the default %d; exact comparison "
                "with expected.json skipped, self-checks still run"
                % (wl, seed, DEFAULT_SEEDS[wl]))
    return None


def cmd_run(args):
    spec = benchmark_spec()
    build()
    pin_to_one_cpu()
    expected = load_expected()
    tracer = Tracer()
    res = {wl: {"samples": {}, "attempted": 0, "failed": 0, "errors": []}
           for wl in WORKLOADS}
    layers_by_wl = {}
    for r in range(args.reps):
        for wl in WORKLOADS:
            rep = do_rep(wl, default_seed(wl), expected, tracer)
            record_rep(res[wl], rep)
        print("round %d/%d done" % (r + 1, args.reps), file=sys.stderr)
    probes = run_probes(tracer)
    per_layer = {}
    for wl in WORKLOADS:
        walls = res[wl]["samples"].get("norm_wall_s")
        if not walls:
            continue
        rep, lay = traced_rep(wl, default_seed(wl), expected, tracer,
                              statistics.median(walls))
        record_rep(res[wl], rep, samples=False)
        if lay:
            layers_by_wl[wl] = lay
            per_layer[wl] = full_layers(lay, probes, spec)

    metrics = spec["end_to_end"] + RUN_ONLY_METRICS
    for wl in WORKLOADS:
        w = res[wl]
        w["samples"]["failed_frac"] = [w["failed"] / max(1, w["attempted"])]
    print_run(res, per_layer, metrics, spec)
    print("\nProbes (median ns per op over repetitions)")
    for name, p in probes.items():
        print("  %-30s %14.1f ns  (%d ops/rep, %d reps)"
              % (name, p["ns"], p["ops"], p["reps"]))
    print_reconcile(reconcile_rows(layers_by_wl, probes))
    for wl in WORKLOADS:
        for e in res[wl]["errors"]:
            print("FAIL %s: %s" % (wl, e))

    out = args.out or os.path.join(RESULTS, "latest.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"schema": RESULTS_SCHEMA, "fingerprint": fingerprint(),
                   "reps": args.reps,
                   "workloads": res, "per_layer": per_layer,
                   "probes": probes}, f, indent=1, sort_keys=True)
        f.write("\n")
    tracer.write(os.path.join(RESULTS, "trace.json"))
    print("results written to %s; spans to %s" % (
        out, os.path.join(RESULTS, "trace.json")))
    return 1 if any(res[wl]["failed"] for wl in WORKLOADS) else 0


def record_rep(w, rep, samples=True):
    w["attempted"] += 1
    if rep.errors:
        w["failed"] += 1
        w["errors"] += rep.errors
    elif samples:
        for k, v in rep.metrics.items():
            w["samples"].setdefault(k, []).append(v)


def print_run(res, per_layer, metrics, spec):
    print("End-to-end metrics (median [q1, q3] over n reps)")
    for wl in WORKLOADS:
        print("  " + wl)
        for m in metrics:
            vals = res[wl]["samples"].get(m["name"])
            if not vals:
                print("    %-18s %14s" % (m["name"], "-"))
                continue
            s = summarize(vals)
            print("    %-18s %14.6g %-9s [%.6g, %.6g] n=%d" % (
                m["name"], s["median"], m["unit"], s["q1"], s["q3"],
                s["n"]))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print("\nPer-layer metrics (traced run; probes shared by all)")
    names = [m["name"] for m in spec["per_layer"]]
    print("  %-30s %-6s" % ("metric", "unit") + "".join(
        "%14s" % wl for wl in WORKLOADS))
    for name in names:
        print("  %-30s %-6s" % (name, units[name]) + "".join(
            "%14.6g" % per_layer[wl][name] if wl in per_layer else
            "%14s" % "-" for wl in WORKLOADS))


def cmd_measure(args):
    """One workload for --seconds; the last stdout line is the result.

    A wrong simulated output is reported there ("correct": false), not
    through the exit code, which is nonzero only when the benchmark
    could not run.
    """
    spec = benchmark_spec()
    wl, seed = args.workload, args.seed
    build()
    pin_to_one_cpu()
    expected = load_expected()
    tracer = Tracer()
    w = {"samples": {}, "attempted": 0, "failed": 0, "errors": []}
    start = time.monotonic()
    deadline = start + args.seconds
    rep_s = []
    # A traced run reserves time for the traced repetition and the
    # probes, and needs two untraced repetitions for prof.overhead.
    reserve = 0.0
    while True:
        t = time.monotonic()
        est = statistics.median(rep_s) if rep_s else 0.0
        if args.trace:
            reserve = est * 1.2 + 2.5
        if len(rep_s) >= (2 if args.trace else 1) \
                and t + est + reserve > deadline:
            break
        rep = do_rep(wl, seed, expected, tracer)
        record_rep(w, rep)
        rep_s.append(time.monotonic() - t)

    metrics = {}
    if args.trace:
        walls = w["samples"].get("norm_wall_s")
        if walls:
            probes = run_probes(tracer)
            rep, lay = traced_rep(wl, seed, expected, tracer,
                                  statistics.median(walls))
            record_rep(w, rep, samples=False)
            if lay:
                values = full_layers(lay, probes, spec)
                units = {m["name"]: m["unit"] for m in spec["per_layer"]}
                metrics = {k: {"value": v, "unit": units[k]}
                           for k, v in values.items()}
                print_reconcile(reconcile_rows({wl: lay}, probes))
        tracer.write(os.path.join(RESULTS, "trace.json"))
    else:
        for m in spec["end_to_end"]:
            vals = w["samples"].get(m["name"])
            if vals:
                metrics[m["name"]] = {"value": statistics.median(vals),
                                      "unit": m["unit"]}
    note = seed_note(wl, seed)
    if note:
        print("note: " + note)
    for e in w["errors"]:
        print("FAIL %s: %s" % (wl, e))
    print("%d reps in %.1f s" % (w["attempted"],
                                 time.monotonic() - start))
    result = {"correct": w["failed"] == 0, "attempted": w["attempted"],
              "failed": w["failed"], "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


def cmd_compare(args):
    spec = benchmark_spec()
    with open(args.base) as f:
        base = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    for r in (base, change):
        if r.get("schema") != RESULTS_SCHEMA:
            raise BenchError("not a %s file" % RESULTS_SCHEMA)
    if base["fingerprint"] != change["fingerprint"]:
        print("warning: host fingerprints differ:")
        for k in sorted(base["fingerprint"]):
            if base["fingerprint"][k] != change["fingerprint"].get(k):
                print("  %s: %r vs %r" % (k, base["fingerprint"][k],
                                          change["fingerprint"].get(k)))
    rows = compare_results(base, change,
                           spec["end_to_end"] + RUN_ONLY_METRICS)
    print("%-9s %-18s %-9s %-32s %-32s %s" % (
        "workload", "metric", "unit", "base median [q1, q3]",
        "change median [q1, q3]", "verdict"))
    for r in rows:
        b, c = r["base"], r["change"]
        print("%-9s %-18s %-9s %-32s %-32s %s" % (
            r["workload"], r["metric"], r["unit"],
            "%.4g [%.4g, %.4g]" % (b["median"], b["q1"], b["q3"]),
            "%.4g [%.4g, %.4g]" % (c["median"], c["q1"], c["q3"]),
            r["verdict"]))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


def cmd_bless(_args):
    """Rewrite expected.json from one default-seed run per workload."""
    build()
    tracer = Tracer()
    out = {}
    for wl in APP_WORKLOADS:
        p, d, run = app_run(wl, default_seed(wl))
        if p.code != 0 or d is None:
            raise BenchError("%s failed its self-check: %s"
                             % (wl, (p.out + p.err).strip()[-500:]))
        out[wl] = simulated_outputs(run, d["result"])
    rep = campaign_rep(None, tracer)
    if rep.errors:
        raise BenchError("campaign failed: " + "; ".join(rep.errors))
    records = load_records(os.path.join(WORK, "campaign-cold"))
    out["campaign"] = {"scenarios": len(records),
                       "elapsed_cycles": campaign_outputs(records)}
    with open(EXPECTED, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + EXPECTED)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="verb", required=True)
    r = sub.add_parser("run", help="all workloads, probes, traced runs")
    r.add_argument("--reps", type=int, default=10)
    r.add_argument("--out", default=None)
    m = sub.add_parser("measure", help="one workload for a fixed time")
    m.add_argument("--workload", required=True, choices=WORKLOADS)
    m.add_argument("--seed", type=int, required=True)
    m.add_argument("--seconds", type=float, required=True)
    m.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c = sub.add_parser("compare", help="verdicts of CHANGE against BASE")
    c.add_argument("base")
    c.add_argument("change")
    sub.add_parser("bless", help="regenerate expected.json")
    args = ap.parse_args(argv)
    # A terminated benchmark still kills and reaps its current child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if getattr(args, "reps", 1) < 1 or getattr(args, "seconds", 1) <= 0:
        ap.error("--reps and --seconds must be positive")
    if getattr(args, "seed", 0) < 0:
        ap.error("--seed must be non-negative")
    try:
        return {"run": cmd_run, "measure": cmd_measure,
                "compare": cmd_compare, "bless": cmd_bless}[args.verb](args)
    except BenchError as e:
        print("bench.py: " + str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

#pragma once

/**
 * @file
 * The crash-isolated campaign runner.
 *
 * Each scenario executes in its own child process — fork + exec of a
 * self-invoking `wwtcmp_campaign --run-one` command — so a scenario
 * that corrupts memory, trips an AuditError, or dies on a signal
 * takes down one run, not the campaign. The parent is a work-queue
 * scheduler: up to `jobs` children run concurrently, each watched
 * against its scenario's wall-clock timeout; children that die on a
 * signal or time out are retried with linear backoff up to the
 * scenario's retry budget; deterministic failures (a child that
 * writes a failed record and exits) are never retried, because
 * re-running a deterministic simulator reproduces the failure.
 *
 * Record handoff: every spawned attempt gets its own pipe, whose
 * write end the child finds as fd 3 (kRecordFd). The record is
 * whatever the child writes there before EOF; a record missing its
 * trailing newline is *torn* — the child died mid-write — and is
 * counted, never adopted. The child is the only holder of its write
 * end, so EOF means the child is gone.
 *
 * The parent stays single-threaded and event-driven: it poll()s the
 * running children's read ends, reads while they run (so a record has
 * no size cap), reaps a child with a blocking waitpid once its pipe
 * reaches EOF, and otherwise sleeps only until the nearest timeout
 * deadline or backoff expiry — capped, so `tick` still runs.
 * Scheduling needs no locks and the results file has exactly one
 * writer.
 *
 * Chaos hook: `chaosKillId` names one scenario whose first attempt is
 * SIGKILLed right after the spawn — CI uses it to prove the retry
 * path stays alive (docs/campaigns.md).
 */

#include <functional>
#include <string>
#include <vector>

#include "exp/scenario.hh"

namespace wwt::exp
{

/** The fd on which a child finds the write end of its record pipe. */
inline constexpr int kRecordFd = 3;

/** Scheduler policy. */
struct RunnerOptions {
    std::size_t jobs = 1;       ///< concurrent child processes
    double backoffSec = 0.5;    ///< retry delay = backoff * attempt
    std::string chaosKillId;    ///< SIGKILL this scenario's 1st attempt
    /** Invoked once per scheduler wakeup (lease heartbeats etc.). */
    std::function<void()> tick;
};

/** What happened to one scenario's child process(es). */
struct ChildOutcome {
    enum class Kind : std::uint8_t {
        Exited,  ///< child exited; `exitCode` is valid
        Signal,  ///< child died on `signal`, retries exhausted
        Timeout, ///< wall-clock budget exceeded, retries exhausted
        SpawnError, ///< pipe/fork/exec itself failed
    };
    Kind kind = Kind::Exited;
    int exitCode = 0;
    int signal = 0;
    int attempts = 1;
    std::string detail; ///< human-readable diagnostic
    /** What the final attempt wrote to kRecordFd, trailing newline
     *  stripped; empty when it wrote nothing or tore the record. */
    std::string record;
};

/** What the scheduler did, summed over the whole run. */
struct RunnerStats {
    std::size_t spawns = 0;      ///< children actually forked
    std::size_t tornRecords = 0; ///< attempts that died mid-write
};

/**
 * Runs scenarios concurrently in crash-isolated child processes.
 *
 * The runner is execution-mechanism only: callers provide the child
 * command line per scenario and consume outcomes via a callback, so
 * the scheduler stays independent of the store and the CLI.
 */
class Runner
{
  public:
    /** Child command line for @p s and attempt number (1-based);
     *  argv[0] is the executable. */
    using CommandFn =
        std::function<std::vector<std::string>(const Scenario&,
                                               int attempt)>;
    /** Invoked from the scheduling loop once per finished scenario. */
    using DoneFn =
        std::function<void(const Scenario&, const ChildOutcome&)>;

    Runner(RunnerOptions opts, CommandFn command)
        : opts_(std::move(opts)), command_(std::move(command))
    {
    }

    /**
     * Execute every scenario to a terminal outcome. @p log_path maps
     * a scenario to the file receiving its child's stdout+stderr
     * (truncated per attempt).
     */
    RunnerStats run(const std::vector<Scenario>& scenarios,
                    DoneFn on_done,
                    std::function<std::string(const Scenario&)>
                        log_path);

  private:
    RunnerOptions opts_;
    CommandFn command_;
};

} // namespace wwt::exp

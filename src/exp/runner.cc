#include "exp/runner.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

namespace wwt::exp
{

namespace
{

/** Longest poll() sleep, so `tick` runs at least this often (s). */
constexpr double kMaxWaitSec = 0.1;

/** One scenario's place in the schedule. */
struct Slot {
    const Scenario* scenario = nullptr;
    int attempt = 0;      ///< attempts started so far
    pid_t pid = -1;       ///< -1 = not currently running
    int fd = -1;          ///< record pipe read end while running
    double deadline = 0;  ///< kill after this point (runner seconds)
    double notBefore = 0; ///< backoff: don't start earlier
    bool done = false;
    ChildOutcome outcome; ///< .record fills while the attempt runs
};

/**
 * fork + exec @p argv with stdout/stderr redirected to @p log_path and
 * the write end of a fresh pipe as kRecordFd.
 * @return the child pid, with @p record_fd set to the pipe's
 *         non-blocking read end; -1 on failure (errno set).
 */
pid_t
spawn(const std::vector<std::string>& argv, const std::string& log_path,
      int& record_fd)
{
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv)
        cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);

    int p[2];
    if (::pipe2(p, O_CLOEXEC) != 0)
        return -1;
    pid_t pid = ::fork();
    if (pid != 0) {
        int err = errno;
        // The child must be the only holder of the write end, or EOF
        // would not mean "the child is gone".
        ::close(p[1]);
        if (pid < 0) {
            ::close(p[0]);
            errno = err;
            return -1;
        }
        ::fcntl(p[0], F_SETFL, O_NONBLOCK);
        record_fd = p[0];
        return pid;
    }

    // Child: only async-signal-safe calls from here to exec. The write
    // end moves to kRecordFd before the log is opened, so the
    // redirection cannot clobber it. With stdin closed, pipe2 can
    // return kRecordFd itself, and dup2 onto itself would keep
    // FD_CLOEXEC, so that case clears the flag instead.
    if (p[1] == kRecordFd)
        ::fcntl(kRecordFd, F_SETFD, 0);
    else
        ::dup2(p[1], kRecordFd);
    int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                    0666);
    if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        if (fd > STDERR_FILENO)
            ::close(fd);
    }
    ::execv(cargv[0], cargv.data());
    // exec failed: report on the (redirected) stderr and die with a
    // status the parent maps to SpawnError.
    const char msg[] = "exec failed\n";
    ssize_t ignored = ::write(STDERR_FILENO, msg, sizeof(msg) - 1);
    (void)ignored;
    ::_exit(127);
}

/** Append everything readable on @p fd to @p buf. @return true at
 *  EOF (or on a read error, which ends the stream just the same). */
bool
drain(int fd, std::string& buf)
{
    char chunk[65536];
    for (;;) {
        ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n > 0)
            buf.append(chunk, static_cast<std::size_t>(n));
        else if (n == 0)
            return true;
        else if (errno != EINTR)
            return errno != EAGAIN;
    }
}

} // namespace

RunnerStats
Runner::run(const std::vector<Scenario>& scenarios, DoneFn on_done,
            std::function<std::string(const Scenario&)> log_path)
{
    // Runner time in seconds. Deadlines stay doubles, so no timeout
    // value can overflow a clock duration.
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    auto now = [&] {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };

    std::vector<Slot> slots(scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i)
        slots[i].scenario = &scenarios[i];

    std::size_t jobs = opts_.jobs ? opts_.jobs : 1;
    std::size_t running = 0;
    std::size_t finished = 0;
    RunnerStats stats;

    auto finish = [&](Slot& s, ChildOutcome::Kind kind, int code,
                      int sig, std::string detail) {
        s.done = true;
        s.outcome.kind = kind;
        s.outcome.exitCode = code;
        s.outcome.signal = sig;
        s.outcome.attempts = s.attempt;
        s.outcome.detail = std::move(detail);
        ++finished;
        on_done(*s.scenario, s.outcome);
    };

    // Retry after backoff, or finish with @p kind once retries run out.
    auto retryOr = [&](Slot& s, ChildOutcome::Kind kind, int sig,
                       std::string detail) {
        if (s.attempt <= s.scenario->retries)
            s.notBefore = now() + opts_.backoffSec * s.attempt;
        else
            finish(s, kind, 0, sig, std::move(detail));
    };

    // Reap the running attempt (killing it first when it timed out),
    // keep a whole record, count a torn one, and classify the end.
    auto endAttempt = [&](Slot& s, bool timed_out) {
        if (timed_out)
            ::kill(s.pid, SIGKILL);
        int status = 0;
        pid_t r;
        do {
            r = ::waitpid(s.pid, &status, 0);
        } while (r < 0 && errno == EINTR);
        int wait_errno = errno;
        std::string& record = s.outcome.record;
        if (timed_out)
            drain(s.fd, record); // whatever the killed child wrote last
        ::close(s.fd);
        s.fd = -1;
        s.pid = -1;
        --running;
        if (!record.empty() && record.back() == '\n') {
            record.pop_back();
        } else if (!record.empty()) {
            ++stats.tornRecords;
            record.clear();
        }

        if (r < 0) {
            finish(s, ChildOutcome::Kind::SpawnError, 0, 0,
                   std::string("waitpid failed: ") +
                       std::strerror(wait_errno));
        } else if (timed_out) {
            retryOr(s, ChildOutcome::Kind::Timeout, 0,
                    "exceeded " +
                        std::to_string(s.scenario->timeoutSec) +
                        "s wall-clock budget " +
                        std::to_string(s.attempt) + " time(s)");
        } else if (WIFEXITED(status)) {
            int code = WEXITSTATUS(status);
            if (code == 127)
                finish(s, ChildOutcome::Kind::SpawnError, code, 0,
                       "exec failed (see the scenario log)");
            else
                finish(s, ChildOutcome::Kind::Exited, code, 0, "");
        } else {
            int sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
            retryOr(s, ChildOutcome::Kind::Signal, sig,
                    "child died on signal " + std::to_string(sig) +
                        " after " + std::to_string(s.attempt) +
                        " attempt(s)");
        }
    };

    std::vector<pollfd> fds;
    std::vector<Slot*> polled;
    while (finished < slots.size()) {
        if (opts_.tick)
            opts_.tick();

        // Start work while job slots are free.
        double t = now();
        for (Slot& s : slots) {
            if (running >= jobs)
                break;
            if (s.done || s.pid != -1 || t < s.notBefore)
                continue;
            ++s.attempt;
            s.outcome.record.clear();
            pid_t pid = spawn(command_(*s.scenario, s.attempt),
                              log_path(*s.scenario), s.fd);
            if (pid < 0) {
                finish(s, ChildOutcome::Kind::SpawnError, 0, 0,
                       std::string("pipe/fork failed: ") +
                           std::strerror(errno));
                continue;
            }
            ++stats.spawns;
            s.pid = pid;
            s.deadline = now() + s.scenario->timeoutSec;
            ++running;
            if (s.attempt == 1 &&
                s.scenario->id == opts_.chaosKillId) {
                // Chaos: kill the first attempt outright, so the
                // retry path is exercised on every CI run.
                ::kill(pid, SIGKILL);
            }
        }

        // Sleep until a pipe has news, or until the nearest deadline,
        // backoff expiry or tick is due.
        double wait = kMaxWaitSec;
        fds.clear();
        polled.clear();
        t = now();
        for (Slot& s : slots) {
            if (s.pid != -1) {
                fds.push_back({s.fd, POLLIN, 0});
                polled.push_back(&s);
                wait = std::min(wait, s.deadline - t);
            } else if (!s.done && running < jobs) {
                wait = std::min(wait, s.notBefore - t);
            }
        }
        int ms = wait > 0 ? static_cast<int>(std::ceil(wait * 1000)) : 0;
        // A failed poll (EINTR) is harmless: reads never block and the
        // deadline sweep still runs.
        ::poll(fds.data(), fds.size(), ms);

        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents &&
                drain(fds[i].fd, polled[i]->outcome.record))
                endAttempt(*polled[i], /*timed_out=*/false);
        }
        t = now();
        for (Slot* s : polled) {
            if (s->pid != -1 && t >= s->deadline)
                endAttempt(*s, /*timed_out=*/true);
        }
    }
    return stats;
}

} // namespace wwt::exp

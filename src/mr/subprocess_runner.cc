#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#ifndef _WIN32
#include <poll.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "mr/runner.h"

namespace fsjoin::mr {

namespace {

std::function<bool(const TaskSpec&)>& FaultHook() {
  static std::function<bool(const TaskSpec&)>* hook =
      new std::function<bool(const TaskSpec&)>();
  return *hook;
}

std::atomic<bool> g_worker_mode_available{false};

Status WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot open " + path);
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
  const bool ok = written == bytes.size() && std::fclose(file) == 0;
  return ok ? Status::OK() : Status::IoError("short write to " + path);
}

#ifndef _WIN32
/// Leaves a torn, unreadable .dat behind — what a worker killed mid-write
/// leaves on a real cluster — then dies with a non-protocol exit code.
[[noreturn]] void DieMidWrite(const std::string& base) {
  std::FILE* file = std::fopen((base + ".dat").c_str(), "wb");
  if (file != nullptr) {
    std::fputs("torn partial task output", file);
    std::fflush(file);
  }
  _exit(3);
}

/// Wall-clock ceiling on one child attempt. A fork-mode child can inherit a
/// COW-copied allocator lock from a parent thread that was mid-malloc at
/// fork() time (ProcessForkMutex serializes fork against context merges, not
/// against allocation on other scheduler threads) and deadlock before its
/// first task instruction; a blocking waitpid would then wedge the whole job.
/// Past the ceiling the child is killed and the attempt fails over to the
/// scheduler's retry budget — the subprocess twin of the cluster runner's
/// heartbeat death detection.
int64_t AttemptTimeoutMs() {
  const char* env = std::getenv("FSJOIN_TASK_TIMEOUT_MS");
  if (env != nullptr && *env != '\0') {
    const long long ms = std::atoll(env);
    if (ms > 0) return static_cast<int64_t>(ms);
  }
  return 60'000;
}

using Clock = std::chrono::steady_clock;

/// Kills the child and reaps it (blocking — SIGKILL cannot be ignored).
pid_t KillAndReap(pid_t pid, int* status) {
  kill(pid, SIGKILL);
  pid_t waited;
  do {
    waited = waitpid(pid, status, 0);
  } while (waited < 0 && errno == EINTR);
  return waited;
}

/// Reaps `pid` or kills it at `deadline`, sleeping in poll() on a pidfd so
/// the parent wakes the moment the child exits. Returns false, having
/// waited for nothing, when pidfds are unavailable (pre-5.3 kernels,
/// seccomp filters) or poll fails — the caller then polls waitpid.
bool WaitOnPidFd(pid_t pid, Clock::time_point deadline, int* status,
                 pid_t* waited, bool* timed_out) {
#ifdef SYS_pidfd_open
  const int pidfd = static_cast<int>(syscall(SYS_pidfd_open, pid, 0));
  if (pidfd < 0) return false;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() < 0) {
      *timed_out = true;
      *waited = KillAndReap(pid, status);
      break;
    }
    pollfd pfd{pidfd, POLLIN, 0};
    // At most 1 s per poll, so a huge FSJOIN_TASK_TIMEOUT_MS never
    // overflows poll's int timeout (a negative one waits forever); the
    // deadline check above runs on every wake-up. +1 ms: never wake a hair
    // before the deadline and spin on a 0 timeout.
    const int rc = ::poll(
        &pfd, 1, static_cast<int>(std::min<int64_t>(left.count(), 1000)) + 1);
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0) {
      ::close(pidfd);
      return false;
    }
    if (rc == 0) continue;  // the deadline check above decides
    do {
      *waited = waitpid(pid, status, 0);  // exited: returns at once
    } while (*waited < 0 && errno == EINTR);
    break;
  }
  ::close(pidfd);
  return true;
#else
  (void)pid;
  (void)deadline;
  (void)status;
  (void)waited;
  (void)timed_out;
  return false;
#endif
}

std::string DescribeWaitStatus(int status) {
  if (WIFEXITED(status)) {
    return "exited with code " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "stopped with status " + std::to_string(status);
}
#endif  // !_WIN32

}  // namespace

std::mutex& ProcessForkMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

void SetSubprocessTaskFaultHook(std::function<bool(const TaskSpec&)> hook) {
  FaultHook() = std::move(hook);
}

bool WorkerModeAvailable() {
  return g_worker_mode_available.load(std::memory_order_relaxed);
}

void SetWorkerModeAvailable(bool available) {
  g_worker_mode_available.store(available, std::memory_order_relaxed);
}

SubprocessRunner::SubprocessRunner(size_t num_threads) : pool_(num_threads) {
#ifndef _WIN32
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    argv0_ = buf;
  }
#endif
}

void SubprocessRunner::ParallelRun(size_t n,
                                   const std::function<void(size_t)>& fn) {
  pool_.ParallelFor(n, fn);
}

#ifdef _WIN32

Status SubprocessRunner::RunAttempt(const TaskSpec&, const TaskBody&,
                                    const TaskSideChannel&, TaskOutput*) {
  return Status::Unimplemented("subprocess runner requires fork()");
}

#else  // !_WIN32

Status SubprocessRunner::RunAttempt(const TaskSpec& spec_in,
                                    const TaskBody& body,
                                    const TaskSideChannel& side,
                                    TaskOutput* out) {
  if (spec_in.output_base.empty()) {
    return Status::Internal("subprocess task '" + spec_in.job_name +
                            "' has no output_base");
  }
  TaskSpec spec = spec_in;
  // Per-attempt file namespace: a retried attempt never reads the torn
  // leftovers of its predecessor.
  spec.output_base += "-a" + std::to_string(spec_in.attempt);
  const std::string& base = spec.output_base;

  // Exec mode needs three things: a factory name, its registration in this
  // (and therefore the re-execed) binary, and a main() that routes through
  // WorkerTaskMainIfRequested — otherwise re-running the binary would
  // re-run its whole program. Anything less falls back to fork mode.
  const bool exec_mode = !spec.factory.empty() && HasTaskFactory(spec.factory) &&
                         WorkerModeAvailable() && !argv0_.empty();

  pid_t pid = -1;
  if (exec_mode) {
    const std::string spec_path = base + ".spec";
    std::string bytes;
    spec.EncodeTo(&bytes);
    FSJOIN_RETURN_NOT_OK(WriteFileBytes(spec_path, bytes));
    const char* argv[] = {argv0_.c_str(), "--worker-task", spec_path.c_str(),
                          nullptr};
    std::lock_guard<std::mutex> lock(ProcessForkMutex());
    pid = fork();
    if (pid == 0) {
      if (FaultHook() && FaultHook()(spec)) DieMidWrite(base);
      execv(argv[0], const_cast<char* const*>(argv));
      _exit(127);
    }
  } else {
    std::lock_guard<std::mutex> lock(ProcessForkMutex());
    pid = fork();
    if (pid == 0) {
      // Forked child. The parent's pool threads do not exist here and its
      // context mutexes are guaranteed unlocked (fork is serialized against
      // merges). Never unwind into parent-owned destructors: _exit only.
      if (FaultHook() && FaultHook()(spec)) DieMidWrite(base);
      if (side.reset) side.reset();
      TaskOutput child_out;
      Status st = body(spec, &child_out);
      if (st.ok() && side.capture) child_out.side_state = side.capture();
      if (st.ok()) st = WriteTaskOutputFiles(base, child_out);
      if (st.ok()) _exit(0);
      WriteTaskError(base, st);
      _exit(2);
    }
  }
  if (pid < 0) {
    return Status::Internal("fork failed for task '" + spec.job_name + "/" +
                            TaskKindName(spec.kind) + std::to_string(spec.task_index) +
                            "': " + std::strerror(errno));
  }

  const int64_t timeout_ms = AttemptTimeoutMs();
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  int status = 0;
  pid_t waited = 0;
  bool timed_out = false;
  if (!WaitOnPidFd(pid, deadline, &status, &waited, &timed_out)) {
    for (int64_t poll_us = 200;;) {
      waited = waitpid(pid, &status, WNOHANG);
      if (waited < 0 && errno == EINTR) continue;
      if (waited != 0) break;  // Reaped, or a real waitpid error.
      if (Clock::now() >= deadline) {
        timed_out = true;
        waited = KillAndReap(pid, &status);
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(poll_us));
      if (poll_us < 20'000) poll_us *= 2;
    }
  }
  if (waited < 0) {
    return Status::Internal("waitpid failed: " + std::string(std::strerror(errno)));
  }
  if (timed_out) {
    return Status::Internal(
        "task '" + spec.job_name + "/" + TaskKindName(spec.kind) +
        std::to_string(spec.task_index) + "' attempt " +
        std::to_string(spec.attempt) + " timed out after " +
        std::to_string(timeout_ms) + " ms; child killed");
  }

  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    FSJOIN_RETURN_NOT_OK(ReadTaskOutputFiles(base, out));
    out->metrics.transport =
        exec_mode ? TaskTransport::kExec : TaskTransport::kFork;
    return Status::OK();
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) == 2) {
    // Protocol error exit: the child persisted its real Status.
    Status persisted;
    if (ReadTaskError(base, &persisted).ok()) return persisted;
  }
  return Status::Internal(
      "task '" + spec.job_name + "/" + TaskKindName(spec.kind) +
      std::to_string(spec.task_index) + "' attempt " +
      std::to_string(spec.attempt) + " subprocess " +
      DescribeWaitStatus(status));
}

#endif  // _WIN32

}  // namespace fsjoin::mr

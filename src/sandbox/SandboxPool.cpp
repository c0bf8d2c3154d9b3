//===- SandboxPool.cpp - Supervised out-of-process worker pool --------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sandbox/SandboxPool.h"

#include "daemon/DiskStore.h"
#include "resilience/Backoff.h"
#include "sandbox/Quarantine.h"
#include "support/Io.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace mvec;
using namespace mvec::sandbox;
using namespace mvec::daemon;

using Clock = std::chrono::steady_clock;

namespace {

/// Reaps \p Pid, waiting up to \p BudgetMs for it to exit on its own;
/// past the budget it is SIGKILLed and the wait becomes blocking (a
/// SIGKILLed process cannot linger). Returns the wait status.
int reapWithDeadline(pid_t Pid, unsigned BudgetMs) {
  Clock::time_point Deadline = Clock::now() + std::chrono::milliseconds(BudgetMs);
  int Status = 0;
  for (;;) {
    pid_t R = ::waitpid(Pid, &Status, WNOHANG);
    if (R == Pid)
      return Status;
    if (R < 0 && errno != EINTR)
      return 0; // Already reaped elsewhere; nothing more to learn.
    if (Clock::now() >= Deadline) {
      ::kill(Pid, SIGKILL);
      while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
        ;
      return Status;
    }
    ::usleep(2000);
  }
}

WorkerFailure classifyStatus(int Status, int &Signal, int &ExitCode) {
  Signal = 0;
  ExitCode = -1;
  if (WIFEXITED(Status)) {
    ExitCode = WEXITSTATUS(Status);
    return ExitCode == 0 ? WorkerFailure::CleanExit : WorkerFailure::ExitError;
  }
  if (WIFSIGNALED(Status)) {
    Signal = WTERMSIG(Status);
    // SIGKILL is the kernel OOM killer's (and any external killer's)
    // signature; everything else is the process's own fault.
    return Signal == SIGKILL ? WorkerFailure::OomKill : WorkerFailure::Crash;
  }
  return WorkerFailure::Crash;
}

unsigned remainingMs(Clock::time_point Deadline) {
  auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  Deadline - Clock::now())
                  .count();
  return Left <= 0 ? 0 : static_cast<unsigned>(Left);
}

/// The job-level result a worker's VEC reply carries. False when the
/// reply names no known status or class, or a succeeded reply's result
/// entry fails its checks.
bool resultFromReply(const Response &Reply, JobResult &R) {
  if (!parseJobStatus(Reply.Status, R.Status) ||
      !parseErrorClass(Reply.ErrorClass, R.Class))
    return false;
  if (R.Status == JobStatus::Succeeded) {
    if (!decodeResultEntry(Reply.Body, R))
      return false;
  } else {
    R.Message = Reply.Message;
    R.VectorizedSource = Reply.Body;
  }
  R.Attempts = Reply.Attempts;
  return true;
}

} // namespace

SandboxPool::SandboxPool(SandboxConfig C, const ServiceConfig &Service,
                         ServiceMetrics &Metrics)
    : Config(std::move(C)), Worker(Service), Metrics(Metrics),
      Breaker(Config.CrashLoop) {
  // The worker runs the cold pipeline only: the shard's service keeps the
  // caches, the store and the fault plan, and one request at a time is
  // all a worker ever gets.
  Worker.Workers = 1;
  Worker.CacheCapacity = 0;
  Worker.Store = nullptr;
  Worker.Faults = nullptr;
  Worker.ColdPath = nullptr;
  unsigned N = std::max(1u, Service.Workers);
  Slots.reserve(N);
  for (unsigned I = 0; I != N; ++I) {
    auto S = std::make_unique<Slot>();
    std::string Error;
    if (spawnWorker(Config, Worker, S->Proc, Error)) {
      S->St = Slot::State::Idle;
      S->EverSpawned = true;
      S->LastSeen = Clock::now();
    } else {
      // Leave it Dead; the supervisor keeps retrying with backoff.
      S->NextSpawnAt = Clock::now() + std::chrono::milliseconds(50);
    }
    Slots.push_back(std::move(S));
  }
  Supervisor = std::thread([this] { supervise(); });
}

SandboxPool::~SandboxPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  IdleCv.notify_all();
  if (Supervisor.joinable())
    Supervisor.join();
  // Closing the parent side is the shutdown signal: workers see EOF and
  // _exit(0). Give them a grace period, then force the issue.
  for (auto &S : Slots) {
    if (S->Proc.Fd >= 0) {
      ::close(S->Proc.Fd);
      S->Proc.Fd = -1;
    }
  }
  for (auto &S : Slots) {
    if (S->Proc.Pid > 0) {
      reapWithDeadline(S->Proc.Pid, 2000);
      S->Proc.Pid = -1;
    }
  }
}

std::vector<pid_t> SandboxPool::workerPids() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<pid_t> Out;
  for (const auto &S : Slots)
    if (S->St != Slot::State::Dead && S->Proc.Pid > 0)
      Out.push_back(S->Proc.Pid);
  return Out;
}

SandboxPool::Slot *SandboxPool::acquire(std::chrono::milliseconds Budget) {
  std::unique_lock<std::mutex> Lock(Mutex);
  Slot *Found = nullptr;
  auto Pick = [&] {
    if (Stopping)
      return true;
    for (auto &S : Slots) {
      if (S->St == Slot::State::Idle) {
        Found = S.get();
        return true;
      }
    }
    return false;
  };
  if (!IdleCv.wait_for(Lock, Budget, Pick) || !Found)
    return nullptr;
  Found->St = Slot::State::Busy;
  return Found;
}

void SandboxPool::release(Slot &S, bool Healthy) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    S.St = Slot::State::Idle;
    S.LastSeen = Clock::now();
    if (Healthy)
      S.FailStreak = 0;
  }
  IdleCv.notify_one();
}

void SandboxPool::retireWorker(Slot &S, const WorkerFailure *Forced,
                               WorkerFailure &Fail, int &Signal,
                               int &ExitCode) {
  if (S.Proc.Fd >= 0) {
    ::close(S.Proc.Fd);
    S.Proc.Fd = -1;
  }
  // workerPids() reads the pid of a Busy slot under the lock.
  pid_t Pid;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Pid = S.Proc.Pid;
    S.Proc.Pid = -1;
  }
  int Status = 0;
  if (Pid > 0) {
    if (Forced)
      ::kill(Pid, SIGKILL);
    Status = reapWithDeadline(Pid, Forced ? 0 : 200);
  }
  Fail = classifyStatus(Status, Signal, ExitCode);
  if (Forced) {
    Fail = *Forced;
    if (Signal == 0)
      Signal = SIGKILL;
  }
  std::lock_guard<std::mutex> Lock(Mutex);
  noteDeathLocked(S, &Fail);
}

void SandboxPool::noteDeathLocked(Slot &S, const WorkerFailure *Fail) {
  if (Fail) {
    if (*Fail == WorkerFailure::WatchdogTimeout)
      Metrics.SandboxWatchdogKills.fetch_add(1, std::memory_order_relaxed);
    else
      Metrics.SandboxCrashes.fetch_add(1, std::memory_order_relaxed);
  }
  S.St = Slot::State::Dead;
  S.FailStreak = std::min(S.FailStreak + 1, 16u);
  // Jittered exponential backoff before the slot respawns; seeded by the
  // slot's address so sibling slots never thundering-herd in lockstep.
  S.NextSpawnAt =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(backoffDelay(
                         Config.Respawn, S.FailStreak,
                         reinterpret_cast<uintptr_t>(&S)));
}

bool SandboxPool::exchange(Slot &S, const std::string &Wire, unsigned BudgetMs,
                           Response &Out, WorkerFailure &Fail, int &Signal,
                           int &ExitCode) {
  Fail = WorkerFailure::Crash;
  Signal = 0;
  ExitCode = -1;
  Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(BudgetMs);
  if (!io::sendFull(S.Proc.Fd, Wire.data(), Wire.size(),
                    static_cast<int>(BudgetMs))) {
    retireWorker(S, nullptr, Fail, Signal, ExitCode);
    return false;
  }
  FrameReader Reader;
  char Buf[16 << 10];
  for (;;) {
    unsigned Left = remainingMs(Deadline);
    if (Left == 0) {
      WorkerFailure Timeout = WorkerFailure::WatchdogTimeout;
      retireWorker(S, &Timeout, Fail, Signal, ExitCode);
      return false;
    }
    int R = io::pollFor(S.Proc.Fd, POLLIN, static_cast<int>(Left));
    if (R == 0)
      continue; // Re-check the deadline and poll again.
    if (R < 0) {
      retireWorker(S, nullptr, Fail, Signal, ExitCode);
      return false;
    }
    ssize_t N = io::recvSome(S.Proc.Fd, Buf, sizeof(Buf));
    if (N <= 0) {
      // EOF or error: the worker is gone; the wait status says how.
      retireWorker(S, nullptr, Fail, Signal, ExitCode);
      return false;
    }
    Reader.feed(Buf, static_cast<size_t>(N));
    FrameReader::Frame Frame;
    std::string Error;
    FrameReader::Result Res = Reader.next(Frame, Error);
    if (Res == FrameReader::Result::NeedMore)
      continue;
    if (Res == FrameReader::Result::Malformed ||
        !responseFromFrame(Frame, Out, Error)) {
      WorkerFailure Babble = WorkerFailure::ProtocolError;
      retireWorker(S, &Babble, Fail, Signal, ExitCode);
      return false;
    }
    return true;
  }
}

JobResult SandboxPool::run(const JobSpec &Spec) {
  auto Degraded = [&](const std::string &Why) {
    JobResult R;
    R.Name = Spec.Name;
    R.Status = JobStatus::Degraded;
    R.Class = ErrorClass::Resource;
    R.Message = "degraded: " + Why;
    R.VectorizedSource = Spec.Source; // Byte-exact: always runnable.
    return R;
  };
  if (!Breaker.allow()) {
    Metrics.SandboxBreakerShed.fetch_add(1, std::memory_order_relaxed);
    return Degraded("sandbox crash-loop breaker open");
  }
  // The worker applies the same default when the job brings no deadline.
  std::chrono::milliseconds Deadline =
      Spec.Deadline.count() > 0 ? Spec.Deadline : Worker.DefaultDeadline;
  // No deadline: still bound the watchdog somewhere.
  auto BudgetMs = static_cast<unsigned>(
      Deadline.count() > 0 ? Deadline.count() : 600000);

  Slot *S = acquire(std::chrono::milliseconds(BudgetMs));
  if (!S) {
    // Not a worker failure (the breaker is not fed): the pool is simply
    // saturated or mid-respawn.
    Breaker.recordSuccess();
    return Degraded("no idle sandbox worker within the deadline");
  }

  Request Req;
  Req.V = Verb::Vec;
  Req.Name = Spec.Name;
  Req.Body = Spec.Source;
  Req.Validate = Spec.Validate;
  Req.DeadlineMs = static_cast<unsigned>(Spec.Deadline.count());
  Response Reply;
  WorkerFailure Fail;
  int Signal, ExitCode;
  bool Ok = exchange(*S, serializeRequest(Req),
                     BudgetMs + Config.HeartbeatTimeoutMs, Reply, Fail, Signal,
                     ExitCode);
  JobResult R;
  if (Ok && !resultFromReply(Reply, R)) {
    WorkerFailure Babble = WorkerFailure::ProtocolError;
    retireWorker(*S, &Babble, Fail, Signal, ExitCode);
    Ok = false;
  }
  if (!Ok) {
    // The slot is already retired and scheduled for respawn. Quarantine
    // the input that did this, keyed as it was submitted, and feed the
    // crash-loop breaker.
    QuarantineRecord Rec;
    Rec.Cause = Fail;
    Rec.Signal = Signal;
    Rec.ExitCode = ExitCode;
    Rec.Name = Spec.Name;
    Rec.Validate = Spec.Validate;
    if (quarantineInput(submittedKey(Spec, Worker), Spec.Source, Rec, Config,
                        Worker))
      Metrics.SandboxQuarantined.fetch_add(1, std::memory_order_relaxed);
    Breaker.recordFailure();
    return Degraded(std::string("worker ") + workerFailureName(Fail) +
                    (Signal ? " (signal " + std::to_string(Signal) + ")" : ""));
  }

  Breaker.recordSuccess();
  release(*S, /*Healthy=*/true);
  R.Name = Spec.Name;
  return R;
}

void SandboxPool::supervise() {
  std::unique_lock<std::mutex> Lock(Mutex);
  while (!Stopping) {
    // Sleep one heartbeat interval (wakes early on shutdown; spurious
    // wakes from release() notifications just run a cheap extra pass).
    IdleCv.wait_for(Lock,
                    std::chrono::milliseconds(
                        std::max(1u, Config.HeartbeatIntervalMs)),
                    [this] { return Stopping; });
    if (Stopping)
      break;

    // 1. Reap workers that died while idle (external SIGKILL, OOM
    //    killer striking between requests).
    for (auto &S : Slots) {
      if (S->St != Slot::State::Idle)
        continue;
      int Status = 0;
      pid_t R = ::waitpid(S->Proc.Pid, &Status, WNOHANG);
      if (R == S->Proc.Pid) {
        ::close(S->Proc.Fd);
        S->Proc.Fd = -1;
        S->Proc.Pid = -1;
        int Sig, Code;
        WorkerFailure Fail = classifyStatus(Status, Sig, Code);
        noteDeathLocked(*S, &Fail);
      }
    }

    // 2. Heartbeat: PING idle workers that have been quiet for a full
    //    interval; a silent one is watchdog-killed. The slot is marked
    //    Busy while we probe so no request can race onto it.
    for (auto &S : Slots) {
      if (S->St != Slot::State::Idle)
        continue;
      auto Quiet = std::chrono::duration_cast<std::chrono::milliseconds>(
                       Clock::now() - S->LastSeen)
                       .count();
      if (Quiet < static_cast<long long>(Config.HeartbeatIntervalMs))
        continue;
      S->St = Slot::State::Busy;
      Lock.unlock();
      Request Ping;
      Ping.V = Verb::Ping;
      Response Pong;
      WorkerFailure Fail;
      int Sig, Code;
      bool Ok = exchange(*S, serializeRequest(Ping),
                         std::max(1u, Config.HeartbeatTimeoutMs), Pong, Fail,
                         Sig, Code);
      if (Ok)
        release(*S, /*Healthy=*/true);
      // On failure exchange() already retired the slot.
      Lock.lock();
      if (Stopping)
        break;
    }
    if (Stopping)
      break;

    // 3. Respawn dead slots whose backoff has elapsed.
    for (auto &S : Slots) {
      if (S->St != Slot::State::Dead || Clock::now() < S->NextSpawnAt)
        continue;
      Slot *Raw = S.get();
      bool WasSpawned = Raw->EverSpawned;
      Lock.unlock();
      WorkerProcess Fresh;
      std::string Error;
      bool Ok = spawnWorker(Config, Worker, Fresh, Error);
      Lock.lock();
      if (Stopping) {
        if (Ok) {
          ::close(Fresh.Fd);
          reapWithDeadline(Fresh.Pid, 0);
        }
        break;
      }
      if (Ok) {
        Raw->Proc = Fresh;
        Raw->St = Slot::State::Idle;
        Raw->EverSpawned = true;
        Raw->LastSeen = Clock::now();
        if (WasSpawned)
          Metrics.SandboxRespawns.fetch_add(1, std::memory_order_relaxed);
        IdleCv.notify_all();
      } else {
        noteDeathLocked(*Raw, nullptr); // still Dead: just back off again
      }
    }
  }
}

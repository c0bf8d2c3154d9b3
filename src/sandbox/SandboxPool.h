//===- SandboxPool.h - Supervised out-of-process worker pool ----*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parent half of process isolation: a pool of forked workers
/// (Worker.h) plus the supervisor that keeps them alive. One shard with
/// `isolation = process` owns one SandboxPool where it would otherwise
/// own a VectorizationService.
///
/// Request path (handle()): admission through the crash-loop breaker,
/// acquire an idle worker (waiting at most the request's deadline),
/// write the MVEC/1 request frame, and read the response with a
/// watchdog budget of deadline + heartbeat-timeout grace. Any deviation
/// — EOF, unparsable bytes, budget exhausted — kills the worker,
/// classifies the death from the wait status, quarantines the input,
/// feeds the breaker, and reports failure so the daemon can answer
/// degraded byte-exact passthrough. A worker serves exactly one request
/// at a time, so a response on its socket is unambiguously ours.
///
/// Supervisor thread: every heartbeat interval it reaps workers that
/// died while idle (external SIGKILL, OOM killer), PINGs idle workers
/// and SIGKILLs any that stay silent past the heartbeat timeout, and
/// respawns dead slots once their jittered backoff (slot failure streak
/// drives resilience::backoffDelay) has elapsed.
///
/// Metrics: the pool owns a ServiceMetrics registry — job counters are
/// mirrored from worker responses, and the Sandbox* counters record
/// supervision events — so the daemon's STATS document has the same
/// shape for both isolation modes.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_SANDBOX_SANDBOXPOOL_H
#define MVEC_SANDBOX_SANDBOXPOOL_H

#include "daemon/Protocol.h"
#include "resilience/CircuitBreaker.h"
#include "sandbox/Worker.h"
#include "service/ServiceMetrics.h"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mvec {
namespace sandbox {

class SandboxPool {
public:
  /// Spawns the initial workers (failures are retried by the
  /// supervisor, not fatal) and starts the supervisor thread.
  explicit SandboxPool(SandboxConfig Config);
  /// Closes every worker socket (EOF = clean exit), reaps with a grace
  /// period, SIGKILLs stragglers.
  ~SandboxPool();

  SandboxPool(const SandboxPool &) = delete;
  SandboxPool &operator=(const SandboxPool &) = delete;

  /// Serves one request through an isolated worker. \p Key is the
  /// request's content key (quarantine file name / backoff seed).
  /// Returns false with \p Why set when no worker could produce a
  /// response — worker death, watchdog kill, breaker open, or no idle
  /// worker within the deadline — in which case the caller degrades;
  /// the no-protocol-error invariant is its job, not ours.
  bool handle(const daemon::Request &R, uint64_t Key,
              daemon::Response &Out, std::string &Why);

  const SandboxConfig &config() const { return Config; }
  ServiceMetrics &metrics() { return Metrics; }
  const ServiceMetrics &metrics() const { return Metrics; }
  /// Pids of currently-live workers (for STATS and kill campaigns).
  std::vector<pid_t> workerPids() const;
  /// Live worker count (spawned and not yet known-dead).
  size_t liveWorkers() const;

private:
  struct Slot {
    WorkerProcess Proc;
    enum class State { Dead, Idle, Busy } St = State::Dead;
    /// Consecutive deaths without an intervening successful response;
    /// drives the respawn backoff.
    unsigned FailStreak = 0;
    std::chrono::steady_clock::time_point NextSpawnAt{};
    std::chrono::steady_clock::time_point LastSeen{};
    bool EverSpawned = false;
  };

  /// Waits up to \p Budget for an idle slot and marks it Busy. Null on
  /// timeout or shutdown.
  Slot *acquire(std::chrono::milliseconds Budget);
  void release(Slot &S, bool Healthy);
  /// One full request/response exchange on a Busy slot. On failure the
  /// slot's worker is dead (killed if need be) and classified.
  bool exchange(Slot &S, const std::string &Wire, unsigned BudgetMs,
                daemon::Response &Out, WorkerFailure &Fail, int &Signal,
                int &ExitCode);
  /// Kills (if alive), reaps, classifies, and marks the slot Dead.
  /// \p Forced names the failure when the parent initiated the kill.
  void retireWorker(Slot &S, const WorkerFailure *Forced, WorkerFailure &Fail,
                    int &Signal, int &ExitCode);
  /// Marks \p S Dead and schedules its respawn after a jittered backoff
  /// that grows with its fail streak; a worker death (\p Fail non-null)
  /// also counts as a watchdog kill or a crash. The caller holds Mutex.
  /// A failed respawn passes null: no worker died, the slot backs off.
  void noteDeathLocked(Slot &S, const WorkerFailure *Fail);
  void supervise();

  SandboxConfig Config;
  ServiceMetrics Metrics;
  CircuitBreaker Breaker;

  mutable std::mutex Mutex;
  std::condition_variable IdleCv;
  std::vector<std::unique_ptr<Slot>> Slots;
  bool Stopping = false;

  std::thread Supervisor;
};

} // namespace sandbox
} // namespace mvec

#endif // MVEC_SANDBOX_SANDBOXPOOL_H

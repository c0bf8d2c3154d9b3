//===- SandboxPool.h - Supervised out-of-process worker pool ----*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parent half of process isolation: a pool of forked workers
/// (Worker.h) plus the supervisor that keeps them alive. A shard with
/// `isolation = process` is one VectorizationService whose
/// ServiceConfig::ColdPath calls run() here, so the pool sees only cache
/// misses; memory and disk hits never touch a worker.
///
/// Miss path (run()): admission through the crash-loop breaker, acquire
/// an idle worker (waiting at most the job's deadline), write the MVEC/1
/// VEC frame, and read the reply with a watchdog budget of deadline +
/// heartbeat-timeout grace. Any deviation — EOF, unparsable bytes, a
/// succeeded reply whose result entry fails its checks, budget exhausted
/// — kills the worker, classifies the death from the wait status,
/// quarantines the input, feeds the breaker, and returns a degraded
/// passthrough result. A worker serves exactly one request at a time, so
/// a reply on its socket is unambiguously ours.
///
/// Supervisor thread: every heartbeat interval it reaps workers that
/// died while idle (external SIGKILL, OOM killer), PINGs idle workers
/// and SIGKILLs any that stay silent past the heartbeat timeout, and
/// respawns dead slots once their jittered backoff (slot failure streak
/// drives resilience::backoffDelay) has elapsed.
///
/// Metrics: supervision events go to the Sandbox* counters of the
/// registry the pool is given (the shard service's), so STATS shows one
/// set of metrics per shard. Job counters are the service's own.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_SANDBOX_SANDBOXPOOL_H
#define MVEC_SANDBOX_SANDBOXPOOL_H

#include "daemon/Protocol.h"
#include "resilience/CircuitBreaker.h"
#include "sandbox/Worker.h"
#include "service/VectorizationService.h"

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
  /// Spawns one worker per thread of \p Service (clamped >= 1; failures
  /// are retried by the supervisor, not fatal) and starts the supervisor
  /// thread. Each worker runs \p Service, the shard's config, with
  /// caching off: no memory cache, Store, Faults or ColdPath. \p Metrics
  /// receives the Sandbox* counters and must outlive the pool.
  SandboxPool(SandboxConfig Config, const ServiceConfig &Service,
              ServiceMetrics &Metrics);
  /// Closes every worker socket (EOF = clean exit), reaps with a grace
  /// period, SIGKILLs stragglers.
  ~SandboxPool();

  SandboxPool(const SandboxPool &) = delete;
  SandboxPool &operator=(const SandboxPool &) = delete;

  /// Runs one cache miss through an isolated worker and returns its
  /// result. When no worker could produce one — worker death, watchdog
  /// kill, breaker open, or no idle worker within the deadline — the
  /// result is a degraded passthrough: \p Spec's source byte for byte,
  /// ErrorClass::Resource, and a "degraded: <why>" message.
  JobResult run(const JobSpec &Spec);

  /// Pids of currently-live workers (for STATS and kill campaigns).
  std::vector<pid_t> workerPids() const;

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
  /// What each worker runs (see the constructor).
  ServiceConfig Worker;
  ServiceMetrics &Metrics;
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

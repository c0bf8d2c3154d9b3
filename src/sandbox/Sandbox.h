//===- Sandbox.h - Process-isolation types ----------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared types for `mvec::sandbox`, the daemon's crash-containment
/// layer. With `isolation = process`, a shard is still one
/// VectorizationService in the daemon process: its memory cache, the
/// DiskStore tier, cache keys and job metrics all stay there. Only a
/// cache miss, the part a hostile script can crash (parse, analysis,
/// codegen, the differential run), goes to a forked worker process
/// behind an AF_UNIX socketpair speaking the ordinary MVEC/1 frame
/// protocol. The parent's supervisor (SandboxPool) forwards those
/// misses, watches heartbeats, classifies deaths, quarantines
/// crash-inducing inputs, and respawns workers with jittered backoff. A
/// genuine SIGSEGV, OOM kill, or infinite loop then costs one worker
/// process, never the daemon.
///
/// Failure taxonomy (WorkerFailure): every way a worker can stop serving
/// is classified so metrics, quarantine headers, and logs agree on
/// vocabulary:
///
///   clean-exit        exited 0 (EOF from the parent)
///   exit-error        exited nonzero (unexpected; treated as a crash)
///   crash             died on a signal other than SIGKILL (SIGSEGV,
///                     SIGABRT from an assert or unhandled exception,
///                     SIGXCPU past RLIMIT_CPU, ...)
///   oom-kill          died on SIGKILL: the kernel OOM killer, or an
///                     operator/chaos campaign. Indistinguishable from
///                     the parent's side — both mean "gone, not my
///                     doing" — so they share a class.
///   watchdog-timeout  the parent SIGKILLed it: a request exceeded its
///                     deadline + grace, or an idle worker stopped
///                     answering PINGs
///   protocol-error    the worker wrote bytes that do not parse as a
///                     MVEC/1 response, or a succeeded reply whose
///                     result entry fails its checks (memory corruption
///                     survived long enough to babble); killed and
///                     respawned
///   spawn-failed      fork/socketpair failed; retried with backoff
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_SANDBOX_SANDBOX_H
#define MVEC_SANDBOX_SANDBOX_H

#include "resilience/Backoff.h"
#include "resilience/CircuitBreaker.h"

#include <cstddef>
#include <string>

namespace mvec {
namespace sandbox {

enum class WorkerFailure {
  CleanExit,
  ExitError,
  Crash,
  OomKill,
  WatchdogTimeout,
  ProtocolError,
  SpawnFailed,
};

const char *workerFailureName(WorkerFailure F);

/// How a shard's workers are contained and supervised. What they run
/// is the shard's ServiceConfig, handed to the SandboxPool beside this.
struct SandboxConfig {
  /// RLIMIT_AS per worker in MiB (0 = unlimited). Exhaustion surfaces as
  /// bad_alloc inside the worker (folded into a failed/degraded job
  /// result, or an abort if it strikes outside the service) — the
  /// kernel OOM killer path is SIGKILL and classified oom-kill.
  size_t MemoryLimitMB = 0;
  /// RLIMIT_CPU per worker in seconds, cumulative over the worker's
  /// lifetime (0 = unlimited). Exceeding it delivers SIGXCPU.
  unsigned CpuLimitSeconds = 0;
  /// How often the supervisor PINGs idle workers.
  unsigned HeartbeatIntervalMs = 250;
  /// An idle worker that does not answer a PING within this budget is
  /// SIGKILLed; also the grace added on top of a request's deadline
  /// before a busy worker is declared stuck.
  unsigned HeartbeatTimeoutMs = 2000;
  /// Where crash-inducing inputs are written (empty disables
  /// quarantine). See Quarantine.h for the file format.
  std::string QuarantineDir = "corpus/quarantine";
  /// The cost-profile path, recorded in quarantine headers only: the
  /// model itself reaches the workers loaded, as ServiceConfig::Cost.
  std::string CostProfile;
  /// Honor `%!sandbox-crash` / `%!sandbox-spin` / `%!sandbox-oom`
  /// markers in request bodies (crash-campaign hook; never set in
  /// production configurations).
  bool TestHooks = false;
  /// Backoff between respawn attempts of one worker slot; the retry
  /// number is the slot's consecutive-failure streak, so a crash-looping
  /// slot backs off exponentially while a one-off crash respawns almost
  /// immediately.
  RetryPolicy Respawn{/*MaxAttempts=*/3,
                      /*InitialBackoff=*/std::chrono::milliseconds(20),
                      /*Multiplier=*/2.0, /*Jitter=*/0.5,
                      /*MaxBackoff=*/std::chrono::milliseconds(2000)};
  /// Crash-loop breaker: consecutive worker deaths (8 by default) trip it
  /// Open and the pool answers misses with degraded passthrough, without
  /// touching a worker, until the cooldown (2 s) elapses.
  BreakerConfig CrashLoop;
};

} // namespace sandbox
} // namespace mvec

#endif // MVEC_SANDBOX_SANDBOX_H

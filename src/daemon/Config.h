//===- Config.h - mvecd configuration ---------------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's tunables and the trivial `key = value` file format they
/// are loaded from (and hot-reloaded from on SIGHUP or a CONFIG frame):
///
///   # mvecd.conf
///   shards = 4
///   workers_per_shard = 2
///   cache_capacity = 512
///   tenant_rate = 200
///   tenant_burst = 64
///
/// Reload semantics are defined by Daemon::reload(): QoS limits and
/// deadline apply instantly; the frame ceiling applies to the next
/// connection; shard/worker/cache-size/queue-depth/cost changes swap in
/// a fresh shard fleet while every in-flight job completes on the
/// old one (nothing is dropped).
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_DAEMON_CONFIG_H
#define MVEC_DAEMON_CONFIG_H

#include <cstddef>
#include <string>

namespace mvec {
struct FaultPlan;
namespace daemon {

struct DaemonConfig {
  /// Worker shards; a request's content key picks its shard (key % N), so
  /// identical scripts always land on the same shard's cache.
  unsigned Shards = 2;
  /// Vectorization workers per shard.
  unsigned WorkersPerShard = 2;
  /// In-memory result-cache entries per shard.
  size_t CacheCapacity = 512;
  /// In-flight requests per shard beyond which new arrivals are shed as
  /// degraded passthrough instead of queueing. Hot-reloadable; a change
  /// swaps in a fresh shard fleet, whose pool queues are sized from it.
  size_t MaxQueueDepth = 96;
  /// Disk-store directory (empty = memory tiers only, nothing survives a
  /// restart).
  std::string StoreDir;
  /// Disk-store soft byte budget (0 = unbounded).
  size_t StoreMaxBytes = size_t(256) << 20;
  /// Per-tenant admission rate, requests/second (0 = unlimited).
  double TenantRate = 0;
  /// Per-tenant burst ceiling.
  double TenantBurst = 64;
  /// Default per-request deadline in ms (0 = none).
  unsigned DeadlineMs = 10000;
  /// Profitability cost model: "off" vectorizes whenever legal, "on"
  /// consults the model (built-in conservative profile unless
  /// cost_profile names a calibrated costs.mvec.json). Hot-reloadable;
  /// a change swaps in a fresh shard fleet because the profile
  /// fingerprint salts every cache tier.
  std::string CostModel = "off";
  /// Path to a calibrated cost profile (empty = built-in defaults). A
  /// malformed or stale file falls back to the defaults with a logged
  /// diagnostic; it never prevents startup.
  std::string CostProfile;
  /// Where a shard's cache misses run: "inproc" in the daemon process
  /// (fastest); "process" in forked sandbox worker processes behind
  /// socketpairs (see src/sandbox/) so a worker crash, OOM kill, or wedge
  /// never takes the daemon down. Caches, the store and metrics stay in
  /// the daemon either way. Hot-reloadable; a change swaps in a fresh
  /// shard fleet.
  std::string Isolation = "inproc";
  /// RLIMIT_AS per sandbox worker in MiB (0 = unlimited; process
  /// isolation only).
  size_t WorkerMemoryMB = 512;
  /// RLIMIT_CPU per sandbox worker in seconds, cumulative over the
  /// worker's lifetime (0 = unlimited; process isolation only).
  unsigned WorkerCpuSeconds = 0;
  /// How often the sandbox supervisor PINGs idle workers.
  unsigned HeartbeatIntervalMs = 250;
  /// Silence budget before an idle worker is SIGKILLed; also the grace
  /// added to a request's deadline before a busy worker counts as stuck.
  unsigned HeartbeatTimeoutMs = 2000;
  /// Where crash-inducing inputs are quarantined (empty disables).
  std::string QuarantineDir = "corpus/quarantine";
  /// Honor %!sandbox-* crash markers in request bodies (crash-campaign
  /// hook; never enable in production).
  bool SandboxTestHooks = false;
  /// Transport frame-size ceiling: a request whose content-length
  /// exceeds this is answered 400 and disconnected before its body is
  /// buffered. The server reads it for each new connection, so a reload
  /// applies to connections accepted after it (not to those already
  /// open).
  size_t MaxFrameBytes = size_t(4) << 20;
  /// Fault-injection plan armed in every shard service (test hook; not
  /// settable from a config file). Must outlive the daemon.
  const FaultPlan *Faults = nullptr;
};

/// Parses `key = value` \p Text into \p Out (starting from \p Out's
/// current values, so a partial file only overrides what it names).
/// Returns false with \p Error set on an unknown key or a bad value; \p
/// Out is untouched on failure.
bool parseDaemonConfig(const std::string &Text, DaemonConfig &Out,
                       std::string &Error);

/// Reads \p Path and parses it. Returns false on I/O or parse errors.
bool loadDaemonConfigFile(const std::string &Path, DaemonConfig &Out,
                          std::string &Error);

/// The config rendered back in the file format (used as the CONFIG
/// response body, so a client can read back what is now in force).
std::string daemonConfigText(const DaemonConfig &Config);

} // namespace daemon
} // namespace mvec

#endif // MVEC_DAEMON_CONFIG_H

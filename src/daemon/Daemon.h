//===- Daemon.h - Sharded vectorization daemon core -------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport-independent heart of mvecd: N sharded
/// VectorizationService instances (each with its own memory cache) over
/// one shared persistent DiskStore, fronted by admission control.
///
/// Isolation: each shard is one service in both modes, so cache keys,
/// both cache tiers, job metrics and the responses built from them are
/// the same code. `isolation = process` only moves the shard's cache
/// misses into forked workers: the service's ColdPath hands them to the
/// shard's sandbox::SandboxPool, which runs the cold pipeline there and
/// answers degraded passthrough when a worker dies under it.
///
/// Sharding: a request's content key (the same FNV-1a key the caches use)
/// picks its shard as key % N, so repeated submissions of the same script
/// always land on the same shard and its warm cache — the shards never
/// duplicate cache entries for one script.
///
/// Admission: per-tenant token buckets first, then a per-shard in-flight
/// depth gate. A shed request is *served* — degraded passthrough, the
/// original body echoed back with a "degraded:" diagnostic — never
/// refused at the protocol level. Combined with the service layer's own
/// degradation, the daemon-wide invariant is: a well-formed VEC request
/// always yields a 200 whose body the client can run (vectorized on
/// success, byte-exact original otherwise).
///
/// Hot reload: reload() applies QoS limits and deadline instantly;
/// shard-count/worker/cache-size/queue-depth changes build a
/// fresh shard fleet and retire the old one only after its in-flight jobs
/// complete (the old services drain; nothing is dropped). The disk store
/// survives reloads, so the new fleet warms from it immediately.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_DAEMON_DAEMON_H
#define MVEC_DAEMON_DAEMON_H

#include "cost/CostModel.h"
#include "daemon/Config.h"
#include "daemon/DiskStore.h"
#include "daemon/Protocol.h"
#include "daemon/Qos.h"
#include "sandbox/SandboxPool.h"
#include "service/VectorizationService.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mvec {
namespace daemon {

class Daemon {
public:
  /// Boots the shard fleet and (when configured) opens the disk store.
  /// Throws std::runtime_error when the store directory is unusable.
  explicit Daemon(DaemonConfig Config);
  /// Drains every shard (all in-flight jobs complete) before returning.
  ~Daemon();

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Serves one parsed request. Never throws; any internal trouble folds
  /// into a degraded-passthrough response. Safe from many threads.
  Response handle(const Request &R);

  /// Applies \p New as described in the class comment. Blocks until any
  /// retired fleet has drained. Returns false (no changes applied) with
  /// \p Error set when the new store directory cannot be opened.
  bool reload(const DaemonConfig &New, std::string &Error);
  /// Parses \p ConfigText on top of the current config, then reload().
  bool reloadFromText(const std::string &ConfigText, std::string &Error);

  /// True after a SHUTDOWN request was served; the transport layer polls
  /// this to begin its drain.
  bool shutdownRequested() const {
    return ShutdownFlag.load(std::memory_order_relaxed);
  }

  DaemonConfig config() const;
  /// The daemon-level metrics document (one JSON object embedding each
  /// shard's ServiceMetrics dump) — the schema `mvec_load --stats` and the
  /// CI smoke job both read.
  std::string metricsJson() const;

  const DiskStore *store() const { return Store.get(); }
  unsigned shardCount() const;
  /// Live sandbox worker pids across every shard (empty with
  /// isolation=inproc). Kill campaigns aim here.
  std::vector<pid_t> workerPids() const;
  uint64_t shedQos() const { return ShedQos.load(std::memory_order_relaxed); }
  uint64_t shedQueue() const {
    return ShedQueue.load(std::memory_order_relaxed);
  }
  uint64_t reloads() const { return Reloads.load(std::memory_order_relaxed); }

private:
  struct Shard {
    std::unique_ptr<VectorizationService> Service;
    /// With isolation=process, the forked workers that run Service's
    /// cache misses (its ColdPath); null with isolation=inproc.
    std::unique_ptr<sandbox::SandboxPool> Sandbox;
    std::atomic<uint64_t> InFlight{0};
    std::atomic<uint64_t> Shed{0};
    /// Service and Sandbox use each other: misses call into the pool,
    /// and the pool's supervisor records into Service's metrics. So the
    /// service drains first (no miss is left in the pool), then the pool
    /// stops (Sandbox is declared last), then the service goes.
    ~Shard() {
      if (Service)
        Service->drain();
    }
  };
  struct Fleet {
    /// Cost model shared by every shard service of this fleet (null when
    /// cost_model = off). Declared before Shards so the services (which
    /// hold a raw pointer) are destroyed first.
    std::unique_ptr<cost::CostModel> Cost;
    std::vector<std::unique_ptr<Shard>> Shards;
    /// In-flight requests per shard beyond which arrivals are shed; the
    /// shards' pool queues are sized from it.
    size_t MaxQueueDepth = 0;
  };

  std::shared_ptr<Fleet> makeFleet(const DaemonConfig &C) const;
  std::shared_ptr<Fleet> fleetSnapshot() const;
  Response handleVec(const Request &R);
  Response degradedPassthrough(const Request &R, const std::string &Why,
                               unsigned ShardIdx) const;

  /// Guards Config and structural swaps (reload is serialized).
  mutable std::mutex ConfigMutex;
  DaemonConfig Config;
  /// Guards only the FleetPtr copy so handle() never waits on a reload.
  mutable std::mutex FleetMutex;
  std::shared_ptr<Fleet> FleetPtr;
  std::unique_ptr<DiskStore> Store;
  AdmissionController Qos;

  std::atomic<unsigned> DeadlineMs;
  std::atomic<bool> ShutdownFlag{false};

  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> VecRequests{0};
  std::atomic<uint64_t> ShedQos{0};
  std::atomic<uint64_t> ShedQueue{0};
  std::atomic<uint64_t> Reloads{0};
};

} // namespace daemon
} // namespace mvec

#endif // MVEC_DAEMON_DAEMON_H

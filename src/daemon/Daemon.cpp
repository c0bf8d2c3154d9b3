//===- Daemon.cpp - Sharded vectorization daemon core -----------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"

#include "interp/simd/SimdDispatch.h"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

using namespace mvec;
using namespace mvec::daemon;

Daemon::Daemon(DaemonConfig Config)
    : Config(Config), Qos(Config.TenantRate, Config.TenantBurst),
      DeadlineMs(Config.DeadlineMs) {
  if (!Config.StoreDir.empty())
    Store = std::make_unique<DiskStore>(
        DiskStoreConfig{Config.StoreDir, Config.StoreMaxBytes});
  FleetPtr = makeFleet(Config);
}

Daemon::~Daemon() {
  std::shared_ptr<Fleet> Old;
  {
    std::lock_guard<std::mutex> Lock(FleetMutex);
    Old = std::move(FleetPtr);
  }
  // Wait for every handler thread to let go of the fleet, then destroy
  // it — the service destructors drain their queues, so in-flight jobs
  // finish and every pending future resolves.
  while (Old.use_count() > 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

std::shared_ptr<Daemon::Fleet> Daemon::makeFleet(const DaemonConfig &C) const {
  auto F = std::make_shared<Fleet>();
  F->MaxQueueDepth = C.MaxQueueDepth;
  if (C.CostModel == "on") {
    std::string Diag;
    F->Cost = std::make_unique<cost::CostModel>(
        cost::loadCostProfileOrDefault(C.CostProfile, Diag));
    if (!Diag.empty())
      std::fprintf(stderr, "mvecd: %s\n", Diag.c_str());
  }
  bool Sandboxed = C.Isolation == "process";
  sandbox::SandboxConfig PC;
  PC.MemoryLimitMB = C.WorkerMemoryMB;
  PC.CpuLimitSeconds = C.WorkerCpuSeconds;
  PC.HeartbeatIntervalMs = C.HeartbeatIntervalMs;
  PC.HeartbeatTimeoutMs = C.HeartbeatTimeoutMs;
  PC.QuarantineDir = C.QuarantineDir;
  PC.CostProfile = C.CostProfile;
  PC.TestHooks = C.SandboxTestHooks;
  F->Shards.reserve(C.Shards);
  for (unsigned I = 0; I != C.Shards; ++I) {
    ServiceConfig SC;
    SC.Workers = C.WorkersPerShard;
    // The in-flight gate (MaxQueueDepth) fires before the pool queue can
    // fill, so submit() never blocks a protocol thread on back-pressure.
    SC.QueueCapacity = C.MaxQueueDepth + C.WorkersPerShard + 8;
    SC.CacheCapacity = C.CacheCapacity;
    SC.Store = Store.get();
    SC.Faults = C.Faults;
    SC.Engine = C.Engine == "vm" ? ExecEngine::Vm : ExecEngine::Ast;
    SC.Cost = F->Cost.get();
    auto S = std::make_unique<Shard>();
    // Isolation decides only where a miss runs: in a forked worker of
    // this shard's pool, which exists by the time the first job does.
    if (Sandboxed)
      SC.ColdPath = [&Pool = S->Sandbox](const JobSpec &Spec) {
        return Pool->run(Spec);
      };
    S->Service = std::make_unique<VectorizationService>(SC);
    if (Sandboxed)
      S->Sandbox = std::make_unique<sandbox::SandboxPool>(
          PC, SC, S->Service->metrics());
    F->Shards.push_back(std::move(S));
  }
  return F;
}

std::shared_ptr<Daemon::Fleet> Daemon::fleetSnapshot() const {
  std::lock_guard<std::mutex> Lock(FleetMutex);
  return FleetPtr;
}

unsigned Daemon::shardCount() const {
  auto F = fleetSnapshot();
  return F ? static_cast<unsigned>(F->Shards.size()) : 0;
}

std::vector<pid_t> Daemon::workerPids() const {
  std::vector<pid_t> Out;
  auto F = fleetSnapshot();
  if (!F)
    return Out;
  for (const auto &S : F->Shards) {
    if (!S->Sandbox)
      continue;
    std::vector<pid_t> Pids = S->Sandbox->workerPids();
    Out.insert(Out.end(), Pids.begin(), Pids.end());
  }
  return Out;
}

DaemonConfig Daemon::config() const {
  std::lock_guard<std::mutex> Lock(ConfigMutex);
  return Config;
}

Response Daemon::degradedPassthrough(const Request &R,
                                     const std::string &Why,
                                     unsigned ShardIdx) const {
  Response Resp;
  Resp.Status = jobStatusName(JobStatus::Degraded);
  Resp.ErrorClass = errorClassName(ErrorClass::Resource);
  Resp.Shard = ShardIdx;
  Resp.Message = "degraded: " + Why;
  Resp.Body = R.Body; // Byte-exact: the client can always run this.
  return Resp;
}

Response Daemon::handle(const Request &R) {
  Requests.fetch_add(1, std::memory_order_relaxed);
  try {
    switch (R.V) {
    case Verb::Ping: {
      Response Resp;
      Resp.Message = "pong";
      return Resp;
    }
    case Verb::Stats: {
      Response Resp;
      Resp.Body = metricsJson();
      return Resp;
    }
    case Verb::Config: {
      Response Resp;
      std::string Error;
      if (reloadFromText(R.Body, Error)) {
        Resp.Message = "config applied";
        Resp.Body = daemonConfigText(config());
      } else {
        // A config the daemon cannot apply is the client's problem, not a
        // protocol error: report it as a failed job-level outcome.
        Resp.Status = jobStatusName(JobStatus::Failed);
        Resp.ErrorClass = errorClassName(ErrorClass::Input);
        Resp.Message = Error;
      }
      return Resp;
    }
    case Verb::Shutdown: {
      ShutdownFlag.store(true, std::memory_order_relaxed);
      Response Resp;
      Resp.Message = "draining";
      return Resp;
    }
    case Verb::Vec:
      return handleVec(R);
    }
    Response Resp;
    return Resp;
  } catch (const std::exception &E) {
    return degradedPassthrough(R, std::string("internal daemon error: ") +
                                      E.what(),
                               0);
  } catch (...) {
    return degradedPassthrough(R, "internal daemon error", 0);
  }
}

Response Daemon::handleVec(const Request &R) {
  VecRequests.fetch_add(1, std::memory_order_relaxed);

  // Tenant admission first: a rate-limited tenant must not even consume
  // a shard slot.
  if (!Qos.admit(R.Tenant, std::chrono::steady_clock::now())) {
    ShedQos.fetch_add(1, std::memory_order_relaxed);
    return degradedPassthrough(
        R, "tenant '" + R.Tenant + "' over rate limit, load shed", 0);
  }

  JobSpec Spec;
  Spec.Name = R.Name.empty() ? "request" : R.Name;
  Spec.Source = R.Body;
  Spec.Validate = R.Validate;
  unsigned ResolvedDeadline =
      R.DeadlineMs != 0 ? R.DeadlineMs
                        : DeadlineMs.load(std::memory_order_relaxed);
  Spec.Deadline = std::chrono::milliseconds(ResolvedDeadline);

  std::shared_ptr<Fleet> F = fleetSnapshot();
  uint64_t Key = cacheKeyFor(Spec);
  auto ShardIdx = static_cast<unsigned>(Key % F->Shards.size());
  Shard &S = *F->Shards[ShardIdx];

  // Queue-depth gate: beyond the limit the shard is drowning; shedding
  // with a runnable body beats queueing into a deadline miss.
  uint64_t Depth = S.InFlight.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Depth > F->MaxQueueDepth) {
    S.InFlight.fetch_sub(1, std::memory_order_relaxed);
    S.Shed.fetch_add(1, std::memory_order_relaxed);
    ShedQueue.fetch_add(1, std::memory_order_relaxed);
    return degradedPassthrough(R,
                               "shard " + std::to_string(ShardIdx) +
                                   " queue full, load shed",
                               ShardIdx);
  }

  JobResult Result;
  try {
    Result = S.Service->submit(std::move(Spec)).get();
  } catch (...) {
    S.InFlight.fetch_sub(1, std::memory_order_relaxed);
    return degradedPassthrough(R, "internal daemon error during submit",
                               ShardIdx);
  }
  S.InFlight.fetch_sub(1, std::memory_order_relaxed);

  Response Resp;
  Resp.Status = jobStatusName(Result.Status);
  Resp.ErrorClass = errorClassName(Result.Class);
  Resp.CacheTier =
      Result.DiskHit ? "disk" : (Result.CacheHit ? "memory" : "none");
  Resp.Attempts = Result.Attempts;
  Resp.Shard = ShardIdx;
  Resp.Message = Result.Message;
  Resp.Body = std::move(Result.VectorizedSource);
  return Resp;
}

bool Daemon::reload(const DaemonConfig &New, std::string &Error) {
  std::lock_guard<std::mutex> Lock(ConfigMutex);

  DaemonConfig Applied = New;
  // The fault plan is a constructor-time test hook, never reloadable.
  Applied.Faults = Config.Faults;

  bool StoreChanged = Applied.StoreDir != Config.StoreDir ||
                      Applied.StoreMaxBytes != Config.StoreMaxBytes;
  bool FleetChanged = StoreChanged || Applied.Shards != Config.Shards ||
                      Applied.WorkersPerShard != Config.WorkersPerShard ||
                      Applied.CacheCapacity != Config.CacheCapacity ||
                      // Each shard's pool queue is sized from the depth.
                      Applied.MaxQueueDepth != Config.MaxQueueDepth ||
                      // Each shard's service validates on one engine,
                      // and the engine salts every result-cache key.
                      Applied.Engine != Config.Engine ||
                      // A cost-model change re-fingerprints every cache
                      // key, so the memory tiers must be rebuilt anyway.
                      Applied.CostModel != Config.CostModel ||
                      Applied.CostProfile != Config.CostProfile ||
                      // Isolation and the sandbox knobs are baked into
                      // the worker processes at spawn time.
                      Applied.Isolation != Config.Isolation ||
                      Applied.WorkerMemoryMB != Config.WorkerMemoryMB ||
                      Applied.WorkerCpuSeconds != Config.WorkerCpuSeconds ||
                      Applied.HeartbeatIntervalMs !=
                          Config.HeartbeatIntervalMs ||
                      Applied.HeartbeatTimeoutMs != Config.HeartbeatTimeoutMs ||
                      Applied.QuarantineDir != Config.QuarantineDir ||
                      Applied.SandboxTestHooks != Config.SandboxTestHooks;

  if (FleetChanged) {
    // The old store must outlive the old fleet (its services hold a raw
    // pointer), so it is parked here and destroyed last.
    std::unique_ptr<DiskStore> Retired;
    if (StoreChanged) {
      std::unique_ptr<DiskStore> NewStore;
      if (!Applied.StoreDir.empty()) {
        try {
          NewStore = std::make_unique<DiskStore>(
              DiskStoreConfig{Applied.StoreDir, Applied.StoreMaxBytes});
        } catch (const std::exception &E) {
          Error = E.what();
          return false;
        }
      }
      Retired = std::move(Store);
      Store = std::move(NewStore);
    }

    // Build the replacement fleet against the (possibly new) store, swap
    // it in, and only then wait out the old one: new requests go to the
    // new shards immediately while in-flight jobs finish where they are.
    std::shared_ptr<Fleet> Old;
    try {
      std::shared_ptr<Fleet> Fresh = makeFleet(Applied);
      std::lock_guard<std::mutex> FLock(FleetMutex);
      Old = std::move(FleetPtr);
      FleetPtr = std::move(Fresh);
    } catch (...) {
      if (StoreChanged)
        Store = std::move(Retired);
      Error = "failed to build the new shard fleet";
      return false;
    }
    while (Old.use_count() > 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Old.reset(); // Drains the old services; their jobs all complete.
    // Retired (the old store) dies at this scope's end, after its users.
  }

  // Fast knobs apply last so a failed fleet rebuild leaves everything
  // untouched.
  Qos.setLimits(Applied.TenantRate, Applied.TenantBurst);
  DeadlineMs.store(Applied.DeadlineMs, std::memory_order_relaxed);

  Config = Applied;
  Reloads.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Daemon::reloadFromText(const std::string &ConfigText,
                            std::string &Error) {
  DaemonConfig New = config();
  if (!parseDaemonConfig(ConfigText, New, Error))
    return false;
  return reload(New, Error);
}

std::string Daemon::metricsJson() const {
  std::shared_ptr<Fleet> F = fleetSnapshot();
  std::ostringstream Out;
  Out << "{\"daemon\":{\"requests\":"
      << Requests.load(std::memory_order_relaxed)
      << ",\"vec_requests\":" << VecRequests.load(std::memory_order_relaxed)
      << ",\"shed_qos\":" << ShedQos.load(std::memory_order_relaxed)
      << ",\"shed_queue\":" << ShedQueue.load(std::memory_order_relaxed)
      << ",\"reloads\":" << Reloads.load(std::memory_order_relaxed)
      << ",\"isolation\":\"" << config().Isolation << "\""
      // One kernel table per process: the active ISA is daemon-wide, so
      // STATS surfaces it once at the top level (per-shard metrics repeat
      // the shared dispatch counters).
      << ",\"simd_isa\":\"" << simd::levelName(simd::activeLevel()) << "\""
      << ",\"disk_store\":";
  if (Store) {
    Out << "{\"configured\":true,\"hits\":" << Store->hits()
        << ",\"misses\":" << Store->misses() << ",\"puts\":" << Store->puts()
        << ",\"corrupt_dropped\":" << Store->corruptDropped()
        << ",\"entries\":" << Store->entries()
        << ",\"payload_bytes\":" << Store->payloadBytes() << "}";
  } else {
    Out << "{\"configured\":false}";
  }
  Out << ",\"tenants\":[";
  std::vector<TenantStats> Tenants = Qos.snapshot();
  for (size_t I = 0; I != Tenants.size(); ++I) {
    Out << (I ? "," : "") << "{\"tenant\":\"" << Tenants[I].Tenant
        << "\",\"admitted\":" << Tenants[I].Admitted
        << ",\"shed\":" << Tenants[I].Shed << "}";
  }
  Out << "],\"shards\":[";
  if (F) {
    for (size_t I = 0; I != F->Shards.size(); ++I) {
      const Shard &S = *F->Shards[I];
      Out << (I ? "," : "") << "{\"shard\":" << I << ",\"queue_depth\":"
          << S.InFlight.load(std::memory_order_relaxed)
          << ",\"shed_queue\":" << S.Shed.load(std::memory_order_relaxed);
      if (S.Sandbox) {
        std::vector<pid_t> Pids = S.Sandbox->workerPids();
        Out << ",\"worker_pids\":[";
        for (size_t P = 0; P != Pids.size(); ++P)
          Out << (P ? "," : "") << Pids[P];
        Out << "]";
      }
      Out << ",\"metrics\":" << S.Service->metrics().json() << "}";
    }
  }
  Out << "]}}";
  return Out.str();
}

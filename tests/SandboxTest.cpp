//===- SandboxTest.cpp - Process-isolation sandbox tests ---------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers src/sandbox: forked workers running cache misses over
/// socketpairs, the supervisor's failure taxonomy (crash, OOM kill,
/// watchdog timeout, external SIGKILL), respawn with backoff, the
/// crash-loop breaker, input quarantine with reproducer headers, and the
/// daemon's isolation=process shards: caches and store in the
/// supervisor, disk-store crash safety under worker kills, store entries
/// shared across isolation modes, hot reload between the modes, and the
/// shared EINTR/partial-I/O helpers in support/Io.h.
///
/// Crash inputs are injected with the `%!sandbox-*` test hooks (see
/// Worker.cpp), which only exist when SandboxConfig::TestHooks is set.
///
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"
#include "daemon/DiskStore.h"
#include "sandbox/Quarantine.h"
#include "sandbox/SandboxPool.h"
#include "support/ContentHash.h"
#include "support/Io.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <thread>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace mvec;
using namespace mvec::sandbox;

namespace {

namespace fs = std::filesystem;

class ScratchDir {
public:
  explicit ScratchDir(const std::string &Tag) {
    Dir = fs::temp_directory_path() /
          ("mvec_sandbox_test_" + Tag + "_" + std::to_string(::getpid()));
    fs::remove_all(Dir);
    fs::create_directories(Dir);
  }
  ~ScratchDir() {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
  std::string path() const { return Dir.string(); }

private:
  fs::path Dir;
};

/// A small annotated script that genuinely vectorizes; \p Tag makes
/// distinct content keys.
std::string script(int Tag) {
  return "% s" + std::to_string(Tag) +
         "\nn = 8; x = rand(1,n); z = zeros(1,n);\n"
         "%! x(1,*) z(1,*) n(1)\n"
         "for i=1:n\n  z(i) = 3*x(i);\nend\n";
}

daemon::Request vecRequest(const std::string &Body) {
  daemon::Request R;
  R.V = daemon::Verb::Vec;
  R.Name = "sandbox-test.m";
  R.Body = Body;
  return R;
}

JobSpec vecSpec(const std::string &Body, unsigned DeadlineMs = 10000) {
  JobSpec S;
  S.Name = "sandbox-test.m";
  S.Source = Body;
  S.Deadline = std::chrono::milliseconds(DeadlineMs);
  return S;
}

/// A pool config sized for tests: fast heartbeats, fast respawn, a
/// scratch quarantine directory, test hooks armed.
SandboxConfig testConfig(const std::string &QuarantineDir) {
  SandboxConfig C;
  C.HeartbeatIntervalMs = 50;
  C.HeartbeatTimeoutMs = 1000;
  C.QuarantineDir = QuarantineDir;
  C.TestHooks = true;
  C.Respawn = RetryPolicy{3, std::chrono::milliseconds(10), 2.0, 0.5,
                          std::chrono::milliseconds(200)};
  return C;
}

/// A one-thread service config: a pool built from it has one worker.
ServiceConfig oneWorker() {
  ServiceConfig S;
  S.Workers = 1;
  return S;
}

/// A pool that records into its own registry (in the daemon, the shard
/// service's).
struct TestPool {
  ServiceMetrics Metrics;
  SandboxPool Pool;
  explicit TestPool(SandboxConfig C,
                    const ServiceConfig &Service = oneWorker())
      : Pool(std::move(C), Service, Metrics) {}
};

/// Polls \p Pred for up to \p BudgetMs.
bool eventually(unsigned BudgetMs, const std::function<bool()> &Pred) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(BudgetMs);
  while (std::chrono::steady_clock::now() < Deadline) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return Pred();
}

/// Retries a valid job until one succeeds (the pool may be mid-respawn
/// or half-open).
bool eventuallyServes(SandboxPool &Pool, const std::string &Body,
                      unsigned BudgetMs) {
  return eventually(BudgetMs,
                    [&] { return Pool.run(vecSpec(Body)).succeeded(); });
}

//===----------------------------------------------------------------------===//
// support/Io helpers
//===----------------------------------------------------------------------===//

TEST(Io, SendFullAndRecvSomeRoundTripOverSocketpair) {
  int Sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  std::string Msg(100000, 'a'); // Bigger than one socket buffer.
  std::thread Writer([&] {
    EXPECT_TRUE(io::sendFull(Sv[0], Msg.data(), Msg.size(), 5000));
    ::close(Sv[0]);
  });
  std::string Got;
  char Buf[4096];
  ssize_t N;
  while ((N = io::recvSome(Sv[1], Buf, sizeof(Buf))) > 0)
    Got.append(Buf, static_cast<size_t>(N));
  Writer.join();
  ::close(Sv[1]);
  EXPECT_EQ(Got, Msg);
}

TEST(Io, SendFullHonorsItsBudgetAgainstAStalledPeer) {
  int Sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  // Nobody reads Sv[1]: the send must fill the buffers, stall, and give
  // up within (roughly) its budget instead of blocking forever.
  std::string Big(8 << 20, 'b');
  auto T0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(io::sendFull(Sv[0], Big.data(), Big.size(), 200));
  auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - T0)
                     .count();
  EXPECT_LT(Elapsed, 5000) << "the budget must bound the stall";
  ::close(Sv[0]);
  ::close(Sv[1]);
}

TEST(Io, PollForTimesOutAndSeesReadiness) {
  int Sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  EXPECT_EQ(io::pollFor(Sv[1], POLLIN, 50), 0) << "nothing to read yet";
  ASSERT_EQ(::send(Sv[0], "x", 1, 0), 1);
  EXPECT_GT(io::pollFor(Sv[1], POLLIN, 1000), 0);
  ::close(Sv[0]);
  ::close(Sv[1]);
}

//===----------------------------------------------------------------------===//
// SandboxPool: the happy path
//===----------------------------------------------------------------------===//

TEST(SandboxPool, ServesVecThroughAForkedWorker) {
  ScratchDir Quarantine("happy");
  TestPool T(testConfig(Quarantine.path()));
  SandboxPool &Pool = T.Pool;
  ASSERT_TRUE(eventually(3000, [&] { return Pool.workerPids().size() == 1; }));
  std::vector<pid_t> Pids = Pool.workerPids();
  ASSERT_EQ(Pids.size(), 1u);
  EXPECT_NE(Pids[0], ::getpid()) << "the worker is a separate process";

  // The reply carries everything the store persists: the result equals
  // an in-process run's, VectorizeStats included.
  std::string Body = script(1);
  JobResult R = Pool.run(vecSpec(Body));
  ASSERT_TRUE(R.succeeded()) << R.Message;
  EXPECT_EQ(R.Name, "sandbox-test.m");
  EXPECT_FALSE(R.CacheHit) << "a worker has no cache to hit";
  VectorizationService Local(oneWorker());
  JobResult Want = Local.submit(vecSpec(Body)).get();
  ASSERT_TRUE(Want.succeeded());
  EXPECT_GT(R.Stats.LoopNestsImproved, 0u);
  EXPECT_EQ(daemon::encodeResultEntry(R), daemon::encodeResultEntry(Want));
  EXPECT_EQ(T.Metrics.SandboxCrashes.load(), 0u);
}

//===----------------------------------------------------------------------===//
// Crash containment + quarantine
//===----------------------------------------------------------------------===//

TEST(SandboxPool, CrashIsContainedQuarantinedAndClassified) {
  ScratchDir Quarantine("crash");
  TestPool T(testConfig(Quarantine.path()));
  SandboxPool &Pool = T.Pool;
  ASSERT_TRUE(eventually(3000, [&] { return Pool.workerPids().size() == 1; }));

  std::string Body = "%!sandbox-crash\n% reproducer body\nx = 1;\n";
  uint64_t Key = cacheKeyFor(vecSpec(Body));
  JobResult R = Pool.run(vecSpec(Body));
  EXPECT_EQ(R.Status, JobStatus::Degraded);
  EXPECT_EQ(R.VectorizedSource, Body) << "byte-exact passthrough";
  EXPECT_NE(R.Message.find("crash"), std::string::npos) << R.Message;
  EXPECT_EQ(T.Metrics.SandboxCrashes.load(), 1u);
  EXPECT_EQ(T.Metrics.SandboxQuarantined.load(), 1u);

  // The reproducer file: a loadable MATLAB script whose comment header
  // records everything needed to replay the crash.
  std::string Path = quarantinePath(Quarantine.path(), Key);
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << Path;
  std::string All((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(All.rfind("% mvec-quarantine v1\n", 0), 0u) << All;
  EXPECT_NE(All.find("% key: " + contentHexKey(Key)), std::string::npos);
  EXPECT_NE(All.find("% cause: crash"), std::string::npos) << All;
  EXPECT_NE(All.find("% signal: " + std::to_string(SIGABRT)),
            std::string::npos)
      << All;
  EXPECT_EQ(All.find("% engine:"), std::string::npos) << All;
  EXPECT_NE(All.find("% isa: "), std::string::npos);
  EXPECT_EQ(All.substr(All.size() - Body.size()), Body)
      << "the body must be stored verbatim";

  // First reproducer wins: the same input crashing again neither
  // rewrites the file nor double-counts.
  ASSERT_TRUE(eventually(5000, [&] { return Pool.workerPids().size() == 1; }));
  EXPECT_EQ(Pool.run(vecSpec(Body)).Status, JobStatus::Degraded);
  EXPECT_EQ(T.Metrics.SandboxQuarantined.load(), 1u);
  size_t Files = 0;
  for (const auto &E : fs::directory_iterator(Quarantine.path()))
    Files += E.path().extension() == ".m";
  EXPECT_EQ(Files, 1u) << "quarantined counter must match the file count";
}

TEST(SandboxPool, WorkerRespawnsAfterCrashAndKeepsServing) {
  ScratchDir Quarantine("respawn");
  TestPool T(testConfig(Quarantine.path()));
  SandboxPool &Pool = T.Pool;
  ASSERT_TRUE(eventually(3000, [&] { return Pool.workerPids().size() == 1; }));
  pid_t Before = Pool.workerPids()[0];

  EXPECT_EQ(Pool.run(vecSpec("%!sandbox-crash\nx = 1;\n")).Status,
            JobStatus::Degraded);

  EXPECT_TRUE(eventuallyServes(Pool, script(2), 5000))
      << "the pool must recover after the crash";
  EXPECT_GE(T.Metrics.SandboxRespawns.load(), 1u);
  ASSERT_EQ(Pool.workerPids().size(), 1u);
  EXPECT_NE(Pool.workerPids()[0], Before) << "a fresh process, not a zombie";
}

TEST(SandboxPool, OomKilledWorkerIsContainedAndClassified) {
  ScratchDir Quarantine("oom");
  SandboxConfig C = testConfig(Quarantine.path());
  C.MemoryLimitMB = 256; // Keep the hook's doomed allocation spree small.
  TestPool T(C);
  SandboxPool &Pool = T.Pool;
  ASSERT_TRUE(eventually(3000, [&] { return Pool.workerPids().size() == 1; }));

  std::string Body = "%!sandbox-oom\nx = 1;\n";
  JobResult R = Pool.run(vecSpec(Body));
  EXPECT_NE(R.Message.find("oom-kill"), std::string::npos) << R.Message;
  std::ifstream In(
      quarantinePath(Quarantine.path(), cacheKeyFor(vecSpec(Body))));
  std::string All((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(All.find("% cause: oom-kill"), std::string::npos) << All;
}

TEST(SandboxPool, WatchdogKillsAWedgedWorker) {
  ScratchDir Quarantine("wedge");
  SandboxConfig C = testConfig(Quarantine.path());
  C.HeartbeatTimeoutMs = 300; // Short grace: the test stays fast.
  TestPool T(C);
  SandboxPool &Pool = T.Pool;
  ASSERT_TRUE(eventually(3000, [&] { return Pool.workerPids().size() == 1; }));

  auto T0 = std::chrono::steady_clock::now();
  JobResult R = Pool.run(vecSpec("%!sandbox-spin\nx = 1;\n", 200));
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
  EXPECT_NE(R.Message.find("watchdog-timeout"), std::string::npos)
      << R.Message;
  EXPECT_EQ(T.Metrics.SandboxWatchdogKills.load(), 1u);
  EXPECT_LT(Ms, 5000) << "deadline + grace bounds the watchdog kill";
}

TEST(SandboxPool, ExternalSigkillOfIdleWorkerIsReapedAndRespawned) {
  ScratchDir Quarantine("extkill");
  TestPool T(testConfig(Quarantine.path()));
  SandboxPool &Pool = T.Pool;
  ASSERT_TRUE(eventually(3000, [&] { return Pool.workerPids().size() == 1; }));
  pid_t Victim = Pool.workerPids()[0];
  ASSERT_EQ(::kill(Victim, SIGKILL), 0);

  // The supervisor notices on its own (no request traffic needed),
  // counts the death, and respawns the slot.
  EXPECT_TRUE(eventually(5000, [&] {
    std::vector<pid_t> Pids = Pool.workerPids();
    return T.Metrics.SandboxCrashes.load() >= 1 && Pids.size() == 1 &&
           Pids[0] != Victim;
  }));
  EXPECT_GE(T.Metrics.SandboxRespawns.load(), 1u);
  EXPECT_TRUE(eventuallyServes(Pool, script(3), 5000));
}

TEST(SandboxPool, CrashLoopBreakerShedsThenRecovers) {
  ScratchDir Quarantine("breaker");
  SandboxConfig C = testConfig(Quarantine.path());
  C.CrashLoop = BreakerConfig{/*FailureThreshold=*/2,
                              /*Cooldown=*/std::chrono::milliseconds(300),
                              /*HalfOpenProbes=*/1};
  TestPool T(C);
  SandboxPool &Pool = T.Pool;
  ASSERT_TRUE(eventually(3000, [&] { return Pool.workerPids().size() == 1; }));

  for (int I = 0; I != 2; ++I) {
    std::string Crash = "%!sandbox-crash\n% round " + std::to_string(I) +
                        "\nx = 1;\n";
    ASSERT_TRUE(
        eventually(5000, [&] { return Pool.workerPids().size() == 1; }));
    EXPECT_EQ(Pool.run(vecSpec(Crash)).Status, JobStatus::Degraded);
  }
  // Two consecutive worker deaths tripped the breaker: misses are now
  // shed without touching a worker.
  std::string Valid = script(4);
  JobResult Shed = Pool.run(vecSpec(Valid));
  EXPECT_EQ(Shed.Status, JobStatus::Degraded);
  EXPECT_NE(Shed.Message.find("breaker"), std::string::npos) << Shed.Message;
  EXPECT_GE(T.Metrics.SandboxBreakerShed.load(), 1u);

  // After the cooldown a half-open probe goes through, succeeds, and
  // closes the breaker again.
  EXPECT_TRUE(eventuallyServes(Pool, Valid, 8000));
}

//===----------------------------------------------------------------------===//
// Daemon integration: isolation=process end to end + hot reload
//===----------------------------------------------------------------------===//

/// A one-shard daemon config for \p Isolation with fast heartbeats and
/// no worker RLIMIT_AS: a sanitizer's shadow memory does not fit under
/// the default limit, and the pool-level OOM test covers the limit.
daemon::DaemonConfig daemonConfig(const std::string &Isolation,
                                  const std::string &QuarantineDir,
                                  unsigned Workers = 1) {
  daemon::DaemonConfig C;
  C.Shards = 1;
  C.WorkersPerShard = Workers;
  C.WorkerMemoryMB = 0;
  C.Isolation = Isolation;
  C.SandboxTestHooks = true;
  C.QuarantineDir = QuarantineDir;
  C.HeartbeatIntervalMs = 50;
  return C;
}

TEST(DaemonSandbox, ProcessIsolationServesAndDegradesOnCrash) {
  ScratchDir Quarantine("daemonq");
  daemon::Daemon D(daemonConfig("process", Quarantine.path()));

  ASSERT_TRUE(eventually(3000, [&] { return !D.workerPids().empty(); }));

  daemon::Response Good = D.handle(vecRequest(script(5)));
  EXPECT_EQ(Good.Code, 200);
  EXPECT_EQ(Good.Status, "succeeded");

  // A crash-inducing input costs one worker; the client still gets the
  // no-protocol-error contract: 200, degraded, byte-exact passthrough.
  std::string Crash = "%!sandbox-crash\nx = 1;\n";
  daemon::Response Bad = D.handle(vecRequest(Crash));
  EXPECT_EQ(Bad.Code, 200);
  EXPECT_EQ(Bad.Status, "degraded");
  EXPECT_EQ(Bad.Body, Crash) << "byte-exact passthrough";

  std::string Json = D.metricsJson();
  EXPECT_NE(Json.find("\"isolation\":\"process\""), std::string::npos);
  EXPECT_NE(Json.find("\"worker_pids\":["), std::string::npos);
  EXPECT_NE(Json.find("\"sandbox\":{\"crashes\":1,"), std::string::npos)
      << Json;
}

// The shard's memory cache lives in the supervisor: a repeat is served
// there even when every worker has just been killed.
TEST(DaemonSandbox, MemoryHitNeedsNoWorker) {
  ScratchDir Quarantine("memhitq");
  daemon::DaemonConfig C = daemonConfig("process", Quarantine.path(), 2);
  C.HeartbeatIntervalMs = 60000; // Nobody reaps or respawns in between.
  daemon::Daemon D(C);
  ASSERT_TRUE(eventually(3000, [&] { return D.workerPids().size() == 2; }));
  ASSERT_EQ(D.handle(vecRequest(script(8))).Status, "succeeded");

  for (pid_t P : D.workerPids())
    ASSERT_EQ(::kill(P, SIGKILL), 0);
  daemon::Response Hit = D.handle(vecRequest(script(8)));
  EXPECT_EQ(Hit.Status, "succeeded") << Hit.Message;
  EXPECT_EQ(Hit.CacheTier, "memory");
}

// deadline_ms is a fast knob: a reload does not rebuild the fleet, so
// the workers must take each job's deadline from the job alone. A
// reload to 0 (no deadline) once left process mode timing out at the
// boot value.
TEST(DaemonSandbox, HotReloadedZeroDeadlineReachesTheWorker) {
  ScratchDir Quarantine("deadlineq");
  daemon::DaemonConfig C = daemonConfig("process", Quarantine.path());
  C.DeadlineMs = 50;
  daemon::Daemon D(C);
  ASSERT_TRUE(eventually(3000, [&] { return !D.workerPids().empty(); }));

  daemon::DaemonConfig New = D.config();
  New.DeadlineMs = 0;
  std::string Error;
  ASSERT_TRUE(D.reload(New, Error)) << Error;
  // Well past 50 ms in any build: two interpreted runs of 3M iterations.
  std::string Slow = "s = 0;\nfor i=1:3000000\n  s = s + 1;\nend\n";
  daemon::Response R = D.handle(vecRequest(Slow));
  EXPECT_EQ(R.Status, "succeeded") << R.Message;
}

// One entry format and one store handle for both modes: entries written
// under one isolation are disk hits under the other, and a sandboxed
// miss writes the very bytes an in-process miss does.
TEST(DaemonSandbox, StoreEntriesAreTheSameUnderBothIsolations) {
  ScratchDir Quarantine("storeq");
  ScratchDir InprocStore("store_inproc");
  ScratchDir ProcessStore("store_process");
  auto Boot = [&](const std::string &Isolation, const ScratchDir &Store) {
    daemon::DaemonConfig C = daemonConfig(Isolation, Quarantine.path());
    C.StoreDir = Store.path();
    return std::make_unique<daemon::Daemon>(C);
  };
  std::vector<std::string> Scripts = {script(20), script(21)};
  for (const ScratchDir *Store : {&InprocStore, &ProcessStore}) {
    auto D = Boot(Store == &InprocStore ? "inproc" : "process", *Store);
    for (const std::string &S : Scripts) {
      daemon::Response R = D->handle(vecRequest(S));
      ASSERT_EQ(R.Status, "succeeded") << R.Message;
      EXPECT_EQ(R.CacheTier, "none");
    }
    EXPECT_EQ(D->store()->puts(), Scripts.size())
        << "the supervisor's store handle sees every write";
    EXPECT_NE(D->metricsJson().find("\"puts\":2,"), std::string::npos);
  }

  // Byte-identical entries, file for file.
  auto Entries = [](const ScratchDir &Store) {
    std::map<std::string, std::string> Out;
    for (const auto &E : fs::recursive_directory_iterator(Store.path())) {
      if (E.path().extension() != ".mvr")
        continue;
      std::ifstream In(E.path(), std::ios::binary);
      Out[E.path().filename().string()] =
          std::string(std::istreambuf_iterator<char>(In), {});
    }
    return Out;
  };
  EXPECT_EQ(Entries(InprocStore).size(), Scripts.size());
  EXPECT_EQ(Entries(InprocStore), Entries(ProcessStore));

  // Each store warms a daemon of the other mode.
  for (const ScratchDir *Store : {&InprocStore, &ProcessStore}) {
    auto D = Boot(Store == &InprocStore ? "process" : "inproc", *Store);
    for (const std::string &S : Scripts) {
      daemon::Response R = D->handle(vecRequest(S));
      EXPECT_EQ(R.Status, "succeeded") << R.Message;
      EXPECT_EQ(R.CacheTier, "disk");
    }
    EXPECT_EQ(D->store()->hits(), Scripts.size());
  }
}

// SIGKILL workers continuously while the daemon churns write-throughs
// into its store: whatever survives on disk must be entirely servable —
// rename(2) atomicity plus checksums means a kill loses at most the
// entry being computed, never corrupts the store.
TEST(DaemonSandbox, KillMidStoreWriteNeverCorruptsTheStore) {
  ScratchDir Quarantine("storekillq");
  ScratchDir StoreDir("storekill");
  {
    daemon::DaemonConfig C = daemonConfig("process", Quarantine.path(), 2);
    C.StoreDir = StoreDir.path();
    daemon::Daemon D(C);
    ASSERT_TRUE(eventually(3000, [&] { return !D.workerPids().empty(); }));

    std::atomic<bool> Stop{false};
    std::thread Killer([&] {
      while (!Stop.load()) {
        for (pid_t P : D.workerPids())
          ::kill(P, SIGKILL);
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
      }
    });
    for (int I = 0; I != 60; ++I) {
      daemon::Request R = vecRequest(script(100 + I));
      R.DeadlineMs = 2000;
      // Degraded answers are expected (the killer is merciless);
      // corruption is not.
      EXPECT_EQ(D.handle(R).Code, 200);
    }
    Stop.store(true);
    Killer.join();
  }
  // Reopen the directory the way a restarted daemon would: the boot scan
  // sweeps orphaned tmps, and every surviving entry must load cleanly.
  daemon::DiskStore Store(daemon::DiskStoreConfig{StoreDir.path(), 0});
  // The content keys are internal to the service, so walk the sharded
  // entry files (<dir>/<hh>/<hexkey>.mvr) instead.
  size_t Loaded = 0;
  for (const auto &E : fs::recursive_directory_iterator(StoreDir.path())) {
    if (!E.is_regular_file() || E.path().extension() != ".mvr")
      continue;
    uint64_t Key = 0;
    ASSERT_TRUE(parseContentHexKey(E.path().stem().string(), Key))
        << E.path();
    if (Store.load(Key))
      ++Loaded;
  }
  EXPECT_EQ(Store.corruptDropped(), 0u)
      << "a kill mid-write must never leave a torn entry";
  EXPECT_EQ(Loaded, Store.entries());
}

// A process-mode shard's pool records crashes and respawns into the
// shard service's metrics until the pool stops, and the service hands
// misses to the pool until it drains. Retire fleets while a killer keeps
// the supervisors busy and a client keeps misses in flight: a wrong
// teardown order is a use-after-free (under ASan) or a race (under TSan).
TEST(DaemonSandbox, FleetSwapsWhileWorkersAreKilled) {
  ScratchDir Quarantine("swapq");
  daemon::DaemonConfig C = daemonConfig("process", Quarantine.path(), 2);
  C.HeartbeatIntervalMs = 2;
  daemon::Daemon D(C);
  ASSERT_TRUE(eventually(3000, [&] { return !D.workerPids().empty(); }));

  std::atomic<bool> Stop{false};
  std::thread Killer([&] {
    while (!Stop.load()) {
      for (pid_t P : D.workerPids())
        ::kill(P, SIGKILL);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread Client([&] {
    for (int I = 0; !Stop.load(); ++I) {
      daemon::Request R = vecRequest(script(1000 + I));
      R.DeadlineMs = 500;
      EXPECT_EQ(D.handle(R).Code, 200);
    }
  });
  for (int I = 0; I != 40; ++I) {
    // Each worker-count change builds a new process-mode fleet and
    // retires the old one.
    daemon::DaemonConfig New = D.config();
    New.WorkersPerShard = 1 + I % 2;
    std::string Error;
    ASSERT_TRUE(D.reload(New, Error)) << Error;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Stop.store(true);
  Client.join();
  Killer.join();
  EXPECT_EQ(D.handle(vecRequest(script(7))).Code, 200);
}

TEST(DaemonSandbox, IsolationModeHotReloadsBothWays) {
  ScratchDir Quarantine("reloadq");
  daemon::Daemon D(daemonConfig("inproc", Quarantine.path()));
  EXPECT_TRUE(D.workerPids().empty()) << "inproc mode has no worker pids";
  ASSERT_EQ(D.handle(vecRequest(script(6))).Status, "succeeded");

  // inproc -> process: each shard's service gains a sandbox pool.
  daemon::DaemonConfig New = D.config();
  New.Isolation = "process";
  std::string Error;
  ASSERT_TRUE(D.reload(New, Error)) << Error;
  ASSERT_TRUE(eventually(3000, [&] { return !D.workerPids().empty(); }));
  EXPECT_EQ(D.handle(vecRequest(script(6))).Status, "succeeded");
  EXPECT_NE(D.metricsJson().find("\"isolation\":\"process\""),
            std::string::npos);

  // process -> inproc: workers are torn down, misses run inline again.
  New = D.config();
  New.Isolation = "inproc";
  ASSERT_TRUE(D.reload(New, Error)) << Error;
  EXPECT_TRUE(D.workerPids().empty());
  EXPECT_EQ(D.handle(vecRequest(script(6))).Status, "succeeded");
}

} // namespace

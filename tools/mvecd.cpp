//===- mvecd.cpp - The mvec vectorization daemon ------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standalone server binary: a sharded vectorization daemon with a
/// persistent content-addressed result store.
///
///   mvecd [--port N] [--bind ADDR] [--config FILE] [--store DIR] ...
///
/// Options:
///   --port N            TCP port (default 4871; 0 = ephemeral)
///   --bind ADDR         bind address (default 127.0.0.1)
///   --config FILE       daemon config file (key = value lines); also the
///                       file re-read on SIGHUP
///   --store DIR         disk store directory (overrides the config file)
///   --shards N          shard count (overrides the config file)
///   --workers N         worker threads per shard (overrides the config file)
///   --isolation MODE    inproc | process (overrides the config file):
///                       process runs each shard's cache misses in
///                       forked, rlimit-capped, supervised sandbox
///                       processes (one per worker thread)
///   --print-config      dump the effective config and exit
///
/// On boot the effective port is announced on stdout as
///   mvecd: listening on <addr>:<port>
/// (CI and scripts parse this line — keep it stable).
///
/// Signals:
///   SIGHUP              re-read --config and hot-reload (in-flight jobs
///                       finish on the old fleet; the disk store persists)
///   SIGINT / SIGTERM    clean shutdown: stop accepting, drain in-flight
///                       requests, flush counters to stderr, exit 0
///
//===----------------------------------------------------------------------===//

#include "daemon/Server.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

using namespace mvec::daemon;

namespace {

volatile std::sig_atomic_t StopRequested = 0;
volatile std::sig_atomic_t ReloadRequested = 0;

void onStopSignal(int) { StopRequested = 1; }
void onHupSignal(int) { ReloadRequested = 1; }

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--bind ADDR] [--config FILE]\n"
               "       %*s [--store DIR] [--shards N] [--workers N]\n"
               "       %*s [--isolation inproc|process] [--print-config]\n",
               Argv0, static_cast<int>(std::strlen(Argv0)), "",
               static_cast<int>(std::strlen(Argv0)), "");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  uint16_t Port = 4871;
  std::string Bind = "127.0.0.1";
  std::string ConfigFile;
  std::string StoreOverride;
  std::string IsolationOverride;
  unsigned ShardsOverride = 0, WorkersOverride = 0;
  bool PrintConfig = false;

  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    auto NextValue = [&](uint64_t &Out) {
      if (I + 1 == Argc)
        return false;
      Out = std::strtoull(Argv[++I], nullptr, 10);
      return true;
    };
    uint64_t Value = 0;
    if (Arg == "--port" && NextValue(Value) && Value <= 65535)
      Port = static_cast<uint16_t>(Value);
    else if (Arg == "--bind" && I + 1 != Argc)
      Bind = Argv[++I];
    else if (Arg == "--config" && I + 1 != Argc)
      ConfigFile = Argv[++I];
    else if (Arg == "--store" && I + 1 != Argc)
      StoreOverride = Argv[++I];
    else if (Arg == "--shards" && NextValue(Value) && Value >= 1)
      ShardsOverride = static_cast<unsigned>(Value);
    else if (Arg == "--workers" && NextValue(Value) && Value >= 1)
      WorkersOverride = static_cast<unsigned>(Value);
    else if (Arg == "--isolation" && I + 1 != Argc &&
             (std::string(Argv[I + 1]) == "inproc" ||
              std::string(Argv[I + 1]) == "process"))
      IsolationOverride = Argv[++I];
    else if (Arg == "--print-config")
      PrintConfig = true;
    else
      return usage(Argv[0]);
  }

  DaemonConfig Config;
  if (!ConfigFile.empty()) {
    std::string Error;
    if (!loadDaemonConfigFile(ConfigFile, Config, Error)) {
      std::fprintf(stderr, "mvecd: %s\n", Error.c_str());
      return 2;
    }
  }
  if (!StoreOverride.empty())
    Config.StoreDir = StoreOverride;
  if (ShardsOverride)
    Config.Shards = ShardsOverride;
  if (WorkersOverride)
    Config.WorkersPerShard = WorkersOverride;
  if (!IsolationOverride.empty())
    Config.Isolation = IsolationOverride;

  if (PrintConfig) {
    std::fputs(daemonConfigText(Config).c_str(), stdout);
    return 0;
  }

  std::signal(SIGINT, onStopSignal);
  std::signal(SIGTERM, onStopSignal);
  std::signal(SIGHUP, onHupSignal);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    Daemon D(Config);
    ServerConfig SC;
    SC.BindAddress = Bind;
    SC.Port = Port;
    Server S(D, SC);
    std::string Error;
    if (!S.start(Error)) {
      std::fprintf(stderr, "mvecd: %s\n", Error.c_str());
      return 1;
    }
    // CI parses this line; keep its shape stable.
    std::printf("mvecd: listening on %s:%u\n", Bind.c_str(), S.port());
    std::printf("mvecd: %u shard(s) x %u worker(s), isolation %s, store %s\n",
                D.shardCount(), Config.WorkersPerShard,
                Config.Isolation.c_str(),
                Config.StoreDir.empty() ? "(none)"
                                        : Config.StoreDir.c_str());
    std::fflush(stdout);

    S.setIdleCallback([&] {
      if (StopRequested)
        S.stop();
      if (ReloadRequested) {
        ReloadRequested = 0;
        if (ConfigFile.empty()) {
          std::fprintf(stderr,
                       "mvecd: SIGHUP ignored (no --config file)\n");
          return;
        }
        DaemonConfig Fresh = D.config();
        std::string ReloadError;
        if (!loadDaemonConfigFile(ConfigFile, Fresh, ReloadError) ||
            !D.reload(Fresh, ReloadError))
          std::fprintf(stderr, "mvecd: reload failed: %s\n",
                       ReloadError.c_str());
        else
          std::fprintf(stderr, "mvecd: config reloaded from %s\n",
                       ConfigFile.c_str());
      }
    });

    S.run(); // Returns once draining finished; all responses were sent.

    // Flush final state where an operator (or the smoke job) can see it.
    std::fprintf(stderr, "mvecd: shutdown: %s\n", D.metricsJson().c_str());
    return 0;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "mvecd: fatal: %s\n", E.what());
    return 1;
  }
}

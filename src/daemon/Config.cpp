//===- Config.cpp - mvecd configuration -------------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "daemon/Config.h"
#include "support/StringExtras.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace mvec::daemon;

namespace {

bool parseUnsigned(const std::string &V, uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(V.c_str(), &End, 10);
  return End != V.c_str() && *End == '\0';
}

bool parseDouble(const std::string &V, double &Out) {
  char *End = nullptr;
  Out = std::strtod(V.c_str(), &End);
  return End != V.c_str() && *End == '\0' && Out >= 0;
}

} // namespace

bool mvec::daemon::parseDaemonConfig(const std::string &Text,
                                     DaemonConfig &Out, std::string &Error) {
  DaemonConfig C = Out;
  std::istringstream In(Text);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    std::string T(mvec::trim(Line));
    if (T.empty() || T[0] == '#')
      continue;
    size_t Eq = T.find('=');
    if (Eq == std::string::npos) {
      Error = "line " + std::to_string(LineNo) + ": expected 'key = value'";
      return false;
    }
    std::string Key(mvec::trim(T.substr(0, Eq)));
    std::string Value(mvec::trim(T.substr(Eq + 1)));
    uint64_t U = 0;
    double D = 0;
    if (Key == "shards" && parseUnsigned(Value, U) && U >= 1 && U <= 256)
      C.Shards = static_cast<unsigned>(U);
    else if (Key == "workers_per_shard" && parseUnsigned(Value, U) && U >= 1 &&
             U <= 256)
      C.WorkersPerShard = static_cast<unsigned>(U);
    else if (Key == "cache_capacity" && parseUnsigned(Value, U))
      C.CacheCapacity = U;
    else if (Key == "max_queue_depth" && parseUnsigned(Value, U) && U >= 1)
      C.MaxQueueDepth = U;
    else if (Key == "store_dir")
      C.StoreDir = Value;
    else if (Key == "store_max_bytes" && parseUnsigned(Value, U))
      C.StoreMaxBytes = U;
    else if (Key == "tenant_rate" && parseDouble(Value, D))
      C.TenantRate = D;
    else if (Key == "tenant_burst" && parseDouble(Value, D) && D >= 1)
      C.TenantBurst = D;
    else if (Key == "deadline_ms" && parseUnsigned(Value, U) &&
             U <= 24ull * 3600 * 1000)
      C.DeadlineMs = static_cast<unsigned>(U);
    else if (Key == "engine" && (Value == "ast" || Value == "vm"))
      C.Engine = Value;
    else if (Key == "cost_model" && (Value == "off" || Value == "on"))
      C.CostModel = Value;
    else if (Key == "cost_profile")
      C.CostProfile = Value;
    else if (Key == "isolation" && (Value == "inproc" || Value == "process"))
      C.Isolation = Value;
    else if (Key == "worker_memory_mb" && parseUnsigned(Value, U) &&
             U <= (size_t(1) << 20))
      C.WorkerMemoryMB = U;
    else if (Key == "worker_cpu_s" && parseUnsigned(Value, U) &&
             U <= 24ull * 3600)
      C.WorkerCpuSeconds = static_cast<unsigned>(U);
    else if (Key == "heartbeat_interval_ms" && parseUnsigned(Value, U) &&
             U >= 1 && U <= 60000)
      C.HeartbeatIntervalMs = static_cast<unsigned>(U);
    else if (Key == "heartbeat_timeout_ms" && parseUnsigned(Value, U) &&
             U >= 1 && U <= 600000)
      C.HeartbeatTimeoutMs = static_cast<unsigned>(U);
    else if (Key == "quarantine_dir")
      C.QuarantineDir = Value;
    else if (Key == "sandbox_test_hooks" && (Value == "off" || Value == "on"))
      C.SandboxTestHooks = Value == "on";
    else if (Key == "max_frame_bytes" && parseUnsigned(Value, U) && U >= 4096)
      C.MaxFrameBytes = U;
    else {
      Error = "line " + std::to_string(LineNo) + ": bad entry '" + T + "'";
      return false;
    }
  }
  Out = C;
  return true;
}

bool mvec::daemon::loadDaemonConfigFile(const std::string &Path,
                                        DaemonConfig &Out,
                                        std::string &Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Error = "cannot read config file '" + Path + "'";
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  return parseDaemonConfig(SS.str(), Out, Error);
}

std::string mvec::daemon::daemonConfigText(const DaemonConfig &Config) {
  std::ostringstream Out;
  Out << "shards = " << Config.Shards << "\n"
      << "workers_per_shard = " << Config.WorkersPerShard << "\n"
      << "cache_capacity = " << Config.CacheCapacity << "\n"
      << "max_queue_depth = " << Config.MaxQueueDepth << "\n"
      << "store_dir = " << Config.StoreDir << "\n"
      << "store_max_bytes = " << Config.StoreMaxBytes << "\n"
      << "tenant_rate = " << Config.TenantRate << "\n"
      << "tenant_burst = " << Config.TenantBurst << "\n"
      << "deadline_ms = " << Config.DeadlineMs << "\n"
      << "engine = " << Config.Engine << "\n"
      << "cost_model = " << Config.CostModel << "\n"
      << "cost_profile = " << Config.CostProfile << "\n"
      << "isolation = " << Config.Isolation << "\n"
      << "worker_memory_mb = " << Config.WorkerMemoryMB << "\n"
      << "worker_cpu_s = " << Config.WorkerCpuSeconds << "\n"
      << "heartbeat_interval_ms = " << Config.HeartbeatIntervalMs << "\n"
      << "heartbeat_timeout_ms = " << Config.HeartbeatTimeoutMs << "\n"
      << "quarantine_dir = " << Config.QuarantineDir << "\n"
      << "sandbox_test_hooks = " << (Config.SandboxTestHooks ? "on" : "off")
      << "\n"
      << "max_frame_bytes = " << Config.MaxFrameBytes << "\n";
  return Out.str();
}

//===- Quarantine.cpp - Crash-input quarantine -------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sandbox/Quarantine.h"

#include "interp/simd/SimdDispatch.h"
#include "service/VectorizationService.h"
#include "support/ContentHash.h"
#include "support/Io.h"

#include <filesystem>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

using namespace mvec;
using namespace mvec::sandbox;

namespace fs = std::filesystem;

std::string mvec::sandbox::quarantinePath(const std::string &Dir,
                                          uint64_t Key) {
  return Dir + "/" + contentHexKey(Key) + ".m";
}

bool mvec::sandbox::quarantineInput(uint64_t Key, const std::string &Body,
                                    const QuarantineRecord &Rec,
                                    const SandboxConfig &Config,
                                    const ServiceConfig &Service) {
  const std::string &Dir = Config.QuarantineDir;
  if (Dir.empty())
    return false;
  std::error_code EC;
  fs::create_directories(Dir, EC);
  std::string Path = quarantinePath(Dir, Key);
  if (fs::exists(Path, EC))
    return false; // First reproducer wins; keep counters == files.

  std::ostringstream Out;
  Out << "% mvec-quarantine v1\n"
      << "% key: " << contentHexKey(Key) << "\n"
      << "% cause: " << workerFailureName(Rec.Cause) << "\n"
      << "% signal: " << Rec.Signal << "\n"
      << "% exit: " << Rec.ExitCode << "\n"
      << "% engine: " << (Service.Engine == ExecEngine::Vm ? "vm" : "ast")
      << "\n"
      << "% cost_model: " << (Service.Cost ? "on" : "off") << "\n"
      << "% cost_profile: "
      << (Config.CostProfile.empty() ? "-" : Config.CostProfile) << "\n"
      << "% isa: " << simd::levelName(simd::activeLevel()) << "\n"
      << "% name: " << (Rec.Name.empty() ? "-" : Rec.Name) << "\n"
      << "% validate: " << (Rec.Validate ? 1 : 0) << "\n"
      << Body;
  std::string Data = Out.str();

  std::string Tmp = Path + ".tmp" + std::to_string(::getpid());
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return false;
  bool Ok = io::writeFull(Fd, Data.data(), Data.size());
  ::close(Fd);
  if (!Ok || ::rename(Tmp.c_str(), Path.c_str()) != 0) {
    ::unlink(Tmp.c_str());
    return false;
  }
  return true;
}

//===- Main.cpp - perfbench measurement engine entry point ---------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage: mvec_perfbench --workload NAME --seed N --workdir DIR
///
/// Then one command per stdin line; one JSON reply per stdout line:
///   setup                  build the workload's state from the seed
///   run SECONDS TRACE      measure (compile-stream, paper-kernels)
///   daemon setup | daemon traffic RATE SECONDS TRACE | daemon stats |
///   daemon verify | daemon isolation inproc|process
///                          the traced run's daemon phase (DaemonTraffic.cpp)
///   quit
/// Every reply carries "ok" and the in-process SIMD dispatch counter deltas
/// over the command; measuring replies also carry the process peak RSS.
///
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "Calibration.h"
#include "interp/simd/SimdDispatch.h"

#include <csignal>
#include <cstdio>
#include <iostream>
#include <sstream>

using namespace perfbench;

namespace {

struct SimdSnapshot {
  uint64_t V[7];
  static SimdSnapshot take() {
    const mvec::simd::DispatchCounters &D = mvec::simd::dispatchCounters();
    return {{D.Elementwise.load(), D.Compare.load(), D.FusedMulAdd.load(),
             D.MatMul.load(), D.Reduce.load(), D.Cumsum.load(),
             D.Unary.load()}};
  }
};

const char *const SimdNames[7] = {"elementwise", "compare", "fused_mul_add",
                                  "matmul",      "reduce",  "cumsum",
                                  "unary"};

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "compile-stream")
    return makeCompileStream();
  if (Name == "paper-kernels")
    return makePaperKernels();
  return nullptr;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, WorkDir = ".";
  uint64_t Seed = 1;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I];
    if (Flag == "--workload")
      WorkloadName = Argv[I + 1];
    else if (Flag == "--seed")
      Seed = std::stoull(Argv[I + 1]);
    else if (Flag == "--workdir")
      WorkDir = Argv[I + 1];
  }
  std::unique_ptr<Workload> W = makeWorkload(WorkloadName);
  if (!W) {
    std::fprintf(stderr, "mvec_perfbench: unknown workload '%s'\n",
                 WorkloadName.c_str());
    return 2;
  }
  // The calibration task builds its table on first use, outside any
  // timing.
  calibrationMs();
  // A client whose peer vanished must see EPIPE, not die.
  std::signal(SIGPIPE, SIG_IGN);

  // Commands prefixed with `daemon` go to a daemon instance living beside
  // the workload: the traced runs measure the daemon, service, DiskStore
  // and sandbox layers through it.
  std::unique_ptr<Workload> Daemon;
  bool Ready = false, DaemonReady = false;
  std::string Line;
  while (std::getline(std::cin, Line)) {
    std::istringstream In(Line);
    std::vector<std::string> Args;
    for (std::string A; In >> A;)
      Args.push_back(A);
    if (Args.empty())
      continue;
    if (Args[0] == "quit")
      break;
    Workload *Target = W.get();
    bool *TargetReady = &Ready;
    if (Args[0] == "daemon" && Args.size() > 1) {
      if (!Daemon)
        Daemon = makeDaemonTraffic(WorkDir);
      Target = Daemon.get();
      TargetReady = &DaemonReady;
      Args.erase(Args.begin());
    }
    Json J;
    J.beginObject();
    SimdSnapshot Before = SimdSnapshot::take();
    bool Ok = true;
    std::string Error;
    if (Args[0] == "setup") {
      auto T0 = Clock::now();
      Ok = *TargetReady = Target->setup(Seed, Error);
      J.field("setup_s", msSince(T0, Clock::now()) / 1000.0);
      J.field("calib_ms", calibrationMs());
      J.field("simd_level",
              std::string(mvec::simd::levelName(mvec::simd::activeLevel())));
      J.field("peak_rss_kb", peakRssKb());
    } else if (!*TargetReady) {
      Ok = false;
      Error = "setup has not succeeded";
    } else {
      try {
        Ok = Target->command(Args, J);
        if (!Ok)
          Error = "unknown command '" + Line + "'";
      } catch (const std::exception &E) {
        Ok = false;
        Error = E.what();
      }
    }
    SimdSnapshot After = SimdSnapshot::take();
    J.key("simd").beginObject();
    for (int K = 0; K != 7; ++K)
      J.field(SimdNames[K], After.V[K] - Before.V[K]);
    J.endObject();
    J.field("ok", Ok);
    if (!Ok)
      J.field("error", Error);
    J.endObject();
    reply(J);
  }
  return 0;
}

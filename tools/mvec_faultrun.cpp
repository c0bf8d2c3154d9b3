//===- mvec_faultrun.cpp - Fault-injection campaign driver -------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The chaos campaign: runs a corpus of MATLAB scripts through the
/// vectorization service while systematically arming every fault site,
/// and asserts the resilience contract held —
///
///   * every job reached a terminal status (no hang: the campaign itself
///     completing under its deadlines is the liveness check),
///   * no Internal/Resource failure escaped degradation,
///   * every Degraded result carried the original source byte-for-byte
///     plus a classified, non-empty diagnostic,
///   * every non-success carried a non-empty message.
///
/// The campaign is deterministic: plans are seeded from --seed, and the
/// fault schedule is a pure function of (plan seed, job content, site,
/// hit index), so a violating run replays exactly.
///
///   mvec_faultrun --corpus DIR [--corpus DIR]... [options]
///
/// Options:
///   --seed N          plan seed (default 1)
///   --jobs N          service worker threads (default 4)
///   --corpus DIR      add every .m file under DIR (repeatable)
///   --sites a,b       restrict the matrix to these sites (default all)
///   --kinds a,b       restrict the matrix to these kinds (default all)
///   --deadline-ms N   per-job deadline (default 5000)
///   --period N        fire every ~Nth eligible crossing (default 1)
///   --cost-model M    profitability model during vectorization: off
///                     (default) or on — the resilience contract must
///                     hold regardless of which form each nest takes
///   --cost-profile P  calibrated costs.mvec.json for --cost-model on
///   --no-chaos        skip the everything-armed plan
///   --json            machine-readable per-plan summary on stdout
///
/// MVEC_SIMD (auto|scalar|sse2|avx2, default auto) pins the kernel
/// dispatch level: the campaign's deadline-poll and governor invariants
/// must hold on the vector path too.
///
/// Exit status: 0 when every invariant held over every plan, 1 on any
/// violation, 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "driver/ToolFlags.h"
#include "resilience/FaultInjection.h"
#include "service/VectorizationService.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace mvec;

namespace {

/// SIGINT/SIGTERM stop the campaign at the next plan boundary: the plan
/// in flight completes (its service drains normally), partial results are
/// flushed, and the process exits 0.
volatile std::sig_atomic_t Interrupted = 0;
void onStopSignal(int) { Interrupted = 1; }

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --corpus DIR [--corpus DIR]... [--seed N] [--jobs N]\n"
               "       %*s [--sites a,b] [--kinds a,b] [--deadline-ms N]\n"
               "       %*s [--period N] [--cost-model off|on]\n"
               "       %*s [--cost-profile FILE] [--no-chaos] [--json]\n",
               Argv0, static_cast<int>(std::strlen(Argv0)), "",
               static_cast<int>(std::strlen(Argv0)), "",
               static_cast<int>(std::strlen(Argv0)), "");
  return 2;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Every .m file under \p Dir, recursively, sorted for determinism.
bool collectScripts(const std::string &Dir, std::vector<JobSpec> &Specs) {
  namespace fs = std::filesystem;
  std::error_code EC;
  std::vector<std::string> Paths;
  for (fs::recursive_directory_iterator It(Dir, EC), End; It != End;
       It.increment(EC)) {
    if (EC)
      return false;
    if (It->is_regular_file() && It->path().extension() == ".m")
      Paths.push_back(It->path().string());
  }
  if (EC)
    return false;
  std::sort(Paths.begin(), Paths.end());
  for (const std::string &Path : Paths) {
    JobSpec Spec;
    Spec.Name = Path;
    if (!readFile(Path, Spec.Source))
      return false;
    Spec.Validate = true;
    Specs.push_back(std::move(Spec));
  }
  return true;
}

bool parseList(const std::string &Csv, std::vector<std::string> &Out) {
  std::string Item;
  std::istringstream SS(Csv);
  while (std::getline(SS, Item, ',')) {
    if (Item.empty())
      return false;
    Out.push_back(Item);
  }
  return !Out.empty();
}

struct Campaign {
  std::string Name;
  FaultPlan Plan;
};

struct PlanTally {
  uint64_t Succeeded = 0, Degraded = 0, TimedOut = 0, Failed = 0,
           Cancelled = 0;
  uint64_t Retries = 0;
  std::vector<std::string> Violations;
};

/// Runs every spec through a fresh service armed with \p Plan and checks
/// the resilience contract on each result.
PlanTally runPlan(const Campaign &C, const std::vector<JobSpec> &Specs,
                  unsigned Jobs, unsigned DeadlineMs,
                  const cost::CostModel *Cost) {
  ServiceConfig SC;
  SC.Workers = Jobs;
  SC.DefaultDeadline = std::chrono::milliseconds(DeadlineMs);
  SC.Faults = C.Plan.Rules.empty() ? nullptr : &C.Plan;
  SC.Cost = Cost;
  VectorizationService Service(SC);

  PlanTally T;
  std::vector<JobResult> Results = Service.runBatch(Specs);
  auto violate = [&](const JobResult &R, const std::string &What) {
    T.Violations.push_back(C.Name + ": " + R.Name + ": " + What);
  };
  for (size_t I = 0; I != Results.size(); ++I) {
    const JobResult &R = Results[I];
    switch (R.Status) {
    case JobStatus::Succeeded:
      ++T.Succeeded;
      break;
    case JobStatus::Degraded: {
      ++T.Degraded;
      // The degradation contract: the caller gets its input back
      // untouched, with a classified explanation attached.
      if (R.VectorizedSource != Specs[I].Source)
        violate(R, "degraded result is not the original source verbatim");
      if (R.Class == ErrorClass::None)
        violate(R, "degraded result carries no error class");
      if (R.Message.empty())
        violate(R, "degraded result carries no diagnostic");
      break;
    }
    case JobStatus::TimedOut:
      ++T.TimedOut;
      if (R.Message.empty())
        violate(R, "timed-out result carries no diagnostic");
      break;
    case JobStatus::Cancelled:
      ++T.Cancelled;
      break;
    case JobStatus::Failed:
      ++T.Failed;
      if (R.Message.empty())
        violate(R, "failed result carries no diagnostic");
      // With degradation on (the campaign default), infrastructure
      // failures must never surface as Failed — that is the whole point.
      if (R.Class == ErrorClass::Internal || R.Class == ErrorClass::Resource)
        violate(R, "infrastructure failure escaped degradation: " + R.Message);
      break;
    }
  }
  T.Retries = Service.metrics().Retries.load();
  // Accounting sanity: every submitted job produced exactly one terminal
  // result and the metrics agree.
  if (Service.metrics().jobsCompleted() != Results.size())
    T.Violations.push_back(C.Name + ": completed-job metrics disagree with "
                                    "result count");
  return T;
}

} // namespace

int main(int Argc, char **Argv) {
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGTERM, onStopSignal);

  uint64_t Seed = 1;
  unsigned Jobs = 4;
  unsigned DeadlineMs = 5000;
  unsigned Period = 1;
  ToolFlags Flags;
  bool Chaos = true;
  bool Json = false;
  std::vector<std::string> Dirs;
  std::vector<std::string> SiteNames, KindNames;

  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    auto NextValue = [&](uint64_t &Out) {
      if (I + 1 == Argc)
        return false;
      Out = std::strtoull(Argv[++I], nullptr, 10);
      return true;
    };
    uint64_t Value = 0;
    if (Arg == "--seed" && NextValue(Value))
      Seed = Value;
    else if (Arg == "--jobs" && NextValue(Value))
      Jobs = std::max<unsigned>(1, static_cast<unsigned>(Value));
    else if (Arg == "--deadline-ms" && NextValue(Value))
      DeadlineMs = static_cast<unsigned>(Value);
    else if (Arg == "--period" && NextValue(Value))
      Period = std::max<unsigned>(1, static_cast<unsigned>(Value));
    else if (Arg == "--corpus" && I + 1 != Argc)
      Dirs.push_back(Argv[++I]);
    else if (Arg == "--sites" && I + 1 != Argc) {
      if (!parseList(Argv[++I], SiteNames))
        return usage(Argv[0]);
    } else if (Arg == "--kinds" && I + 1 != Argc) {
      if (!parseList(Argv[++I], KindNames))
        return usage(Argv[0]);
    } else if (FlagParse F =
                   parseToolFlag(Argc, Argv, I, /*CostBoth=*/false, Flags);
               F != FlagParse::NotMine) {
      if (F == FlagParse::Invalid)
        return usage(Argv[0]);
    } else if (Arg == "--no-chaos")
      Chaos = false;
    else if (Arg == "--json")
      Json = true;
    else
      return usage(Argv[0]);
  }
  if (Dirs.empty())
    return usage(Argv[0]);

  std::vector<JobSpec> Specs;
  for (const std::string &Dir : Dirs) {
    if (!collectScripts(Dir, Specs)) {
      std::fprintf(stderr, "error: cannot read corpus '%s'\n", Dir.c_str());
      return 2;
    }
  }
  if (Specs.empty()) {
    std::fprintf(stderr, "error: no .m files under the given corpora\n");
    return 2;
  }

  std::vector<FaultSite> Sites;
  if (SiteNames.empty()) {
    for (unsigned S = 0; S != NumFaultSites; ++S)
      Sites.push_back(static_cast<FaultSite>(S));
  } else {
    for (const std::string &Name : SiteNames) {
      FaultSite Site;
      if (!faultSiteFromName(Name, Site)) {
        std::fprintf(stderr, "error: unknown fault site '%s'\n", Name.c_str());
        return 2;
      }
      Sites.push_back(Site);
    }
  }
  std::vector<FaultKind> Kinds;
  if (KindNames.empty()) {
    for (unsigned K = 0; K != NumFaultKinds; ++K)
      Kinds.push_back(static_cast<FaultKind>(K));
  } else {
    for (const std::string &Name : KindNames) {
      FaultKind Kind;
      if (!faultKindFromName(Name, Kind)) {
        std::fprintf(stderr, "error: unknown fault kind '%s'\n", Name.c_str());
        return 2;
      }
      Kinds.push_back(Kind);
    }
  }

  // The campaign: a disarmed baseline, the full site x kind matrix of
  // single-rule plans, and one everything-armed chaos plan (periodic,
  // capped fires — mixes failure modes within one job).
  std::vector<Campaign> Campaigns;
  Campaigns.push_back({"baseline", FaultPlan{Seed, {}}});
  for (FaultSite Site : Sites) {
    for (FaultKind Kind : Kinds) {
      Campaign C;
      C.Name = std::string(faultSiteName(Site)) + "/" + faultKindName(Kind);
      C.Plan.Seed = Seed;
      FaultRule Rule;
      Rule.Site = Site;
      Rule.Kind = Kind;
      Rule.Period = Period;
      Rule.LatencyMicros = 500;
      C.Plan.Rules.push_back(Rule);
      Campaigns.push_back(std::move(C));
    }
  }
  if (Chaos) {
    Campaign C;
    C.Name = "chaos-all-sites";
    C.Plan.Seed = Seed ^ 0x5DEECE66Dull;
    for (FaultSite Site : Sites) {
      for (FaultKind Kind : Kinds) {
        FaultRule Rule;
        Rule.Site = Site;
        Rule.Kind = Kind;
        Rule.Period = 3;
        Rule.MaxFires = 2;
        Rule.LatencyMicros = 500;
        C.Plan.Rules.push_back(Rule);
      }
    }
    Campaigns.push_back(std::move(C));
  }

  std::unique_ptr<cost::CostModel> Cost;
  if (Flags.CostModel == "on")
    Cost = loadToolCostModel(Flags.CostProfile, "mvec_faultrun");

  auto Start = std::chrono::steady_clock::now();
  uint64_t TotalJobs = 0, TotalViolations = 0;
  if (Json)
    std::printf("{\"plans\":[");
  size_t PlansRun = 0;
  for (size_t P = 0; P != Campaigns.size(); ++P) {
    if (Interrupted)
      break;
    ++PlansRun;
    const Campaign &C = Campaigns[P];
    PlanTally T = runPlan(C, Specs, Jobs, DeadlineMs, Cost.get());
    TotalJobs += Specs.size();
    TotalViolations += T.Violations.size();
    if (Json) {
      std::printf("%s{\"plan\":\"%s\",\"jobs\":%zu,\"succeeded\":%llu,"
                  "\"degraded\":%llu,\"timed_out\":%llu,\"failed\":%llu,"
                  "\"cancelled\":%llu,\"retries\":%llu,\"violations\":%zu}",
                  P ? "," : "", C.Name.c_str(), Specs.size(),
                  static_cast<unsigned long long>(T.Succeeded),
                  static_cast<unsigned long long>(T.Degraded),
                  static_cast<unsigned long long>(T.TimedOut),
                  static_cast<unsigned long long>(T.Failed),
                  static_cast<unsigned long long>(T.Cancelled),
                  static_cast<unsigned long long>(T.Retries),
                  T.Violations.size());
    } else {
      std::printf("%-32s ok=%-3llu degraded=%-3llu timed_out=%-3llu "
                  "failed=%-3llu retries=%-3llu violations=%zu\n",
                  C.Name.c_str(),
                  static_cast<unsigned long long>(T.Succeeded),
                  static_cast<unsigned long long>(T.Degraded),
                  static_cast<unsigned long long>(T.TimedOut),
                  static_cast<unsigned long long>(T.Failed),
                  static_cast<unsigned long long>(T.Retries),
                  T.Violations.size());
    }
    for (const std::string &V : T.Violations)
      std::fprintf(stderr, "VIOLATION  %s\n", V.c_str());
  }
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  if (Json) {
    std::printf("],\"plans_run\":%zu,\"jobs\":%llu,\"violations\":%llu,"
                "\"interrupted\":%s,\"elapsed_ms\":%lld}\n",
                PlansRun, static_cast<unsigned long long>(TotalJobs),
                static_cast<unsigned long long>(TotalViolations),
                Interrupted ? "true" : "false",
                static_cast<long long>(ElapsedMs));
  } else {
    std::printf("campaign: %zu of %zu plan(s), %llu job(s), %llu "
                "violation(s) in %lld ms%s\n",
                PlansRun, Campaigns.size(),
                static_cast<unsigned long long>(TotalJobs),
                static_cast<unsigned long long>(TotalViolations),
                static_cast<long long>(ElapsedMs),
                Interrupted ? " (interrupted; state flushed)" : "");
  }
  if (Interrupted)
    return 0;
  return TotalViolations == 0 ? 0 : 1;
}

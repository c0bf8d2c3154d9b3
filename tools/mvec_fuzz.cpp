//===- mvec_fuzz.cpp - Differential fuzzing driver ---------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzzing front door:
///
///   mvec_fuzz [--seed N] [--time SECONDS] [--jobs N] ...   fuzz
///   mvec_fuzz --replay [--corpus DIR]                      regression run
///
/// The candidate stream is a pure function of --seed: candidate k is
/// produced from Rng::deriveSeed(seed, k), so two runs with the same
/// seed generate byte-identical programs in the same order regardless of
/// --jobs, machine load or wall-clock budget (a shorter --time merely
/// truncates the stream). Candidates are classified in parallel by the
/// oracle's workers; findings are deduplicated by bucket signature,
/// minimized with the reducer, and optionally persisted to the corpus.
///
/// Exit status: 0 when every finding maps to a bucket already triaged in
/// the corpus (or no findings at all); 1 when a new, unresolved bucket
/// appeared (or, under --replay, a fixed entry regressed); 2 on usage
/// errors.
///
/// Options:
///   --seed N            stream seed (default 1)
///   --time SECONDS      wall-clock budget (default 30; 0 = no limit)
///   --max-programs N    stop after N candidates (0 = no limit)
///   --jobs N            oracle worker threads (default 4)
///   --corpus DIR        corpus directory (default ./corpus when present)
///   --deadline-ms N     per-candidate deadline (default 2000)
///   --max-steps N       interpreter step budget per run (default 2000000)
///   --mutate-percent P  share of candidates that are mutants (default 40)
///   --engine E          execution tier: ast (default), vm, or both
///                       (both cross-checks the tree-walker against the
///                       bytecode VM on every program)
///   --cost-model M      profitability model: off (default), on, or both
///                       (both runs every candidate with the model off
///                       and on and demands identical behaviour)
///   --cost-profile P    calibrated costs.mvec.json for on/both (default:
///                       the built-in conservative profile)
///   --no-reduce         keep findings unminimized
///   --save-new          persist new findings into the corpus
///   --replay            re-run the corpus as a regression suite and exit
///
/// MVEC_SIMD (auto|scalar|sse2|avx2, default auto) pins the kernel
/// dispatch level every oracle run uses.
///
//===----------------------------------------------------------------------===//

#include "driver/ToolFlags.h"
#include "fuzz/Corpus.h"
#include "fuzz/Generator.h"
#include "fuzz/Mutator.h"
#include "fuzz/Oracle.h"
#include "fuzz/Reducer.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace mvec;
using namespace mvec::fuzz;

namespace {

/// SIGINT/SIGTERM end the run early but cleanly: the current batch
/// finishes, findings so far are flushed (reported and, with --save-new,
/// persisted), and the process exits 0 — an interrupted fuzz run is not a
/// failed one.
volatile std::sig_atomic_t Interrupted = 0;
void onStopSignal(int) { Interrupted = 1; }

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N] [--time SECONDS] [--max-programs N] [--jobs N]\n"
      "       %*s [--corpus DIR] [--deadline-ms N] [--max-steps N]\n"
      "       %*s [--mutate-percent P] [--engine ast|vm|both]\n"
      "       %*s [--cost-model off|on|both] [--cost-profile FILE]\n"
      "       %*s [--no-reduce] [--save-new]\n"
      "       %s --replay [--corpus DIR] [--jobs N] [--engine ast|vm|both]\n",
      Argv0, static_cast<int>(std::strlen(Argv0)), "",
      static_cast<int>(std::strlen(Argv0)), "",
      static_cast<int>(std::strlen(Argv0)), "",
      static_cast<int>(std::strlen(Argv0)), "", Argv0);
  return 2;
}

struct FuzzOptions {
  uint64_t Seed = 1;
  unsigned TimeSeconds = 30;
  uint64_t MaxPrograms = 0;
  unsigned Jobs = 4;
  std::string CorpusDir;
  unsigned DeadlineMs = 2000;
  uint64_t MaxSteps = 2000000;
  int MutatePercent = 40;
  ToolFlags Flags; ///< --engine, --cost-model, --cost-profile
  bool Reduce = true;
  bool SaveNew = false;
  bool Replay = false;
};

/// Produces candidate \p Index of the stream for \p Seed. Mutation bases
/// come from \p Donors (corpus seeds plus a ring of recent generator
/// output) so the mutator explores neighborhoods of interesting programs.
GenProgram makeCandidate(uint64_t Seed, uint64_t Index, int MutatePercent,
                         const std::vector<std::string> &Donors) {
  uint64_t CandidateSeed = Rng::deriveSeed(Seed, Index);
  Rng Decide(Rng::deriveSeed(CandidateSeed, /*Salt=*/0x6d757461746eull));
  if (!Donors.empty() && Decide.percent(MutatePercent)) {
    const std::string &Base = Decide.pick(Donors);
    const std::string &Donor = Decide.pick(Donors);
    Mutator M(CandidateSeed);
    Mutant Mut = M.mutate(Base, &Donor);
    GenProgram P;
    P.Source = std::move(Mut.Source);
    P.Family = Mut.Trace.empty() ? "mutate:none" : "mutate:" + Mut.Trace;
    return P;
  }
  return Generator(CandidateSeed).next();
}

int replayCorpus(Corpus &C, const Oracle &O) {
  if (C.entries().empty()) {
    std::printf("corpus '%s' is empty; nothing to replay\n",
                C.dir().c_str());
    return 0;
  }
  unsigned Regressions = 0, StillOpen = 0, NowPassing = 0;
  for (const ReplayResult &R : C.replay(O)) {
    if (R.Regressed) {
      ++Regressions;
      std::printf("REGRESSED  %-40s %s\n", R.Entry->Name.c_str(),
                  R.V.isFinding() ? R.V.F.Message.c_str()
                                  : "no longer a valid program");
      continue;
    }
    if (R.Entry->Fixed) {
      std::printf("ok         %s\n", R.Entry->Name.c_str());
      continue;
    }
    if (R.V.isFinding()) {
      ++StillOpen;
      std::printf("still-open %-40s %s\n", R.Entry->Name.c_str(),
                  R.V.F.Bucket.c_str());
    } else {
      ++NowPassing;
      std::printf("now-passes %-40s consider flipping status to fixed\n",
                  R.Entry->Name.c_str());
    }
  }
  std::printf("replayed %zu entries: %u regressed, %u still open, "
              "%u open-but-passing\n",
              C.entries().size(), Regressions, StillOpen, NowPassing);
  return Regressions == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGTERM, onStopSignal);

  FuzzOptions Opt;
  bool CorpusExplicit = false;
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
      Opt.Seed = Value;
    else if (Arg == "--time" && NextValue(Value))
      Opt.TimeSeconds = static_cast<unsigned>(Value);
    else if (Arg == "--max-programs" && NextValue(Value))
      Opt.MaxPrograms = Value;
    else if (Arg == "--jobs" && NextValue(Value))
      Opt.Jobs = std::max<unsigned>(1, static_cast<unsigned>(Value));
    else if (Arg == "--corpus" && I + 1 != Argc) {
      Opt.CorpusDir = Argv[++I];
      CorpusExplicit = true;
    } else if (Arg == "--deadline-ms" && NextValue(Value))
      Opt.DeadlineMs = static_cast<unsigned>(Value);
    else if (Arg == "--max-steps" && NextValue(Value))
      Opt.MaxSteps = Value;
    else if (Arg == "--mutate-percent" && NextValue(Value))
      Opt.MutatePercent = std::min(100, static_cast<int>(Value));
    else if (FlagParse F =
                 parseToolFlag(Argc, Argv, I, {true, true}, Opt.Flags);
             F != FlagParse::NotMine) {
      if (F == FlagParse::Invalid)
        return usage(Argv[0]);
    } else if (Arg == "--no-reduce")
      Opt.Reduce = false;
    else if (Arg == "--save-new")
      Opt.SaveNew = true;
    else if (Arg == "--replay")
      Opt.Replay = true;
    else
      return usage(Argv[0]);
  }
  if (Opt.CorpusDir.empty() && !CorpusExplicit &&
      std::filesystem::is_directory("corpus"))
    Opt.CorpusDir = "corpus";

  OracleConfig OC;
  OC.Jobs = Opt.Jobs;
  OC.Deadline = std::chrono::milliseconds(Opt.DeadlineMs);
  OC.MaxSteps = Opt.MaxSteps;
  const ToolFlags &F = Opt.Flags;
  OC.Engine = F.Engine == "both" ? EngineMode::Both
              : F.Engine == "vm" ? EngineMode::Vm
                                 : EngineMode::Ast;
  OC.Cost = F.CostModel == "both" ? CostMode::Both
            : F.CostModel == "on" ? CostMode::On
                                  : CostMode::Off;
  std::unique_ptr<cost::CostModel> Model;
  if (OC.Cost != CostMode::Off) {
    Model = loadToolCostModel(F.CostProfile, "mvec_fuzz");
    OC.Model = Model.get();
  }
  Oracle O(OC);

  Corpus C(Opt.CorpusDir.empty() ? std::string("corpus") : Opt.CorpusDir);
  if (!Opt.CorpusDir.empty())
    C.load();

  if (Opt.Replay)
    return replayCorpus(C, O);

  // Donor pool for mutation: the corpus seeds, plus a bounded ring of
  // recent generator output. The ring's contents depend only on the
  // candidate indices already emitted, keeping the stream seed-pure.
  std::vector<std::string> Donors;
  for (const CorpusEntry &Entry : C.entries())
    Donors.push_back(Entry.Source);
  size_t CorpusDonors = Donors.size();
  constexpr size_t RingCapacity = 64;
  size_t RingNext = 0;

  auto Start = std::chrono::steady_clock::now();
  auto expired = [&] {
    if (Interrupted)
      return true;
    if (Opt.TimeSeconds == 0)
      return false;
    return std::chrono::steady_clock::now() - Start >=
           std::chrono::seconds(Opt.TimeSeconds);
  };

  uint64_t Produced = 0, OkCount = 0, RejectedCount = 0, FindingCount = 0;
  // Bucket -> representative finding, accumulated across batches. Known
  // buckets (already triaged in the corpus) are counted separately.
  std::map<std::string, Finding> NewBuckets;
  std::map<std::string, uint64_t> KnownBucketHits;
  const size_t BatchSize = std::max<size_t>(8, 4 * Opt.Jobs);

  while (!expired() &&
         (Opt.MaxPrograms == 0 || Produced < Opt.MaxPrograms)) {
    std::vector<GenProgram> Batch;
    while (Batch.size() != BatchSize &&
           (Opt.MaxPrograms == 0 || Produced < Opt.MaxPrograms)) {
      Batch.push_back(
          makeCandidate(Opt.Seed, Produced, Opt.MutatePercent, Donors));
      ++Produced;
    }
    // Recycle generated (non-mutant) programs as future mutation bases.
    for (const GenProgram &P : Batch) {
      if (P.Family.rfind("mutate:", 0) == 0)
        continue;
      if (Donors.size() < CorpusDonors + RingCapacity) {
        Donors.push_back(P.Source);
      } else {
        Donors[CorpusDonors + RingNext] = P.Source;
        RingNext = (RingNext + 1) % RingCapacity;
      }
    }
    for (Verdict &V : O.checkBatch(Batch)) {
      if (V.ok()) {
        ++OkCount;
        continue;
      }
      if (V.rejected()) {
        ++RejectedCount;
        continue;
      }
      ++FindingCount;
      if (C.containsBucket(V.F.Bucket)) {
        ++KnownBucketHits[V.F.Bucket];
        continue;
      }
      if (NewBuckets.emplace(V.F.Bucket, V.F).second)
        std::printf("NEW %s [%s] from %s\n", V.F.Bucket.c_str(),
                    findingKindName(V.F.Kind), V.F.Family.c_str());
    }
  }

  // Minimize one representative per new bucket and (optionally) persist
  // it. Reduction judges with check(), the same path the campaign used,
  // so the reproducer keeps hitting the same bucket it was filed under.
  for (auto &[Bucket, F] : NewBuckets) {
    std::string Reproducer = F.Source;
    // After an interrupt, skip minimization (it can take a while) but
    // still report and persist the raw reproducers below.
    if (Opt.Reduce && !Interrupted) {
      const std::string &Want = Bucket;
      ReduceResult RR = reduceProgram(F.Source, [&](const std::string &S) {
        Verdict V = O.check(S);
        return V.isFinding() && V.F.Bucket == Want;
      });
      Reproducer = RR.Reduced;
      std::printf("reduced %s: %zu -> %zu tokens (%u checks)\n",
                  Bucket.c_str(), RR.OriginalTokens, RR.ReducedTokens,
                  RR.Checks);
    }
    std::printf("---- %s (%s, family %s)\n%s----\n%s\n", Bucket.c_str(),
                findingKindName(F.Kind), F.Family.c_str(), F.Message.c_str(),
                Reproducer.c_str());
    if (Opt.SaveNew) {
      F.Source = Reproducer;
      std::string Path = C.add(F, Reproducer);
      if (!Path.empty())
        std::printf("saved %s\n", Path.c_str());
    }
  }

  auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
  double Rate = Elapsed > 0 ? 1000.0 * static_cast<double>(Produced) /
                                  static_cast<double>(Elapsed)
                            : 0.0;
  std::printf("seed %llu: %llu programs in %lld ms (%.1f/s) — %llu ok, "
              "%llu rejected, %llu findings; %zu known buckets, %zu new\n",
              static_cast<unsigned long long>(Opt.Seed),
              static_cast<unsigned long long>(Produced),
              static_cast<long long>(Elapsed), Rate,
              static_cast<unsigned long long>(OkCount),
              static_cast<unsigned long long>(RejectedCount),
              static_cast<unsigned long long>(FindingCount),
              KnownBucketHits.size(), NewBuckets.size());
  if (Interrupted) {
    std::printf("interrupted; state flushed\n");
    return 0;
  }
  return NewBuckets.empty() ? 0 : 1;
}

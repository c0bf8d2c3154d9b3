//===- Oracle.cpp - Differential fuzzing oracle -----------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "cost/CostModel.h"
#include "resilience/Resilience.h"
#include "resilience/ResourceGovernor.h"
#include "support/ContentHash.h"
#include "vm/Parity.h"

#include <algorithm>
#include <cctype>

using namespace mvec;
using namespace mvec::fuzz;

const char *mvec::fuzz::findingKindName(FindingKind Kind) {
  switch (Kind) {
  case FindingKind::Crash:
    return "crash";
  case FindingKind::TransformedRunError:
    return "transformed-run-error";
  case FindingKind::Mismatch:
    return "mismatch";
  case FindingKind::Hang:
    return "hang";
  case FindingKind::EngineDivergence:
    return "engine-divergence";
  case FindingKind::CostDivergence:
    return "cost-divergence";
  }
  return "unknown";
}

namespace {

using Clock = std::chrono::steady_clock;

/// Extracts the text between the first pair of single quotes ("variable
/// 'name' differs" -> "name"); empty when there is no quoted token.
std::string firstQuoted(const std::string &S) {
  size_t Open = S.find('\'');
  if (Open == std::string::npos)
    return std::string();
  size_t Close = S.find('\'', Open + 1);
  if (Close == std::string::npos)
    return std::string();
  return S.substr(Open + 1, Close - Open - 1);
}

Verdict finding(FindingKind Kind, std::string Bucket, std::string Message) {
  Verdict V;
  V.S = Verdict::State::Finding;
  V.F.Kind = Kind;
  V.F.Bucket = std::move(Bucket);
  V.F.Message = std::move(Message);
  return V;
}

Verdict rejected() {
  Verdict V;
  V.S = Verdict::State::Rejected;
  return V;
}

/// Runs one judgement, folding whatever escapes it into the verdict: an
/// exhausted memory budget is the input's fault (Rejected), any other
/// exception a pipeline crash. Findings are stamped with their program.
template <typename Fn>
Verdict guarded(const std::string &Source, const std::string &Family,
                Fn &&Judge) {
  Verdict V;
  try {
    V = Judge();
  } catch (const ResourceExhausted &) {
    V = rejected();
  } catch (const std::exception &E) {
    V = finding(FindingKind::Crash,
                "crash:" + Oracle::normalizeForBucket(E.what()),
                std::string("internal error: ") + E.what());
  } catch (...) {
    V = finding(FindingKind::Crash, "crash:unknown",
                "internal error: unknown exception");
  }
  if (V.isFinding()) {
    V.F.Source = Source;
    V.F.Family = Family;
  }
  return V;
}

/// Runs one differential pair under a fresh memory budget: the service's
/// default, so a program the service would refuse for its allocations is
/// refused here too, instead of allocating without bound.
template <typename Fn> DiffOutcome governed(Fn &&RunPair) {
  ResourceGovernor Governor(ResilienceConfig{}.MaxJobBytes);
  GovernorScope Scope(&Governor);
  return RunPair();
}

} // namespace

std::string Oracle::normalizeForBucket(const std::string &Message) {
  std::string Out;
  bool LastWasHash = false, LastWasSpace = false;
  for (char C : Message) {
    if (std::isdigit(static_cast<unsigned char>(C))) {
      if (!LastWasHash)
        Out += '#';
      LastWasHash = true;
      LastWasSpace = false;
      continue;
    }
    LastWasHash = false;
    if (std::isspace(static_cast<unsigned char>(C))) {
      if (!LastWasSpace && !Out.empty())
        Out += ' ';
      LastWasSpace = true;
      continue;
    }
    LastWasSpace = false;
    Out += C;
  }
  while (!Out.empty() && Out.back() == ' ')
    Out.pop_back();
  if (Out.size() > 96)
    Out.resize(96);
  return Out;
}

Verdict Oracle::classifyDiff(DiffStatus Status, const std::string &Msg) {
  switch (Status) {
  case DiffStatus::Match:
    return Verdict{};
  case DiffStatus::Cancelled:
    return rejected();
  case DiffStatus::TimedOut:
    // A slow original is the input's fault; a slow transformed program
    // means the transformation changed the amount of work.
    if (Msg.starts_with("original program"))
      return rejected();
    return finding(FindingKind::Hang, "hang:transformed", Msg);
  case DiffStatus::Error:
    if (Msg.starts_with("original program"))
      return rejected();
    if (Msg.starts_with("transformed program does not parse"))
      return finding(FindingKind::TransformedRunError,
                     "trun:parse:" + normalizeForBucket(Msg), Msg);
    if (Msg.starts_with("transformed program failed: ")) {
      std::string Err = Msg.substr(std::string("transformed program failed: ")
                                       .size());
      return finding(FindingKind::TransformedRunError,
                     "trun:" + normalizeForBucket(Err), Msg);
    }
    return finding(FindingKind::TransformedRunError,
                   "trun:" + normalizeForBucket(Msg), Msg);
  case DiffStatus::Mismatch:
    if (Msg.starts_with("variable '")) {
      std::string Var = firstQuoted(Msg);
      if (Msg.find("missing after transformation") != std::string::npos)
        return finding(FindingKind::Mismatch, "mismatch:missing:" + Var, Msg);
      return finding(FindingKind::Mismatch, "mismatch:var:" + Var, Msg);
    }
    if (Msg.starts_with("transformation introduced variable"))
      return finding(FindingKind::Mismatch,
                     "mismatch:introduced:" + firstQuoted(Msg), Msg);
    return finding(FindingKind::Mismatch, "mismatch:output", Msg);
  }
  return rejected();
}

Oracle::Oracle(OracleConfig Config)
    : Config(Config),
      // A roomy queue keeps checkBatch's submissions ahead of the workers.
      Pool(std::make_unique<ThreadPool>(
          Config.Jobs, std::max<size_t>(64, 8 * Config.Jobs))) {}

Oracle::~Oracle() = default;

RunLimits Oracle::limits(Clock::time_point Start) const {
  RunLimits Limits;
  Limits.MaxSteps = Config.MaxSteps;
  if (Config.Deadline.count() > 0)
    Limits.Deadline = Start + Config.Deadline;
  return Limits;
}

Verdict Oracle::engineCheck(const std::string &Source,
                            const std::string &Family) const {
  return guarded(Source, Family, [&] {
    RunLimits Limits = limits(Clock::now());
    DiffOutcome Diff = governed([&] { return engineDiffRun(Source, Limits); });
    switch (Diff.Status) {
    case DiffStatus::Match:
      break;
    case DiffStatus::Error:     // the program itself does not parse
    case DiffStatus::TimedOut:  // wall-clock interrupt: inconclusive
    case DiffStatus::Cancelled:
      return rejected();
    case DiffStatus::Mismatch:
      return finding(FindingKind::EngineDivergence,
                     "engine:" + normalizeForBucket(Diff.Message),
                     Diff.Message);
    }
    return Verdict{};
  });
}

const cost::CostModel *Oracle::costModel() const {
  if (Config.Cost == CostMode::Off)
    return nullptr;
  return Config.Model ? Config.Model : &cost::builtinCostModel();
}

Verdict Oracle::checkImpl(const std::string &Source,
                          const std::string &Family,
                          const VectorizerOptions &Opts,
                          std::string *TransformedOut) const {
  std::string Vectorized;
  Verdict V = guarded(Source, Family, [&] {
    // One clock for the whole check: vectorization and both runs.
    RunLimits Limits = limits(Clock::now());
    PipelineResult P = vectorizeSource(Source, Opts);
    // The pipeline refused the input with diagnostics; for a fuzzer that
    // is the expected fate of malformed mutants, not a defect.
    if (!P.succeeded())
      return rejected();
    if (Limits.Deadline && Clock::now() >= *Limits.Deadline)
      return finding(FindingKind::Hang, "hang:vectorize",
                     "deadline exceeded during vectorization");
    Vectorized = std::move(P.VectorizedSource);
    // Mutation can make the code contradict its %! annotations; a
    // divergence on a lying input blames the input, not the vectorizer.
    Limits.CheckAnnotations = true;
    DiffOutcome Diff = governed([&] {
      return diffRunLimited(Source, Vectorized, Limits, Config.Tol);
    });
    return classifyDiff(Diff.Status, Diff.Message);
  });
  if (V.ok() && Config.EngineDiff) {
    // The vectorized output is a program too; both tiers must agree on
    // it as well.
    Verdict E = engineCheck(Vectorized, Family);
    if (E.isFinding())
      return E;
  }
  if (TransformedOut)
    *TransformedOut = std::move(Vectorized);
  return V;
}

Verdict Oracle::crossCheckCost(const std::string &Source,
                               const std::string &Family,
                               const std::string &OffOut,
                               const std::string &OnOut) const {
  if (OffOut == OnOut)
    return Verdict{};
  return guarded(Source, Family, [&] {
    RunLimits Limits = limits(Clock::now());
    // Both outputs already matched the original within Tol, so by the
    // triangle inequality they agree within 2*Tol; a wider gap means the
    // cost model changed semantics, not just rounding.
    DiffOutcome Diff = governed([&] {
      return diffRunLimited(OffOut, OnOut, Limits, 2 * Config.Tol);
    });
    if (Diff.Status != DiffStatus::Mismatch)
      return Verdict{}; // re-run noise (budget/interrupt), not a verdict
    return finding(FindingKind::CostDivergence,
                   "cost-divergence:" + normalizeForBucket(Diff.Message),
                   "cost-model-on output diverges from cost-model-off "
                   "output: " +
                       Diff.Message);
  });
}

Verdict Oracle::check(const std::string &Source,
                      const std::string &Family) const {
  // Under EngineDiff, the tier cross-check runs first: an engine
  // divergence on the *original* program poisons any differential verdict
  // about the transformation, so it dominates.
  if (Config.EngineDiff) {
    Verdict E = engineCheck(Source, Family);
    if (E.isFinding())
      return E;
  }
  VectorizerOptions Base = Config.Opts;
  VectorizerOptions WithModel = Base;
  WithModel.Cost = costModel();

  if (Config.Cost != CostMode::Both)
    return checkImpl(Source, Family,
                     Config.Cost == CostMode::On ? WithModel : Base, nullptr);

  // CostMode::Both: model-off first (its buckets are the stable,
  // paper-faithful ones), then model-on, then the off-vs-on semantic
  // cross-check on the two transformed programs.
  std::string OffOut, OnOut;
  Verdict Off = checkImpl(Source, Family, Base, &OffOut);
  if (!Off.ok())
    return Off;
  Verdict On = checkImpl(Source, Family, WithModel, &OnOut);
  if (On.isFinding()) {
    // The defect only manifests with the model attached; mark the bucket
    // so it never collapses into an off-mode signature.
    On.F.Bucket = "cost:" + On.F.Bucket;
    return On;
  }
  if (!On.ok())
    return On;
  Verdict Cross = crossCheckCost(Source, Family, OffOut, OnOut);
  return Cross.isFinding() ? Cross : Off;
}

std::vector<Verdict>
Oracle::checkBatch(const std::vector<GenProgram> &Candidates) {
  std::vector<Verdict> Verdicts(Candidates.size());
  try {
    for (size_t I = 0; I != Candidates.size(); ++I)
      Pool->submit([this, &Candidates, &Verdicts, I] {
        const GenProgram &C = Candidates[I];
        uint64_t Key = fnv1aHash(C.Source);
        if (OkSources.get(Key))
          return; // judged ok before; Verdicts[I] is already ok
        Verdicts[I] = check(C.Source, C.Family);
        if (Verdicts[I].ok())
          OkSources.put(Key, true);
      });
  } catch (...) {
    Pool->drain(); // the queued tasks write into this frame
    throw;
  }
  Pool->drain();
  return Verdicts;
}

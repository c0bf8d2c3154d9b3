//===- Oracle.cpp - Differential fuzzing oracle -----------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "cost/CostModel.h"
#include "driver/Pipeline.h"

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

/// Shared classification of a differential-run failure description — the
/// strings produced by diffRunLimited (Pipeline.cpp). Both the sync path
/// (which holds the DiffOutcome) and the batch path (which recovers it
/// from the JobResult message) land here, so buckets are identical.
Verdict classifyDiff(DiffStatus Status, const std::string &Msg) {
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
                     "trun:parse:" + Oracle::normalizeForBucket(Msg), Msg);
    if (Msg.starts_with("transformed program failed: ")) {
      std::string Err = Msg.substr(std::string("transformed program failed: ")
                                       .size());
      return finding(FindingKind::TransformedRunError,
                     "trun:" + Oracle::normalizeForBucket(Err), Msg);
    }
    return finding(FindingKind::TransformedRunError,
                   "trun:" + Oracle::normalizeForBucket(Msg), Msg);
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

Oracle::Oracle(OracleConfig Config) : Config(Config) {
  ServiceConfig SC;
  SC.Workers = Config.Jobs;
  SC.CacheCapacity = Config.CacheCapacity;
  SC.DefaultDeadline = Config.Deadline;
  // Submission happens in batches sized to the worker count; a roomy
  // queue keeps the generator ahead of the workers.
  SC.QueueCapacity = std::max<size_t>(64, 8 * Config.Jobs);
  // Degradation would repackage "internal error:" crashes as Degraded
  // passthrough results and hide them from the oracle; the fuzzer wants
  // the raw failure, not the graceful fallback.
  SC.Resilience.DegradeOnExhaustion = false;
  SC.Resilience.Retry.MaxAttempts = 1;
  // Vm mode validates on the bytecode tier; Both keeps the service on the
  // tree-walker and layers the engine cross-check on top (engineCheck).
  SC.Engine = Config.Engine == EngineMode::Vm ? ExecEngine::Vm
                                              : ExecEngine::Ast;
  Service = std::make_unique<VectorizationService>(SC);
}

Oracle::~Oracle() = default;

ServiceMetrics &Oracle::metrics() { return Service->metrics(); }

Verdict Oracle::engineCheck(const std::string &Source,
                            const std::string &Family) const {
  Verdict V;
  try {
    RunLimits Limits;
    Limits.MaxSteps = Config.MaxSteps;
    if (Config.Deadline.count() > 0)
      Limits.Deadline = std::chrono::steady_clock::now() + Config.Deadline;
    DiffOutcome Diff = engineDiffRun(Source, Limits);
    switch (Diff.Status) {
    case DiffStatus::Match:
      break;
    case DiffStatus::Error:     // the program itself does not parse
    case DiffStatus::TimedOut:  // wall-clock interrupt: inconclusive
    case DiffStatus::Cancelled:
      V = rejected();
      break;
    case DiffStatus::Mismatch:
      V = finding(FindingKind::EngineDivergence,
                  "engine:" + normalizeForBucket(Diff.Message), Diff.Message);
      break;
    }
  } catch (const std::exception &E) {
    V = finding(FindingKind::Crash,
                "crash:" + normalizeForBucket(E.what()),
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

const cost::CostModel *Oracle::costModel() const {
  if (Config.Cost == CostMode::Off)
    return nullptr;
  return Config.Model ? Config.Model : &cost::builtinCostModel();
}

Verdict Oracle::checkImpl(const std::string &Source,
                          const std::string &Family,
                          const VectorizerOptions &Opts,
                          std::string *TransformedOut) const {
  Verdict V;
  try {
    PipelineResult P = vectorizeSource(Source, Opts);
    if (!P.succeeded()) {
      // The pipeline refused the input with diagnostics; for a fuzzer
      // that is the expected fate of malformed mutants, not a defect.
      V = rejected();
    } else {
      if (TransformedOut)
        *TransformedOut = P.VectorizedSource;
      RunLimits Limits;
      Limits.MaxSteps = Config.MaxSteps;
      // Mutation can make the code contradict its %! annotations; a
      // divergence on a lying input blames the input, not the vectorizer.
      Limits.CheckAnnotations = true;
      if (Config.Deadline.count() > 0)
        Limits.Deadline = std::chrono::steady_clock::now() + Config.Deadline;
      if (Config.Engine == EngineMode::Vm)
        Limits.Engine = ExecEngine::Vm;
      DiffOutcome Diff =
          diffRunLimited(Source, P.VectorizedSource, Limits, Config.Tol);
      V = classifyDiff(Diff.Status, Diff.Message);
      if (V.ok() && Config.Engine == EngineMode::Both) {
        // The vectorized output is a program too; both tiers must agree
        // on it as well.
        Verdict E = engineCheck(P.VectorizedSource, Family);
        if (E.isFinding())
          return E;
      }
    }
  } catch (const std::exception &E) {
    V = finding(FindingKind::Crash,
                "crash:" + normalizeForBucket(E.what()),
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

Verdict Oracle::crossCheckCost(const std::string &Source,
                               const std::string &Family,
                               const std::string &OffOut,
                               const std::string &OnOut) const {
  if (OffOut == OnOut)
    return Verdict{};
  RunLimits Limits;
  Limits.MaxSteps = Config.MaxSteps;
  if (Config.Deadline.count() > 0)
    Limits.Deadline = std::chrono::steady_clock::now() + Config.Deadline;
  if (Config.Engine == EngineMode::Vm)
    Limits.Engine = ExecEngine::Vm;
  // Both outputs already matched the original within Tol, so by the
  // triangle inequality they agree within 2*Tol; a wider gap means the
  // cost model changed semantics, not just rounding.
  DiffOutcome Diff = diffRunLimited(OffOut, OnOut, Limits, 2 * Config.Tol);
  if (Diff.Status != DiffStatus::Mismatch)
    return Verdict{}; // re-run noise (budget/interrupt), not a verdict
  Verdict V = finding(FindingKind::CostDivergence,
                      "cost-divergence:" + normalizeForBucket(Diff.Message),
                      "cost-model-on output diverges from cost-model-off "
                      "output: " +
                          Diff.Message);
  V.F.Source = Source;
  V.F.Family = Family;
  return V;
}

Verdict Oracle::check(const std::string &Source,
                      const std::string &Family) const {
  // Under EngineMode::Both, the tier cross-check runs first: an engine
  // divergence on the *original* program poisons any differential verdict
  // about the transformation, so it dominates.
  if (Config.Engine == EngineMode::Both) {
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

Verdict Oracle::classifyJob(const JobResult &R) {
  switch (R.Status) {
  case JobStatus::Succeeded:
    return Verdict{};
  case JobStatus::Cancelled:
  case JobStatus::Degraded:
    // Degraded should not occur with DegradeOnExhaustion off (see the
    // constructor); treat it as non-finding if a custom config allows it.
    return rejected();
  case JobStatus::TimedOut: {
    if (R.Message.starts_with("deadline exceeded during vectorization"))
      return finding(FindingKind::Hang, "hang:vectorize", R.Message);
    const char *Prefix = "validation timed out: ";
    std::string Msg = R.Message.starts_with(Prefix)
                          ? R.Message.substr(std::string(Prefix).size())
                          : R.Message;
    return classifyDiff(DiffStatus::TimedOut, Msg);
  }
  case JobStatus::Failed: {
    if (R.Message.starts_with("internal error: "))
      return finding(
          FindingKind::Crash,
          "crash:" + normalizeForBucket(
                         R.Message.substr(std::string("internal error: ")
                                              .size())),
          R.Message);
    const char *Prefix = "validation failed: ";
    if (R.Message.starts_with(Prefix)) {
      std::string Msg = R.Message.substr(std::string(Prefix).size());
      // Re-derive the diff status from the message shape; the two
      // failure classes diffRunLimited can produce under this prefix are
      // Error ("... program ...") and Mismatch (everything else).
      DiffStatus Status = Msg.starts_with("original program") ||
                                  Msg.starts_with("transformed program")
                              ? DiffStatus::Error
                              : DiffStatus::Mismatch;
      return classifyDiff(Status, Msg);
    }
    // Anything else is the pipeline's diagnostics for an input it
    // refused (parse/annotation errors): invalid input, not a finding.
    return rejected();
  }
  }
  return rejected();
}

std::vector<Verdict>
Oracle::checkBatch(const std::vector<GenProgram> &Candidates) {
  const bool CostBoth = Config.Cost == CostMode::Both;
  std::vector<JobSpec> Specs;
  Specs.reserve(Candidates.size() * (CostBoth ? 2 : 1));
  for (const GenProgram &Candidate : Candidates) {
    JobSpec Spec;
    Spec.Name = Candidate.Family;
    Spec.Source = Candidate.Source;
    Spec.Opts = Config.Opts;
    if (Config.Cost == CostMode::On)
      Spec.Opts.Cost = costModel();
    Spec.Validate = true;
    Spec.Deadline = Config.Deadline;
    Spec.ValidateTol = Config.Tol;
    Spec.MaxSteps = Config.MaxSteps;
    Spec.CheckAnnotations = true;
    if (CostBoth) {
      // Paired submission: the model-on twin rides the same batch (the
      // options fingerprint separates the cache entries), and the
      // verdict loop below cross-checks each pair.
      JobSpec Twin = Spec;
      Twin.Opts.Cost = costModel();
      Specs.push_back(std::move(Spec));
      Specs.push_back(std::move(Twin));
    } else {
      Specs.push_back(std::move(Spec));
    }
  }
  std::vector<JobResult> Results = Service->runBatch(std::move(Specs));
  std::vector<Verdict> Verdicts;
  Verdicts.reserve(Candidates.size());
  for (size_t I = 0; I != Candidates.size(); ++I) {
    const JobResult &R = Results[CostBoth ? 2 * I : I];
    Verdict V = classifyJob(R);
    if (V.isFinding()) {
      V.F.Source = Candidates[I].Source;
      V.F.Family = Candidates[I].Family;
    } else if (Config.Engine == EngineMode::Both) {
      // Tier cross-check on top of the service verdict: the original
      // always, the vectorized output when one was produced. A pipeline
      // finding above still wins — it already names a defect.
      V = engineCheck(Candidates[I].Source, Candidates[I].Family);
      if (!V.isFinding() && R.succeeded() && !R.VectorizedSource.empty())
        V = engineCheck(R.VectorizedSource, Candidates[I].Family);
      if (!V.isFinding())
        V = classifyJob(R);
    }
    if (CostBoth && !V.isFinding()) {
      const JobResult &ROn = Results[2 * I + 1];
      Verdict On = classifyJob(ROn);
      if (On.isFinding()) {
        On.F.Bucket = "cost:" + On.F.Bucket;
        On.F.Source = Candidates[I].Source;
        On.F.Family = Candidates[I].Family;
        V = std::move(On);
      } else if (R.succeeded() && ROn.succeeded()) {
        Verdict Cross =
            crossCheckCost(Candidates[I].Source, Candidates[I].Family,
                           R.VectorizedSource, ROn.VectorizedSource);
        if (Cross.isFinding())
          V = std::move(Cross);
      }
    }
    Verdicts.push_back(std::move(V));
  }
  return Verdicts;
}

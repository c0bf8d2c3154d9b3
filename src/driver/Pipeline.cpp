//===- Pipeline.cpp - End-to-end vectorization pipeline ---------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "frontend/ASTPrinter.h"
#include "frontend/ASTUtils.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "resilience/FaultInjection.h"
#include "shape/AnnotationParser.h"
#include "shape/ShapeInference.h"
#include "vm/Compiler.h"
#include "vm/VM.h"

#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>
#include <unordered_map>

using namespace mvec;

namespace {

/// Runs \p Prog on \p I under the engine selected in \p Limits; the VM
/// tier compiles \p Prog first.
bool runWithEngine(Interpreter &I, const Program &Prog,
                   const RunLimits &Limits) {
  if (Limits.Engine != ExecEngine::Vm)
    return I.run(Prog);
  return vm::execute(vm::compileProgram(Prog, std::string()), I);
}

} // namespace

const PatternDatabase &mvec::defaultPatternDatabase() {
  // Built on first use and frozen before the reference escapes; C++
  // magic-static initialization makes the build race-free, and a frozen
  // database is safe to read from any number of threads.
  static const PatternDatabase &DB = []() -> const PatternDatabase & {
    // The database outlives every program arena, so its template ASTs
    // must come from the heap even if the first caller holds a scope.
    ArenaScope ForceHeap(nullptr);
    static PatternDatabase D;
    registerBuiltinPatterns(D);
    D.freeze();
    return D;
  }();
  return DB;
}

/// Whitespace-tokenized comparison of two printed transcripts. Tokens
/// that both parse fully as numbers are compared with the same relative
/// tolerance as workspace values — a reassociated reduction can shift
/// the last ulp, and round-trip printing would surface it — everything
/// else must match byte for byte.
///
/// Identical transcripts (the overwhelmingly common case) are accepted
/// with one memcmp; the tokenizer runs only on a mismatch, walking both
/// strings in place without istringstream or per-token allocation.
bool mvec::detail::outputsMatch(const std::string &OutA,
                                const std::string &OutB, double Tol) {
  if (OutA == OutB)
    return true;

  auto IsSpace = [](char C) {
    return C == ' ' || C == '\t' || C == '\n' || C == '\v' || C == '\f' ||
           C == '\r';
  };
  // Returns the half-open token range at/after Pos, or an empty range at
  // the end of input.
  auto NextToken = [&IsSpace](const std::string &S, size_t &Pos) {
    while (Pos != S.size() && IsSpace(S[Pos]))
      ++Pos;
    size_t Begin = Pos;
    while (Pos != S.size() && !IsSpace(S[Pos]))
      ++Pos;
    return std::pair<size_t, size_t>(Begin, Pos);
  };

  size_t PA = 0, PB = 0;
  std::string TA, TB; // strtod scratch, reused across tokens
  while (true) {
    auto [BeginA, EndA] = NextToken(OutA, PA);
    auto [BeginB, EndB] = NextToken(OutB, PB);
    bool HasA = BeginA != EndA, HasB = BeginB != EndB;
    if (HasA != HasB)
      return false;
    if (!HasA)
      return true;
    size_t LenA = EndA - BeginA, LenB = EndB - BeginB;
    if (LenA == LenB && OutA.compare(BeginA, LenA, OutB, BeginB, LenB) == 0)
      continue;
    TA.assign(OutA, BeginA, LenA);
    TB.assign(OutB, BeginB, LenB);
    char *TailA = nullptr, *TailB = nullptr;
    double VA = std::strtod(TA.c_str(), &TailA);
    double VB = std::strtod(TB.c_str(), &TailB);
    if (TailA == TA.c_str() || *TailA != '\0' || TailB == TB.c_str() ||
        *TailB != '\0')
      return false;
    if (std::isnan(VA) && std::isnan(VB))
      continue;
    // An infinite value makes the relative-tolerance band infinite too
    // (inf <= Tol*inf), which would accept Inf against -Inf or against
    // any finite number; infinities only ever match themselves.
    if (std::isinf(VA) || std::isinf(VB)) {
      if (VA == VB)
        continue;
      return false;
    }
    double Scale = std::fmax(1.0, std::fmax(std::fabs(VA), std::fabs(VB)));
    if (!(std::fabs(VA - VB) <= Tol * Scale))
      return false;
  }
}

PipelineResult mvec::vectorizeSource(const std::string &Source,
                                     const VectorizerOptions &Opts,
                                     const PatternDatabase *DB) {
  maybeInject(FaultSite::VectorizeEntry);
  PipelineResult Result;
  ParseResult Parsed = parseMatlab(Source, Result.Diags);
  if (Result.Diags.hasErrors())
    return Result;

  ShapeEnv Env = parseShapeAnnotations(Parsed.Annotations, Result.Diags);
  inferProgramShapes(Parsed.Prog, Env);

  if (!DB)
    DB = &defaultPatternDatabase();

  Program Vectorized = vectorizeProgram(Parsed.Prog, Env, *DB, Opts,
                                        Result.Diags, &Result.Stats);
  Result.VectorizedSource = printProgram(Vectorized);
  return Result;
}

DiffOutcome mvec::diffRunLimited(const std::string &OriginalSource,
                                 const std::string &TransformedSource,
                                 const RunLimits &Limits, double Tol,
                                 uint64_t Seed) {
  maybeInject(FaultSite::ValidateEntry);
  auto Fail = [](DiffStatus Status, std::string Message) {
    return DiffOutcome{Status, std::move(Message)};
  };
  DiagnosticEngine Diags;
  ParseResult Original = parseMatlab(OriginalSource, Diags);
  if (Diags.hasErrors())
    return Fail(DiffStatus::Error,
                "original program does not parse: " + Diags.str());
  ParseResult Transformed = parseMatlab(TransformedSource, Diags);
  if (Diags.hasErrors())
    return Fail(DiffStatus::Error,
                "transformed program does not parse: " + Diags.str());

  Interpreter A, B;
  for (Interpreter *I : {&A, &B}) {
    I->seedRandom(Seed);
    I->setStepLimit(Limits.MaxSteps);
    if (Limits.Deadline)
      I->setDeadline(*Limits.Deadline);
    I->setCancelFlag(Limits.Cancel);
  }
  // Maps an interrupted run onto the outcome status; plain runtime errors
  // stay Error.
  auto RunStatus = [](const Interpreter &I) {
    switch (I.interruptKind()) {
    case Interpreter::InterruptKind::StepLimit:
    case Interpreter::InterruptKind::Deadline:
      return DiffStatus::TimedOut;
    case Interpreter::InterruptKind::Cancelled:
      return DiffStatus::Cancelled;
    case Interpreter::InterruptKind::None:
      break;
    }
    return DiffStatus::Error;
  };
  DiagnosticEngine AnnDiags;
  ShapeEnv Declared;
  if (Limits.CheckAnnotations) {
    Declared = parseShapeAnnotations(Original.Annotations, AnnDiags);
    // Axes declared as 1 must never widen, not even transiently: the
    // vectorizer trusted the annotation for every statement it rewrote,
    // so a loop-time violation invalidates the whole comparison even if
    // the final workspace happens to conform.
    std::unordered_map<std::string, std::pair<bool, bool>> Caps;
    for (const auto &[Name, Dim] : Declared.shapes()) {
      bool RowCapped = Dim.size() > 0 && Dim[0].isOne();
      bool ColCapped = Dim.size() > 1 && Dim[1].isOne();
      if (RowCapped || ColCapped)
        Caps[Name] = {RowCapped, ColCapped};
    }
    A.setShapeCaps(std::move(Caps));
  }

  if (!runWithEngine(A, Original.Prog, Limits))
    return Fail(RunStatus(A), "original program failed: " + A.errorMessage());

  if (Limits.CheckAnnotations) {
    for (const auto &[Name, Dim] : Declared.shapes()) {
      const Value *V = A.getVariable(Name);
      if (!V)
        continue; // never materialized: nothing to contradict
      size_t Actual[2] = {V->rows(), V->cols()};
      bool Honored = true;
      for (size_t I = 0; I != Dim.size(); ++I) {
        size_t Size = I < 2 ? Actual[I] : 1;
        if (Dim[I].isOne() ? Size != 1 : Size <= 1)
          Honored = false;
      }
      if (!Honored)
        return Fail(DiffStatus::Error,
                    "original program violates annotation: '" + Name +
                        "' declared " + Dim.str() + " but is " +
                        std::to_string(V->rows()) + "x" +
                        std::to_string(V->cols()));
    }
  }

  if (!runWithEngine(B, Transformed.Prog, Limits))
    return Fail(RunStatus(B),
                "transformed program failed: " + B.errorMessage());

  // For-loop index variables of either program are incidental state: a
  // vectorized loop never materializes its index.
  std::set<std::string> Ignore;
  auto CollectIndexVars = [&Ignore](const Program &P) {
    visitStmts(P.Stmts, [&Ignore](const Stmt &S) {
      if (const auto *For = dyn_cast<ForStmt>(&S))
        Ignore.insert(For->indexVar());
    });
  };
  CollectIndexVars(Original.Prog);
  CollectIndexVars(Transformed.Prog);

  for (const auto &[Name, ValueA] : A.workspace()) {
    if (Ignore.count(Name))
      continue;
    const Value *ValueB = B.getVariable(Name);
    if (!ValueB)
      return Fail(DiffStatus::Mismatch,
                  "variable '" + Name + "' missing after transformation");
    if (!ValueA.equals(*ValueB, Tol))
      return Fail(DiffStatus::Mismatch, "variable '" + Name +
                                            "' differs: " + ValueA.str() +
                                            " vs " + ValueB->str());
  }
  for (const auto &[Name, ValueB] : B.workspace()) {
    (void)ValueB;
    if (!Ignore.count(Name) && !A.getVariable(Name))
      return Fail(DiffStatus::Mismatch,
                  "transformation introduced variable '" + Name + "'");
  }
  if (!detail::outputsMatch(A.output(), B.output(), Tol))
    return Fail(DiffStatus::Mismatch, "printed output differs");
  return DiffOutcome{};
}

DiffOutcome mvec::engineDiffRun(const std::string &Source,
                                const RunLimits &Limits, uint64_t Seed) {
  DiagnosticEngine Diags;
  ParseResult Parsed = parseMatlab(Source, Diags);
  if (Diags.hasErrors())
    return DiffOutcome{DiffStatus::Error,
                       "program does not parse: " + Diags.str()};
  return engineDiffRun(Parsed.Prog, Limits, Seed);
}

DiffOutcome mvec::engineDiffRun(const Program &Prog, const RunLimits &Limits,
                                uint64_t Seed) {
  Interpreter Ast, Vm;
  for (Interpreter *I : {&Ast, &Vm}) {
    I->seedRandom(Seed);
    I->setStepLimit(Limits.MaxSteps);
    if (Limits.Deadline)
      I->setDeadline(*Limits.Deadline);
    I->setCancelFlag(Limits.Cancel);
  }

  RunLimits AstLimits = Limits;
  AstLimits.Engine = ExecEngine::Ast;
  RunLimits VmLimits = Limits;
  VmLimits.Engine = ExecEngine::Vm;
  bool AstOk = runWithEngine(Ast, Prog, AstLimits);
  bool VmOk = runWithEngine(Vm, Prog, VmLimits);

  // A wall-clock interrupt (deadline/cancel) on either side makes the
  // comparison inconclusive: where the clock fires is nondeterministic,
  // so the engines legitimately stop at different statements.
  auto WallClock = [](const Interpreter &I) {
    return I.interruptKind() == Interpreter::InterruptKind::Deadline ||
           I.interruptKind() == Interpreter::InterruptKind::Cancelled;
  };
  if (WallClock(Ast) || WallClock(Vm)) {
    bool Cancelled =
        Ast.interruptKind() == Interpreter::InterruptKind::Cancelled ||
        Vm.interruptKind() == Interpreter::InterruptKind::Cancelled;
    return DiffOutcome{Cancelled ? DiffStatus::Cancelled
                                 : DiffStatus::TimedOut,
                       ""};
  }

  auto Mismatch = [](std::string Message) {
    return DiffOutcome{DiffStatus::Mismatch, std::move(Message)};
  };
  if (AstOk != VmOk || Ast.failed() != Vm.failed())
    return Mismatch(std::string("engines disagree on failure: ast ") +
                    (Ast.failed() ? "failed" : "succeeded") + " ('" +
                    Ast.errorMessage() + "'), vm " +
                    (Vm.failed() ? "failed" : "succeeded") + " ('" +
                    Vm.errorMessage() + "')");
  if (Ast.failed()) {
    if (Ast.errorMessage() != Vm.errorMessage())
      return Mismatch("error messages differ: ast '" + Ast.errorMessage() +
                      "' vs vm '" + Vm.errorMessage() + "'");
    if (!(Ast.errorLoc() == Vm.errorLoc()))
      return Mismatch(
          "error locations differ: ast " +
          std::to_string(Ast.errorLoc().Line) + ":" +
          std::to_string(Ast.errorLoc().Col) + " vs vm " +
          std::to_string(Vm.errorLoc().Line) + ":" +
          std::to_string(Vm.errorLoc().Col) + " for '" +
          Ast.errorMessage() + "'");
  }
  if (Ast.interruptKind() != Vm.interruptKind())
    return Mismatch("interrupt kinds differ");
  if (Ast.stepsExecuted() != Vm.stepsExecuted())
    return Mismatch("step counts differ: ast " +
                    std::to_string(Ast.stepsExecuted()) + " vs vm " +
                    std::to_string(Vm.stepsExecuted()));
  if (Ast.output() != Vm.output())
    return Mismatch("printed output differs byte-for-byte");

  // Workspaces must agree exactly — tolerance 0 (Value::equals treats
  // NaN as equal to NaN, so identical computations always pass).
  auto WsA = Ast.workspace();
  auto WsB = Vm.workspace();
  for (const auto &[Name, ValueA] : WsA) {
    const Value *ValueB = Vm.getVariable(Name);
    if (!ValueB)
      return Mismatch("variable '" + Name + "' defined by ast engine only");
    if (!ValueA.equals(*ValueB, 0.0))
      return Mismatch("variable '" + Name + "' differs: ast " +
                      ValueA.str() + " vs vm " + ValueB->str());
  }
  for (const auto &[Name, ValueB] : WsB) {
    (void)ValueB;
    if (!Ast.getVariable(Name))
      return Mismatch("variable '" + Name + "' defined by vm engine only");
  }
  return DiffOutcome{};
}

std::string mvec::diffRun(const std::string &OriginalSource,
                          const std::string &TransformedSource, double Tol,
                          uint64_t Seed) {
  return diffRunLimited(OriginalSource, TransformedSource, RunLimits{}, Tol,
                        Seed)
      .Message;
}

std::optional<std::string>
mvec::vectorizeAndValidate(const std::string &Source, std::string &Error,
                           const VectorizerOptions &Opts) {
  PipelineResult Result = vectorizeSource(Source, Opts);
  if (!Result.succeeded()) {
    Error = "vectorization failed: " + Result.Diags.str();
    return std::nullopt;
  }
  std::string Diff = diffRun(Source, Result.VectorizedSource);
  if (!Diff.empty()) {
    Error = "semantic divergence: " + Diff + "\n--- vectorized ---\n" +
            Result.VectorizedSource;
    return std::nullopt;
  }
  return Result.VectorizedSource;
}

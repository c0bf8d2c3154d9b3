//===- Workload.cpp - Helpers shared by the workloads ---------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "Calibration.h"
#include "cost/CostModel.h"
#include "deps/DepAnalysis.h"
#include "deps/LoopNest.h"
#include "frontend/ASTPrinter.h"
#include "frontend/ASTUtils.h"
#include "shape/AnnotationParser.h"
#include "shape/ShapeInference.h"

using namespace mvec;

namespace perfbench {

void Samples::writeTo(Json &J) const {
  // Read before the reply is serialized, so the reply's own size (which
  // grows with how many samples a fast host collects) stays out of it.
  J.field("peak_rss_kb", peakRssKb());
  J.field("attempted", Attempted)
      .field("failed", Failed)
      .field("rejected", Rejected);
  J.key("series").beginObject();
  for (const auto &[Name, Values] : Series) {
    J.key(Name);
    J.numArray(Values);
  }
  J.endObject();
  J.key("counts").beginObject();
  for (const auto &[Name, Value] : Counts)
    J.field(Name, Value);
  J.endObject();
  J.key("violations").beginArray();
  for (const std::string &V : Violations)
    J.str(V);
  J.endArray();
}

void timeRunForms(const PreparedProgram &P, unsigned LoopReps,
                  unsigned VecReps, bool Check, double CalibMs, Samples &S) {
  using Form = PreparedProgram::Form;
  using Engine = PreparedProgram::Engine;
  struct Variant {
    const char *Series;
    const char *Span;
    Form F;
    Engine E;
  };
  static const Variant Variants[] = {
      {"run.loop.", "interp.run", Form::Loop, Engine::Ast},
      {"run.vec.", "interp.run", Form::Vectorized, Engine::Ast},
      {"run.vm_loop.", "vm.execute", Form::Loop, Engine::Vm},
      {"run.vm_vec.", "vm.execute", Form::Vectorized, Engine::Vm},
  };
  double CompileMs;
  {
    Tracer::Scope Span(tracer(), "vm.compileProgram");
    CompileMs = P.recompileMs();
  }
  if (CompileMs < 0)
    S.violation(P.name() + ": bytecode is not stable");
  S.add("vm.compile." + P.name(), CompileMs);
  std::map<std::string, mvec::Value> Reference, Got;
  for (const Variant &V : Variants) {
    bool IsReference = V.F == Form::Loop && V.E == Engine::Ast;
    double Calib = CalibMs > 0 ? CalibMs : calibrationMs();
    if (CalibMs <= 0)
      S.add("calib_ms", Calib);
    std::vector<double> CallMs;
    bool Ok;
    {
      Tracer::Scope Span(tracer(), V.Span);
      Ok = P.time(V.F, V.E, V.F == Form::Loop ? LoopReps : VecReps, CallMs,
                  Check ? (IsReference ? &Reference : &Got) : nullptr);
    }
    if (!Ok) {
      S.violation(P.name() + ": " + V.Series + " run failed");
      continue;
    }
    double Sum = 0;
    for (double Ms : CallMs)
      Sum += Ms;
    S.add(V.Series + P.name(), Sum / CallMs.size());
    S.add(std::string("calib.") + V.Series + P.name(), Calib);
    if (Check && !IsReference) {
      std::string Diff = P.compare(Reference, Got);
      if (!Diff.empty())
        S.violation(P.name() + ": " + V.Series +
                    " workspace differs from the loop program's: " + Diff);
    }
  }
}

void traceLayers(const std::string &Source, const std::string &Vectorized,
                 bool CostOn, bool RunInterp, bool CountDeps, Samples &S) {
  DiagnosticEngine Diags;
  ParseResult Parsed;
  {
    Tracer::Scope Span(tracer(), "frontend.parseMatlab");
    Parsed = parseMatlab(Source, Diags);
  }
  ShapeEnv Env;
  {
    Tracer::Scope Span(tracer(), "shape.infer");
    Env = parseShapeAnnotations(Parsed.Annotations, Diags);
    inferProgramShapes(Parsed.Prog, Env);
  }
  {
    Tracer::Scope Span(tracer(), "deps.analyze");
    uint64_t Edges = 0;
    for (const StmtPtr &St : Parsed.Prog.Stmts) {
      const auto *For = dyn_cast<ForStmt>(St.get());
      if (!For)
        continue;
      StmtPtr Clone = For->clone();
      auto *Loop = cast<ForStmt>(Clone.get());
      normalizeLoopIndices(*Loop);
      std::string Reason;
      if (std::optional<LoopNest> Nest = buildLoopNest(*Loop, Reason))
        Edges += buildDepGraph(*Nest, Env).Edges.size();
    }
    if (CountDeps)
      S.Counts["deps.edges"] += Edges;
  }
  VectorizerOptions Opts;
  if (CostOn)
    Opts.Cost = &cost::builtinCostModel();
  Program Out;
  {
    Tracer::Scope Span(tracer(), CostOn ? "vectorizer.cost_on"
                                           : "vectorizer.cost_off");
    Out = vectorizeProgram(Parsed.Prog, Env, defaultPatternDatabase(), Opts,
                           Diags);
  }
  std::string Printed;
  {
    Tracer::Scope Span(tracer(), "driver.printProgram");
    Printed = printProgram(Out);
  }
  if (Printed != Vectorized)
    S.violation("layer-by-layer pipeline disagrees with vectorizeSource");
  if (!RunInterp)
    return;

  DiagnosticEngine RunDiags;
  ParseResult Original = parseMatlab(Source, RunDiags);
  ParseResult Transformed = parseMatlab(Vectorized, RunDiags);
  Tracer::Scope Span(tracer(), "interp.validate_run");
  for (const Program *P : {&Original.Prog, &Transformed.Prog}) {
    Interpreter I;
    I.seedRandom(ValidateRunSeed);
    I.setStepLimit(ValidateMaxSteps);
    I.run(*P);
  }
}

} // namespace perfbench

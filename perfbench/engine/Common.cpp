//===- Common.cpp - Shared pieces of the perfbench measurement engine ----===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "bench/Corpus.h"
#include "frontend/AST.h"
#include "frontend/ASTPrinter.h"
#include "frontend/ASTUtils.h"
#include "vm/Compiler.h"
#include "vm/VM.h"

#include <cmath>
#include <cstdio>
#include <set>
#include <sys/resource.h>

using namespace mvec;

namespace perfbench {

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

void Json::separate() {
  if (NeedComma)
    Out += ',';
  NeedComma = true;
}

Json &Json::key(const std::string &K) {
  separate();
  quote(K);
  Out += ':';
  NeedComma = false;
  return *this;
}

Json &Json::num(double V) {
  separate();
  if (!std::isfinite(V)) {
    Out += "null";
    return *this;
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  Out += Buf;
  return *this;
}

Json &Json::integer(uint64_t V) {
  separate();
  Out += std::to_string(V);
  return *this;
}

Json &Json::str(const std::string &S) {
  separate();
  quote(S);
  return *this;
}

void Json::quote(const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

Json &Json::boolean(bool B) {
  separate();
  Out += B ? "true" : "false";
  return *this;
}

Json &Json::raw(const std::string &Text) {
  separate();
  Out += Text;
  return *this;
}

Json &Json::beginObject() {
  separate();
  Out += '{';
  NeedComma = false;
  return *this;
}

Json &Json::endObject() {
  Out += '}';
  NeedComma = true;
  return *this;
}

Json &Json::beginArray() {
  separate();
  Out += '[';
  NeedComma = false;
  return *this;
}

Json &Json::endArray() {
  Out += ']';
  NeedComma = true;
  return *this;
}

Json &Json::numArray(const std::vector<double> &Values) {
  beginArray();
  for (double V : Values)
    num(V);
  return endArray();
}

void reply(const Json &J) {
  std::fwrite(J.text().data(), 1, J.text().size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer &tracer() {
  static Tracer T;
  return T;
}

Tracer::Scope::Scope(Tracer &T, const char *Name) : T(T) {
  if (!T.Enabled)
    return;
  Index = static_cast<int32_t>(T.Spans.size());
  SavedOpen = T.Open;
  T.Spans.push_back({Name, T.Open, 0, 0});
  T.Open = Index;
  Start = Clock::now();
}

Tracer::Scope::~Scope() {
  if (Index < 0)
    return;
  auto End = Clock::now();
  Span &S = T.Spans[Index];
  S.StartNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Start - T.Epoch)
          .count();
  S.DurNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(End - Start)
          .count();
  T.Open = SavedOpen;
}

void Tracer::record(const char *Name, Clock::time_point Start,
                    Clock::time_point End) {
  if (!Enabled)
    return;
  auto Ns = [](Clock::duration D) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(D).count();
  };
  Spans.push_back({Name, Open, Ns(Start - Epoch), Ns(End - Start)});
}

void Tracer::drainTo(Json &J) {
  J.beginArray();
  for (const Span &S : Spans) {
    J.beginArray();
    J.str(S.Name).integer(static_cast<uint64_t>(S.Parent + 1));
    J.integer(static_cast<uint64_t>(S.StartNs))
        .integer(static_cast<uint64_t>(S.DurNs));
    J.endArray();
  }
  J.endArray();
  Spans.clear();
  Open = -1;
}

//===----------------------------------------------------------------------===//
// PreparedProgram
//===----------------------------------------------------------------------===//

bool PreparedProgram::prepare(std::string ProgName, std::string Setup,
                              std::string KernelText, uint64_t RunSeed,
                              std::string &Error) {
  Name = std::move(ProgName);
  Seed = RunSeed;
  DiagnosticEngine Diags;
  ParseResult SetupParse = parseMatlab(Setup, Diags);
  Kernel = parseMatlab(KernelText, Diags);
  if (Diags.hasErrors()) {
    Error = Name + ": does not parse: " + Diags.str();
    return false;
  }

  PipelineResult R = vectorizeSource(Setup + KernelText);
  if (!R.succeeded()) {
    Error = Name + ": vectorization failed: " + R.Diags.str();
    return false;
  }
  VectorizedSource = R.VectorizedSource;
  Stats = R.Stats;

  // The vectorized program re-renders setup and kernel; the setup part
  // has no loops, so its statements map one to one and the kernel is the
  // tail.
  DiagnosticEngine VecDiags;
  ParseResult VecFull = parseMatlab(VectorizedSource, VecDiags);
  if (VecDiags.hasErrors()) {
    Error = Name + ": vectorized source does not parse: " + VecDiags.str();
    return false;
  }
  VecKernel = Program();
  for (size_t S = SetupParse.Prog.Stmts.size(); S < VecFull.Prog.Stmts.size();
       ++S)
    VecKernel.Stmts.push_back(VecFull.Prog.Stmts[S]->clone());

  KernelSource = KernelText;
  VecKernelSource = printProgram(VecKernel);
  VmLoop = vm::compileProgram(Kernel.Prog, KernelSource);
  VmVec = vm::compileProgram(VecKernel, VecKernelSource);

  Interpreter I;
  I.seedRandom(Seed);
  if (!I.run(SetupParse.Prog)) {
    Error = Name + ": setup failed: " + I.errorMessage();
    return false;
  }
  SetupWorkspace = I.workspace();

  std::set<std::string> Index;
  auto Collect = [&Index](const Program &P) {
    visitStmts(P.Stmts, [&Index](const Stmt &S) {
      if (const auto *For = dyn_cast<ForStmt>(&S))
        Index.insert(For->indexVar());
    });
  };
  Collect(Kernel.Prog);
  Collect(VecKernel);
  IndexVars.assign(Index.begin(), Index.end());
  return true;
}

bool PreparedProgram::time(Form F, Engine E, unsigned Reps,
                           std::vector<double> &CallMs,
                           std::map<std::string, Value> *Workspace) const {
  Interpreter I;
  I.seedRandom(Seed + 1);
  for (const auto &[VarName, V] : SetupWorkspace)
    I.setVariable(VarName, V);
  const Program &P = F == Form::Loop ? Kernel.Prog : VecKernel;
  const vm::CompiledProgram &C = F == Form::Loop ? VmLoop : VmVec;
  auto RunOnce = [&]() {
    return E == Engine::Ast ? I.run(P) : vm::execute(C, I);
  };
  // The workspace after the first call from the setup state is what the
  // correctness check compares; with several reps that call is untimed.
  bool Warm = Reps > 1;
  if (Warm) {
    if (!RunOnce())
      return false;
    if (Workspace)
      *Workspace = I.workspace();
  }
  for (unsigned R = 0; R != Reps; ++R) {
    auto T0 = Clock::now();
    if (!RunOnce())
      return false;
    CallMs.push_back(msSince(T0, Clock::now()));
    if (Workspace && !Warm)
      *Workspace = I.workspace();
  }
  return true;
}

double PreparedProgram::recompileMs() const {
  auto T0 = Clock::now();
  vm::CompiledProgram A = vm::compileProgram(Kernel.Prog, KernelSource);
  vm::CompiledProgram B = vm::compileProgram(VecKernel, VecKernelSource);
  double Ms = msSince(T0, Clock::now());
  if (A.Instrs.size() != VmLoop.Instrs.size() ||
      B.Instrs.size() != VmVec.Instrs.size())
    return -1;
  return Ms;
}

std::string
PreparedProgram::compare(const std::map<std::string, Value> &Ref,
                         const std::map<std::string, Value> &Got) const {
  auto Ignored = [this](const std::string &V) {
    for (const std::string &I : IndexVars)
      if (I == V)
        return true;
    return false;
  };
  for (const auto &[VarName, RefValue] : Ref) {
    if (Ignored(VarName))
      continue;
    auto It = Got.find(VarName);
    if (It == Got.end())
      return "variable '" + VarName + "' missing";
    if (!RefValue.equals(It->second, 1e-9))
      return "variable '" + VarName + "' differs";
  }
  for (const auto &[VarName, V] : Got) {
    (void)V;
    if (!Ignored(VarName) && !Ref.count(VarName))
      return "variable '" + VarName + "' introduced";
  }
  return "";
}

uint64_t peakRssKb() {
  rusage Self{}, Children{};
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Children);
  return static_cast<uint64_t>(Self.ru_maxrss) +
         static_cast<uint64_t>(Children.ru_maxrss);
}

//===----------------------------------------------------------------------===//
// The paper corpus at small sizes
//===----------------------------------------------------------------------===//

const std::vector<NamedSource> &paperCorpus() {
  // bench/Corpus.h names the Table 3 examples by their figure; the rows
  // here use paper-kernels' names so per-program rows line up.
  static const std::vector<NamedSource> Corpus = [] {
    const std::map<std::string, std::string> Renamed = {
        {"fig5-ex1-forward-elim", "table3-ex1"},
        {"fig5-ex2-phi", "table3-ex2"},
        {"fig5-ex3-quad", "table3-ex3"}};
    std::vector<NamedSource> Out;
    for (mvecbench::CorpusProgram &P : mvecbench::paperCorpus()) {
      auto It = Renamed.find(P.Name);
      Out.push_back({It == Renamed.end() ? P.Name : It->second,
                     std::move(P.Source)});
    }
    return Out;
  }();
  return Corpus;
}

} // namespace perfbench

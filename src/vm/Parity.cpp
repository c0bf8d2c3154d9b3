//===- Parity.cpp - Walker/VM parity check --------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Parity.h"

#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "vm/Compiler.h"
#include "vm/VM.h"

using namespace mvec;

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

  bool AstOk = Ast.run(Prog);
  bool VmOk = vm::execute(vm::compileProgram(Prog, std::string()), Vm);

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

//===- Interpreter.cpp - MATLAB interpreter --------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "frontend/ASTUtils.h"
#include "interp/Builtins.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <cmath>

using namespace mvec;

void Interpreter::fail(SourceLoc Loc, std::string Message) {
  if (Failed)
    return;
  Failed = true;
  ErrorMsg = std::move(Message);
  ErrorLoc = Loc;
}

double Interpreter::nextRandom() {
  // xorshift64*: deterministic, seedable, good enough for workloads.
  RandState ^= RandState >> 12;
  RandState ^= RandState << 25;
  RandState ^= RandState >> 27;
  uint64_t Bits = RandState * 0x2545F4914F6CDD1Dull;
  return static_cast<double>(Bits >> 11) * (1.0 / 9007199254740992.0);
}

//===----------------------------------------------------------------------===//
// Pre-pass: name interning and builtin resolution
//===----------------------------------------------------------------------===//

void Interpreter::clearPrepared() {
  NodeCache.clear();
  PlanCode.clear();
  Plans.clear();
  PlanCommitted = 0;
}

unsigned Interpreter::noteName(const void *Node, const std::string &Name) {
  NodeInfo Info;
  Info.Slot = static_cast<int>(Env.intern(Name));
  Info.Builtin = builtinIdFor(Name);
  Info.IsPi = Name == "pi";
  NodeCache.insert(Node, Info);
  return static_cast<unsigned>(Info.Slot);
}

void Interpreter::noteNames(const Expr &E) {
  visitExpr(E, [&](const Expr &Node) {
    if (const auto *Ident = dyn_cast<IdentExpr>(&Node))
      noteName(Ident, Ident->name());
    else if (const auto *Index = dyn_cast<IndexExpr>(&Node))
      if (const auto *Base = dyn_cast<IdentExpr>(Index->base()))
        noteName(Index, Base->name());
  });
}

void Interpreter::prepare(const Program &P) {
  clearPrepared();
  // A fresh interpreter takes its plan buffers in two allocations, not
  // one per doubling; a warm one keeps what earlier runs grew.
  PlanCode.reserve(256);
  Plans.reserve(64);
  prepareBody(P.Stmts, /*InLoop=*/false);
}

void Interpreter::prepareBody(const std::vector<StmtPtr> &Body, bool InLoop) {
  // Outside any loop a statement runs once per run(), so compiling its
  // plans would cost more than they save: its names are only noted.
  auto Note = [&](const Expr &E) {
    if (InLoop)
      notePlanNames(E);
    else
      noteNames(E);
  };
  for (const StmtPtr &SP : Body) {
    switch (SP->kind()) {
    case Stmt::Kind::Assign:
      prepareAssign(cast<AssignStmt>(*SP), InLoop);
      break;
    case Stmt::Kind::Expr:
      Note(*cast<ExprStmt>(*SP).expr());
      break;
    case Stmt::Kind::For: {
      const auto &F = cast<ForStmt>(*SP);
      NodeInfo Info;
      Info.Slot = static_cast<int>(Env.intern(F.indexVar()));
      NodeCache.insert(&F, Info);
      Note(*F.range());
      prepareBody(F.body(), /*InLoop=*/true);
      break;
    }
    case Stmt::Kind::While: {
      // The condition runs on every iteration.
      const auto &W = cast<WhileStmt>(*SP);
      notePlanNames(*W.cond());
      prepareBody(W.body(), /*InLoop=*/true);
      break;
    }
    case Stmt::Kind::If:
      for (const IfStmt::Branch &B : cast<IfStmt>(*SP).branches()) {
        if (B.Cond)
          Note(*B.Cond);
        prepareBody(B.Body, InLoop);
      }
      break;
    default:
      break;
    }
  }
}

void Interpreter::prepareAssign(const AssignStmt &S, bool InLoop) {
  const Expr &L = *S.lhs(), &R = *S.rhs();
  const auto *Index = dyn_cast<IndexExpr>(&L);
  const auto *Base = Index ? dyn_cast<IdentExpr>(Index->base()) : nullptr;
  NodeInfo Info;
  if (!InLoop) {
    noteNames(L);
    noteNames(R);
    if (const NodeInfo *Target =
            cachedInfo(Base ? static_cast<const Expr *>(Index) : &L))
      Info.Slot = Target->Slot;
    NodeCache.insert(&S, Info);
    return;
  }
  if (const auto *Ident = dyn_cast<IdentExpr>(&L)) {
    Info.Slot = static_cast<int>(noteName(Ident, Ident->name()));
  } else if (Base) {
    // The target element's offset: its subscripts against the target.
    Info.Slot = static_cast<int>(noteName(Index, Base->name()));
    noteName(Base, Base->name());
    size_t Begin = PlanCode.size();
    PlanCode.emplace_back(PlanOpcode::Target);
    PlanShape Shape;
    if (compileSubscripts(*Index, Shape))
      Info.LhsPlan = commitPlan(Begin, Shape.Frames - 1);
    else
      dropPlanCode(Begin);
  } else {
    notePlanNames(L);
  }
  // A bare variable stored into a variable stays a COW copy of it
  // (sharing any heap payload), which a fresh scalar would not reproduce.
  size_t Begin = PlanCode.size();
  PlanShape Shape;
  if (isa<IdentExpr>(&L) && isa<IdentExpr>(&R))
    notePlanNames(R);
  else if (compilePlan(R, -1, Shape))
    Info.Plan = commitPlan(Begin, Shape.Frames);
  NodeCache.insert(&S, Info);
}

//===----------------------------------------------------------------------===//
// Scalar plans
//===----------------------------------------------------------------------===//

uint32_t Interpreter::commitPlan(size_t Begin, unsigned Frames) {
  Plans.push_back({static_cast<uint32_t>(Begin),
                   static_cast<uint32_t>(PlanCode.size()), Frames});
  PlanCommitted = PlanCode.size();
  return static_cast<uint32_t>(Plans.size() - 1);
}

void Interpreter::notePlanNames(const Expr &E) {
  size_t Begin = PlanCode.size();
  PlanShape Shape;
  compilePlan(E, -1, Shape);
  dropPlanCode(Begin);
}

bool Interpreter::compilePlan(const Expr &E, int EndDim, PlanShape &Shape) {
  size_t Begin = PlanCode.size();
  if (compilePlanNode(E, EndDim, Shape) && Shape.Stack <= PlanStackMax &&
      Shape.Bases <= PlanBaseMax)
    return true;
  dropPlanCode(Begin);
  return false;
}

bool Interpreter::compilePlanNode(const Expr &E, int EndDim,
                                  PlanShape &Shape) {
  // A leaf takes one frame and one stack entry.
  Shape = {1, 1, 0};
  switch (E.kind()) {
  case Expr::Kind::Number:
    PlanCode.emplace_back(PlanOpcode::Const).K = cast<NumberExpr>(E).value();
    return true;
  case Expr::Kind::Ident:
    // A logical scalar would select by mask as a subscript; 'pi' and
    // builtins are undefined slots: Var's guards.
    PlanCode.emplace_back(PlanOpcode::Var,
                          noteName(&E, cast<IdentExpr>(E).name()));
    return true;
  case Expr::Kind::EndKeyword:
    if (EndDim < 0)
      return false;
    PlanCode.emplace_back(PlanOpcode::End, static_cast<uint32_t>(EndDim));
    return true;
  case Expr::Kind::String:
  case Expr::Kind::MagicColon:
    return false;
  case Expr::Kind::Range: {
    const auto &R = cast<RangeExpr>(E);
    notePlanNames(*R.start());
    if (R.step())
      notePlanNames(*R.step());
    notePlanNames(*R.stop());
    return false;
  }
  case Expr::Kind::Matrix:
    for (const MatrixExpr::Row &Row : cast<MatrixExpr>(E).rows())
      for (const ExprPtr &Elt : Row)
        notePlanNames(*Elt);
    return false;
  case Expr::Kind::Unary: {
    const auto &U = cast<UnaryExpr>(E);
    if (U.op() != UnaryOp::Minus) {
      notePlanNames(*U.operand());
      return false;
    }
    if (!compilePlan(*U.operand(), EndDim, Shape))
      return false;
    ++Shape.Frames;
    PlanCode.emplace_back(PlanOpcode::Neg);
    return true;
  }
  case Expr::Kind::Transpose:
    // The transpose of a 1x1 value is itself: a frame, no code.
    if (!compilePlan(*cast<TransposeExpr>(E).operand(), EndDim, Shape))
      return false;
    ++Shape.Frames;
    return true;
  case Expr::Kind::Binary: {
    const auto &B = cast<BinaryExpr>(E);
    const Expr *First = B.lhs(), *Second = B.rhs();
    PlanOpcode Code;
    switch (B.op()) {
    case BinaryOp::Add: {
      // evalBinary fuses a product operand (the left one first), and
      // scalarMulAdd makes the product the left addend (its NaN wins,
      // see firstNaN): a product on the right only is computed first.
      auto IsProduct = [](const Expr *X) {
        const auto *P = dyn_cast<BinaryExpr>(X);
        return P && (P->op() == BinaryOp::Mul || P->op() == BinaryOp::DotMul);
      };
      if (!IsProduct(First) && IsProduct(Second))
        std::swap(First, Second);
      Code = PlanOpcode::Add;
      break;
    }
    case BinaryOp::Sub:
      Code = PlanOpcode::Sub;
      break;
    case BinaryOp::Mul:
    case BinaryOp::DotMul:
      Code = PlanOpcode::Mul;
      break;
    case BinaryOp::Div:
    case BinaryOp::DotDiv:
      Code = PlanOpcode::Div;
      break;
    default:
      notePlanNames(*B.lhs());
      notePlanNames(*B.rhs());
      return false;
    }
    PlanShape L, R;
    // Both sides are compiled, so the second one's names are noted even
    // when the first one is outside the subset.
    bool Ok = compilePlan(*First, EndDim, L);
    Ok = compilePlan(*Second, EndDim, R) && Ok;
    if (!Ok)
      return false;
    Shape = {1 + std::max(L.Frames, R.Frames), std::max(L.Stack, 1 + R.Stack),
             std::max(L.Bases, R.Bases)};
    PlanCode.emplace_back(Code);
    return true;
  }
  case Expr::Kind::Index: {
    const auto &Index = cast<IndexExpr>(E);
    const auto *Base = dyn_cast<IdentExpr>(Index.base());
    if (!Base) {
      notePlanNames(*Index.base());
      for (unsigned I = 0, N = Index.numArgs(); I != N; ++I)
        notePlanNames(*Index.arg(I));
      return false;
    }
    size_t Begin = PlanCode.size();
    PlanCode.emplace_back(PlanOpcode::Base, noteName(&Index, Base->name()));
    noteName(Base, Base->name());
    if (!compileSubscripts(Index, Shape))
      return false;
    NodeCache.find(&Index)->Plan = commitPlan(Begin, Shape.Frames - 1);
    return true;
  }
  }
  return false;
}

bool Interpreter::compileSubscripts(const IndexExpr &E, PlanShape &Shape) {
  size_t BaseAt = PlanCode.size() - 1;
  bool Offset = PlanCode[BaseAt].Code == PlanOpcode::Target;
  unsigned N = E.numArgs();
  if (N == 0 || N > 2) {
    for (unsigned I = 0; I != N; ++I)
      notePlanNames(*E.arg(I));
    return false;
  }
  // Each subscript binds its own 'end': the numel of a linear subscript,
  // else the rows or the columns.
  PlanShape Row, Col;
  bool Ok = compilePlan(*E.arg(0), N == 1 ? 0 : 1, Row);
  if (N == 2)
    Ok = compilePlan(*E.arg(1), 2, Col) && Ok;
  if (!Ok)
    return false;
  Shape = {1 + std::max(Row.Frames, Col.Frames),
           std::max(Row.Stack, N == 2 ? 1 + Col.Stack : 1),
           1 + std::max(Row.Bases, Col.Bases)};
  if (Shape.Stack > PlanStackMax || Shape.Bases > PlanBaseMax)
    return false;
  // Subscripts that are plain variables fold into the base instruction.
  PlanOp &BaseOp = PlanCode[BaseAt];
  bool Folds = PlanCode.size() == BaseAt + 1 + N &&
               PlanCode[BaseAt + 1].Code == PlanOpcode::Var &&
               PlanCode.back().Code == PlanOpcode::Var;
  if (Folds) {
    BaseOp.Slots = {PlanCode[BaseAt + 1].A, PlanCode.back().A};
    if (Offset)
      BaseOp.Code = N == 1 ? PlanOpcode::OffsetVar1 : PlanOpcode::OffsetVar2;
    else
      BaseOp.Code = N == 1 ? PlanOpcode::ElemVar1 : PlanOpcode::ElemVar2;
    PlanCode.resize(BaseAt + 1);
    return true;
  }
  if (Offset)
    PlanCode.emplace_back(N == 1 ? PlanOpcode::Offset1 : PlanOpcode::Offset2);
  else
    PlanCode.emplace_back(N == 1 ? PlanOpcode::Elem1 : PlanOpcode::Elem2);
  return true;
}

bool Interpreter::runPlan(uint32_t Id, const Value *Target,
                          double &Out) const {
  const ScalarPlan &P = Plans[Id];
  if (EvalDepth + P.Frames > MaxEvalDepth)
    return false;
  // A 1x1 non-logical variable's value.
  auto Scalar = [this](uint32_t Slot, double &D) {
    if (!Env.isDefined(Slot))
      return false;
    const Value &V = Env.slotValue(Slot);
    if (!V.isScalar() || V.isLogical())
      return false;
    D = V.raw()[0];
    return true;
  };
  // A defined non-logical variable (a logical base yields a logical
  // element). A variable is never a view and owes nothing
  // (Workspace::define materializes), so raw() applies.
  auto Array = [this](uint32_t Slot) -> const Value * {
    if (!Env.isDefined(Slot))
      return nullptr;
    const Value &V = Env.slotValue(Slot);
    return V.isLogical() ? nullptr : &V;
  };
  // toIndex's fast check without its slow path, which reports the errors
  // the general path will report.
  auto Linear = [](const Value &B, double S, size_t &Off) {
    return integralIndex(S, indexLimit(B.numel()), Off);
  };
  auto Element = [](const Value &B, double R, double C, size_t &Off) {
    size_t Row, Col;
    if (!integralIndex(R, indexLimit(B.rows()), Row) ||
        !integralIndex(C, indexLimit(B.cols()), Col))
      return false;
    Off = Col * B.rows() + Row;
    return true;
  };
  // X op Y for the top two, X pushed first.
  auto Arith = [](BinaryOp Op, double *&Top) {
    Top[-2] = scalarBinary(Op, Top[-2], Top[-1]);
    --Top;
  };
  double Stack[PlanStackMax];
  const Value *Bases[PlanBaseMax];
  // One past the top of each stack.
  double *Top = Stack;
  const Value **Base = Bases;
  size_t Off;
  double D, D2;
  for (const PlanOp *I = PlanCode.data() + P.Begin,
                    *E = PlanCode.data() + P.End;
       I != E; ++I) {
    switch (I->Code) {
    case PlanOpcode::Const:
      *Top++ = I->K;
      break;
    case PlanOpcode::Var:
      if (!Scalar(I->A, *Top))
        return false;
      ++Top;
      break;
    case PlanOpcode::Neg:
      Top[-1] = -Top[-1];
      break;
    case PlanOpcode::Add:
      Arith(BinaryOp::Add, Top);
      break;
    case PlanOpcode::Sub:
      Arith(BinaryOp::Sub, Top);
      break;
    case PlanOpcode::Mul:
      Arith(BinaryOp::Mul, Top);
      break;
    case PlanOpcode::Div:
      Arith(BinaryOp::Div, Top);
      break;
    case PlanOpcode::Base:
      if (!(*Base = Array(I->A)))
        return false;
      ++Base;
      break;
    case PlanOpcode::Target:
      *Base++ = Target;
      break;
    case PlanOpcode::End: {
      const Value &B = *Base[-1];
      *Top++ = static_cast<double>(I->A == 0   ? B.numel()
                                   : I->A == 1 ? B.rows()
                                               : B.cols());
      break;
    }
    case PlanOpcode::Elem1:
      if (!Linear(*Base[-1], Top[-1], Off))
        return false;
      Top[-1] = (*--Base)->raw()[Off];
      break;
    case PlanOpcode::Elem2:
      --Top;
      if (!Element(*Base[-1], Top[-1], Top[0], Off))
        return false;
      Top[-1] = (*--Base)->raw()[Off];
      break;
    case PlanOpcode::Offset1:
      if (!Linear(**--Base, Top[-1], Off))
        return false;
      Top[-1] = static_cast<double>(Off);
      break;
    case PlanOpcode::Offset2:
      --Top;
      if (!Element(**--Base, Top[-1], Top[0], Off))
        return false;
      Top[-1] = static_cast<double>(Off);
      break;
    case PlanOpcode::ElemVar1: {
      const Value *B = Array(I->A);
      if (!B || !Scalar(I->Slots.B, D) || !Linear(*B, D, Off))
        return false;
      *Top++ = B->raw()[Off];
      break;
    }
    case PlanOpcode::ElemVar2: {
      const Value *B = Array(I->A);
      if (!B || !Scalar(I->Slots.B, D) || !Scalar(I->Slots.C, D2) ||
          !Element(*B, D, D2, Off))
        return false;
      *Top++ = B->raw()[Off];
      break;
    }
    case PlanOpcode::OffsetVar1:
      if (!Scalar(I->Slots.B, D) || !Linear(*Target, D, Off))
        return false;
      *Top++ = static_cast<double>(Off);
      break;
    case PlanOpcode::OffsetVar2:
      if (!Scalar(I->Slots.B, D) || !Scalar(I->Slots.C, D2) ||
          !Element(*Target, D, D2, Off))
        return false;
      *Top++ = static_cast<double>(Off);
      break;
    }
  }
  Out = Stack[0];
  return true;
}

namespace {
/// OpWorkspace poll trampoline: long kernels call this between chunks so
/// deadlines, cancellation, and armed kernel-poll faults land mid-kernel.
bool interpKernelPoll(void *Ctx) {
  auto *I = static_cast<Interpreter *>(Ctx);
  maybeInject(FaultSite::KernelPoll);
  return I->checkInterrupt(SourceLoc());
}
} // namespace

void Interpreter::engineBegin() {
  FaultCtx = detail::tlsFaultContext();
  // Only arm the in-kernel poll when something could actually interrupt:
  // the disarmed configuration must stay at benchmark-identical cost.
  if (CancelFlag || DeadlineTp || FaultCtx)
    Pool.setPollHook(&interpKernelPoll, this);
}

void Interpreter::engineEnd() {
  Pool.setPollHook(nullptr, nullptr);
  FaultCtx = nullptr;
}

bool Interpreter::run(const Program &P) {
  engineBegin();
  prepare(P);
  try {
    execBody(P.Stmts);
  } catch (...) {
    // Injected faults and resource-budget exhaustion unwind through here;
    // leave the interpreter reusable before letting the job layer classify
    // the exception.
    clearPrepared();
    engineEnd();
    throw;
  }
  // Drop the node cache and the plans: a later program could allocate
  // nodes at the same addresses, and a stale hit would resolve them to
  // the wrong slots.
  clearPrepared();
  engineEnd();
  return !Failed;
}

Interpreter::Flow Interpreter::execBody(const std::vector<StmtPtr> &Body) {
  for (const StmtPtr &S : Body) {
    Flow F = execStmt(*S);
    if (Failed)
      return Flow::Return;
    if (F != Flow::Normal)
      return F;
  }
  return Flow::Normal;
}

bool Interpreter::checkInterrupt(SourceLoc Loc) {
  if (Failed)
    return true;
  if (StepLimit != 0 && Steps > StepLimit) {
    Interrupt = InterruptKind::StepLimit;
    fail(Loc, "execution step limit exceeded");
    return true;
  }
  if (CancelFlag && CancelFlag->load(std::memory_order_relaxed)) {
    Interrupt = InterruptKind::Cancelled;
    fail(Loc, "execution cancelled");
    return true;
  }
  if (DeadlineTp && std::chrono::steady_clock::now() >= *DeadlineTp) {
    Interrupt = InterruptKind::Deadline;
    fail(Loc, "execution deadline exceeded");
    return true;
  }
  if (FaultCtx && FaultCtx->deadlineForced()) {
    Interrupt = InterruptKind::Deadline;
    fail(Loc, "execution deadline exceeded");
    return true;
  }
  return false;
}

bool Interpreter::stmtPoll(SourceLoc Loc) {
  if (FaultCtx)
    FaultCtx->inject(FaultSite::InterpStmt);
  if ((CancelFlag || DeadlineTp || FaultCtx) && checkInterrupt(Loc))
    return true;
  return false;
}

Interpreter::Flow Interpreter::execStmt(const Stmt &S) {
  if (stmtStep(S.loc()))
    return Flow::Return;
  switch (S.kind()) {
  case Stmt::Kind::Assign:
    execAssign(cast<AssignStmt>(S));
    return Flow::Normal;
  case Stmt::Kind::Expr:
    eval(*cast<ExprStmt>(S).expr());
    return Flow::Normal;
  case Stmt::Kind::For:
    return execFor(cast<ForStmt>(S));
  case Stmt::Kind::While:
    return execWhile(cast<WhileStmt>(S));
  case Stmt::Kind::If:
    return execIf(cast<IfStmt>(S));
  case Stmt::Kind::Break:
    return Flow::Break;
  case Stmt::Kind::Continue:
    return Flow::Continue;
  case Stmt::Kind::Return:
    return Flow::Return;
  }
  return Flow::Normal;
}

void Interpreter::noteAccumulatorHints(const ForStmt &S, size_t NumIters) {
  for (const StmtPtr &BS : S.body()) {
    const auto *A = dyn_cast<AssignStmt>(BS.get());
    if (!A)
      continue;
    const auto *Idx = dyn_cast<IndexExpr>(A->lhs());
    if (!Idx || Idx->numArgs() != 1)
      continue;
    const auto *Arg = dyn_cast<IdentExpr>(Idx->arg(0));
    if (!Arg || Arg->name() != S.indexVar())
      continue;
    int Slot = cachedInfo(A)->Slot;
    if (Slot < 0)
      continue;
    noteHintForSlot(static_cast<unsigned>(Slot), NumIters);
  }
}

void Interpreter::applyPendingHint(unsigned Slot, Value &Target) {
  for (size_t I = 0, E = PendingHints.size(); I != E; ++I)
    if (PendingHints[I].first == Slot) {
      Target.reserveHint(PendingHints[I].second);
      PendingHints.erase(PendingHints.begin() + I);
      return;
    }
}

Interpreter::Flow Interpreter::execFor(const ForStmt &S) {
  Value RangeV = eval(*S.range());
  if (Failed)
    return Flow::Return;
  // MATLAB iterates over the columns of the range value.
  size_t NumIters = RangeV.isEmpty() ? 0 : RangeV.cols();
  unsigned IdxSlot = static_cast<unsigned>(cachedInfo(&S)->Slot);

  // A top-level A(i) = ... accumulator grows to at most NumIters elements;
  // reserving up front turns the growth into one allocation. The hint for
  // a not-yet-defined target is deferred to its creating assignment so a
  // body that never reaches the assignment leaves the workspace untouched.
  size_t HintsBefore = PendingHints.size();
  if (NumIters > 8)
    noteAccumulatorHints(S, NumIters);

  Flow Result = Flow::Normal;
  for (size_t Col = 0; Col != NumIters; ++Col) {
    if (backEdgePoll(S.loc())) {
      Result = Flow::Return;
      break;
    }
    if (RangeV.rows() == 1) {
      Env.defineScalar(IdxSlot, RangeV.at(0, Col));
    } else {
      Value Slice(RangeV.rows(), 1);
      double *SliceD = Slice.mutableRaw();
      for (size_t R = 0; R != RangeV.rows(); ++R)
        SliceD[R] = RangeV.at(R, Col);
      Env.define(IdxSlot, std::move(Slice));
    }
    Flow F = execBody(S.body());
    if (Failed || F == Flow::Return) {
      Result = Flow::Return;
      break;
    }
    if (F == Flow::Break)
      break;
  }
  PendingHints.resize(HintsBefore);
  return Result;
}

Interpreter::Flow Interpreter::execWhile(const WhileStmt &S) {
  while (true) {
    if (backEdgePoll(S.loc()))
      return Flow::Return;
    Value Cond = eval(*S.cond());
    if (Failed)
      return Flow::Return;
    if (!Cond.isTrue())
      return Flow::Normal;
    Flow F = execBody(S.body());
    if (Failed || F == Flow::Return)
      return Flow::Return;
    if (F == Flow::Break)
      return Flow::Normal;
  }
}

Interpreter::Flow Interpreter::execIf(const IfStmt &S) {
  for (const IfStmt::Branch &B : S.branches()) {
    bool Taken = true;
    if (B.Cond) {
      Value Cond = eval(*B.Cond);
      if (Failed)
        return Flow::Return;
      Taken = Cond.isTrue();
    }
    if (Taken)
      return execBody(B.Body);
  }
  return Flow::Normal;
}

void Interpreter::execAssign(const AssignStmt &S) {
  // run() prepared every statement: one lookup resolves the target slot
  // and both plans. A right-hand side with a plan is computed unboxed.
  const NodeInfo &Info = *cachedInfo(&S);
  double D;
  bool Scalar = Info.Plan != NoPlan && runPlan(Info.Plan, nullptr, D);
  Value RHS;
  if (!Scalar) {
    RHS = eval(*S.rhs());
    if (Failed)
      return;
  }
  if (Info.Slot < 0) {
    fail(S.loc(), "invalid assignment target");
    return;
  }
  auto Slot = static_cast<unsigned>(Info.Slot);
  if (isa<IdentExpr>(S.lhs())) {
    if (Scalar)
      Env.defineScalar(Slot, D);
    else
      Env.define(Slot, std::move(RHS));
    checkShapeCap(Slot, S.loc());
    return;
  }
  // Marks the slot defined even if the write then fails — same as the old
  // map-based store, whose operator[] created the [] entry up front.
  Value &Target = defineSlotRef(Slot);
  // An in-range element takes the scalar right-hand side directly (with
  // the general write's COW detach); growth, masks and bad subscripts
  // take the general write, handed the value eval() would have built.
  double Offset;
  if (Scalar && Info.LhsPlan != NoPlan &&
      runPlan(Info.LhsPlan, &Target, Offset))
    Target.mutableRaw()[static_cast<size_t>(Offset)] = D;
  else
    writeIndexed(Target, cast<IndexExpr>(*S.lhs()),
                 Scalar ? Value::scalar(D) : std::move(RHS));
  checkShapeCap(Slot, S.loc());
}

void Interpreter::checkShapeCapSlow(unsigned Slot, SourceLoc Loc) {
  while (SlotCaps.size() < Env.numSlots()) {
    auto It = ShapeCaps.find(Env.nameOf(static_cast<unsigned>(SlotCaps.size())));
    int8_t Mask = 0;
    if (It != ShapeCaps.end())
      Mask = static_cast<int8_t>((It->second.first ? 1 : 0) |
                                 (It->second.second ? 2 : 0));
    SlotCaps.push_back(Mask);
  }
  int8_t Mask = SlotCaps[Slot];
  if (!Mask || !Env.isDefined(Slot))
    return;
  const Value &V = Env.slotValue(Slot);
  if (((Mask & 1) && V.rows() > 1) || ((Mask & 2) && V.cols() > 1))
    fail(Loc, "variable '" + Env.nameOf(Slot) +
                  "' exceeds its annotated shape (" + std::to_string(V.rows()) +
                  "x" + std::to_string(V.cols()) + ")");
}

//===----------------------------------------------------------------------===//
// Expression evaluation
//===----------------------------------------------------------------------===//


Value Interpreter::eval(const Expr &E) {
  if (Failed)
    return Value();
  if (EvalDepth >= MaxEvalDepth) {
    fail(E.loc(), EvalDepthMessage);
    return Value();
  }
  ++EvalDepth;
  // Injected faults and budget exhaustion unwind through eval() by
  // exception, so the counter needs unwind-safe restoration.
  struct DepthGuard {
    unsigned &D;
    ~DepthGuard() { --D; }
  } Guard{EvalDepth};
  return evalImpl(E);
}

Value Interpreter::evalImpl(const Expr &E) {
  switch (E.kind()) {
  case Expr::Kind::Number:
    return Value::scalar(cast<NumberExpr>(E).value());
  case Expr::Kind::String: {
    // Strings become char-code row vectors (enough for fprintf/disp).
    const std::string &S = cast<StringExpr>(E).value();
    std::vector<double> Codes(S.begin(), S.end());
    return Value::vector(std::move(Codes), /*Row=*/true);
  }
  case Expr::Kind::Ident: {
    const auto &Ident = cast<IdentExpr>(E);
    if (const NodeInfo *Info = cachedInfo(&Ident)) {
      if (Info->Slot >= 0 && Env.isDefined(Info->Slot))
        return Env.slotValue(Info->Slot);
      if (Info->IsPi)
        return Value::scalar(3.14159265358979323846);
      if (Info->Builtin != InvalidBuiltinId)
        return callBuiltin(*this, Info->Builtin, ArgsNone, E.loc());
      fail(E.loc(), "undefined variable '" + Ident.name() + "'");
      return Value();
    }
    // Uncached node (standalone eval): resolve by name, with the same
    // variable -> pi -> builtin precedence.
    if (const Value *V = Env.get(Ident.name()))
      return *V;
    if (Ident.name() == "pi")
      return Value::scalar(3.14159265358979323846);
    if (BuiltinId Id = builtinIdFor(Ident.name()); Id != InvalidBuiltinId)
      return callBuiltin(*this, Id, ArgsNone, E.loc());
    fail(E.loc(), "undefined variable '" + Ident.name() + "'");
    return Value();
  }
  case Expr::Kind::MagicColon:
    fail(E.loc(), "':' is only valid inside a subscript");
    return Value();
  case Expr::Kind::EndKeyword:
    if (EndExtent >= 0)
      return Value::scalar(EndExtent);
    fail(E.loc(), "'end' outside of a subscript");
    return Value();
  case Expr::Kind::Range: {
    const auto &R = cast<RangeExpr>(E);
    Value Start = eval(*R.start());
    Value Step = R.step() ? eval(*R.step()) : Value::scalar(1.0);
    Value Stop = eval(*R.stop());
    if (Failed)
      return Value();
    return makeRangeChecked(Start, Step, Stop, E.loc());
  }
  case Expr::Kind::Unary: {
    const auto &U = cast<UnaryExpr>(E);
    Value Tmp;
    const Value &Operand = evalOperand(*U.operand(), Tmp);
    if (Failed)
      return Value();
    switch (U.op()) {
    case UnaryOp::Plus:
      return &Operand == &Tmp ? std::move(Tmp) : Operand; // COW copy of a var
    case UnaryOp::Minus:
      return unaryMinus(Operand, &Pool);
    case UnaryOp::Not:
      return unaryNot(Operand, &Pool);
    }
    return Value();
  }
  case Expr::Kind::Binary:
    return evalBinary(cast<BinaryExpr>(E));
  case Expr::Kind::Transpose: {
    Value Tmp;
    const Value &Operand = evalOperand(*cast<TransposeExpr>(E).operand(), Tmp);
    if (Failed)
      return Value();
    return transpose(Operand);
  }
  case Expr::Kind::Index:
    return evalIndexOrCall(cast<IndexExpr>(E));
  case Expr::Kind::Matrix:
    return evalMatrixLiteral(cast<MatrixExpr>(E));
  }
  return Value();
}

const Value &Interpreter::evalOperand(const Expr &E, Value &Storage) {
  if (E.kind() == Expr::Kind::Ident) {
    if (const NodeInfo *Info = cachedInfo(&E)) {
      if (Info->Slot >= 0 && Env.isDefined(Info->Slot))
        return Env.slotValue(Info->Slot);
    }
  }
  Storage = eval(E);
  return Storage;
}

Value Interpreter::evalFusedMulAdd(const BinaryExpr &E, const BinaryExpr &Prod,
                                   bool ProductOnLeft) {
  // Operand evaluation order matches the unfused tree exactly (rand's
  // state advances identically): product operands around the other side.
  Value AT, BT, CT;
  const Value *AP, *BP, *CP;
  if (ProductOnLeft) {
    AP = &evalOperand(*Prod.lhs(), AT);
    BP = &evalOperand(*Prod.rhs(), BT);
    CP = &evalOperand(*E.rhs(), CT);
  } else {
    CP = &evalOperand(*E.lhs(), CT);
    AP = &evalOperand(*Prod.lhs(), AT);
    BP = &evalOperand(*Prod.rhs(), BT);
  }
  if (Failed)
    return Value();
  return applyFusedMulAdd(*AP, *BP, *CP,
                          /*Subtract=*/E.op() == BinaryOp::Sub, ProductOnLeft,
                          /*DotMul=*/Prod.op() == BinaryOp::DotMul, E.loc(),
                          Prod.loc());
}

Value Interpreter::evalSumOfProducts(const IndexExpr &E,
                                     const BinaryExpr &Prod) {
  ArgFrame Frame(*this);
  std::vector<Value> &Args = *Frame.Args;
  EndScope NoEnd(EndExtent, -1);
  // The product's operands, inside the eval() frame the product takes.
  if (EvalDepth >= MaxEvalDepth) {
    fail(Prod.loc(), EvalDepthMessage);
    return Value();
  }
  Value AT, BT;
  const Value *AP, *BP;
  {
    ++EvalDepth;
    struct DepthGuard {
      unsigned &D;
      ~DepthGuard() { --D; }
    } Guard{EvalDepth};
    AP = &evalOperand(*Prod.lhs(), AT);
    BP = &evalOperand(*Prod.rhs(), BT);
  }
  if (Failed)
    return Value();
  PendingProduct P;
  OpError Err;
  if (!pendingProduct(*AP, *BP, P, Err)) {
    fail(Prod.loc(), Err.Message);
    return Value();
  }
  const Expr *DimArg = E.arg(1);
  if (isa<MagicColonExpr>(DimArg) || isa<EndKeywordExpr>(DimArg)) {
    fail(E.loc(), "':' and 'end' are not valid function arguments");
    return Value();
  }
  // Args[0] holds the product only where the call returns it.
  Args.emplace_back();
  Args.push_back(eval(*DimArg));
  if (Failed)
    return Value();
  Args[1].materialize();
  unsigned Dim;
  if (!reductionDim(*this, Args[1], "sum", E.loc(), Dim))
    return Value();
  if (Dim <= 2)
    return sumOfProducts(P, Dim);
  Args[0] = buildProduct(P);
  return Args[0];
}

Value Interpreter::applyFusedMulAdd(const Value &A, const Value &B,
                                    const Value &C, bool Subtract,
                                    bool ProductOnLeft, bool DotMul,
                                    SourceLoc ELoc, SourceLoc ProdLoc) {
  if (A.isScalar() && B.isScalar() && C.isScalar())
    return Value::scalar(scalarMulAdd(A.scalarValue() * B.scalarValue(),
                                      C.scalarValue(), Subtract,
                                      ProductOnLeft));

  // '*' is elementwise only when one operand is scalar; a true matrix
  // product keeps the exact two-step path below.
  bool Elementwise = DotMul || A.isScalar() || B.isScalar();
  if (Elementwise && fusableMulAddShapes(A, B, C))
    return fusedMulAdd(A, B, C, Subtract, ProductOnLeft, &Pool);

  OpError Err;
  Value Product = DotMul
                      ? elementwiseBinary(BinaryOp::DotMul, A, B, Err, &Pool)
                      : mulOp(A, B, Err, &Pool);
  if (Err.failed()) {
    fail(ProdLoc, Err.Message);
    return Value();
  }
  BinaryOp Outer = Subtract ? BinaryOp::Sub : BinaryOp::Add;
  OpError Err2;
  Value Result = ProductOnLeft
                     ? elementwiseBinary(Outer, Product, C, Err2, &Pool)
                     : elementwiseBinary(Outer, C, Product, Err2, &Pool);
  if (Err2.failed())
    fail(ELoc, Err2.Message);
  return Result;
}

Value Interpreter::makeRangeChecked(const Value &Start, const Value &Step,
                                    const Value &Stop, SourceLoc Loc) {
  if (!Start.isScalar() || !Step.isScalar() || !Stop.isScalar()) {
    fail(Loc, "range endpoints must be scalars");
    return Value();
  }
  OpError Err;
  Value Result = makeRange(Start.scalarValue(), Step.scalarValue(),
                           Stop.scalarValue(), Err);
  if (Err.failed())
    fail(Loc, Err.Message);
  return Result;
}

Value Interpreter::evalBinary(const BinaryExpr &E) {
  // Short-circuit logical operators first.
  if (E.op() == BinaryOp::AndAnd || E.op() == BinaryOp::OrOr) {
    Value LHS = eval(*E.lhs());
    if (Failed)
      return Value();
    bool LTrue = LHS.isTrue();
    if (E.op() == BinaryOp::AndAnd && !LTrue)
      return Value::scalar(0.0);
    if (E.op() == BinaryOp::OrOr && LTrue)
      return Value::scalar(1.0);
    Value RHS = eval(*E.rhs());
    if (Failed)
      return Value();
    return Value::scalar(RHS.isTrue() ? 1.0 : 0.0);
  }

  // Fuse (A .* B) +/- C into a single pass over the data; A * B with a
  // scalar operand is elementwise and fuses the same way.
  if (E.op() == BinaryOp::Add || E.op() == BinaryOp::Sub) {
    if (const auto *L = dyn_cast<BinaryExpr>(E.lhs());
        L && (L->op() == BinaryOp::DotMul || L->op() == BinaryOp::Mul))
      return evalFusedMulAdd(E, *L, /*ProductOnLeft=*/true);
    if (const auto *R = dyn_cast<BinaryExpr>(E.rhs());
        R && (R->op() == BinaryOp::DotMul || R->op() == BinaryOp::Mul))
      return evalFusedMulAdd(E, *R, /*ProductOnLeft=*/false);
  }

  Value LT, RT;
  const Value &LHS = evalOperand(*E.lhs(), LT);
  const Value &RHS = evalOperand(*E.rhs(), RT);
  if (Failed)
    return Value();
  return applyBinary(E.op(), LHS, RHS, E.loc());
}

Value Interpreter::applyBinary(BinaryOp Op, const Value &LHS, const Value &RHS,
                               SourceLoc Loc) {
  // Scalar fast path: no kernel dispatch, no allocation.
  if (LHS.isScalar() && RHS.isScalar() && hasScalarForm(Op))
    return scalarResult(Op,
                        scalarBinary(Op, LHS.scalarValue(), RHS.scalarValue()));

  OpError Err;
  Value Result;
  switch (Op) {
  case BinaryOp::Mul:
    Result = mulOp(LHS, RHS, Err, &Pool);
    break;
  case BinaryOp::Div:
    Result = divOp(LHS, RHS, Err, &Pool);
    break;
  case BinaryOp::Pow:
    Result = powOp(LHS, RHS, Err);
    break;
  default:
    Result = elementwiseBinary(Op, LHS, RHS, Err, &Pool);
    break;
  }
  if (Err.failed())
    fail(Loc, Err.Message);
  return Result;
}

Value Interpreter::evalMatrixLiteral(const MatrixExpr &E) {
  EndScope NoEnd(EndExtent, -1);
  OpError Err;
  Value Result;
  bool FirstRow = true;
  for (const MatrixExpr::Row &Row : E.rows()) {
    Value RowValue;
    bool FirstElt = true;
    for (const ExprPtr &Elt : Row) {
      Value V = eval(*Elt);
      if (Failed)
        return Value();
      if (FirstElt) {
        RowValue = std::move(V);
        FirstElt = false;
      } else {
        RowValue = horzcat(RowValue, V, Err);
      }
    }
    if (FirstRow) {
      Result = std::move(RowValue);
      FirstRow = false;
    } else {
      Result = vertcat(Result, RowValue, Err);
    }
  }
  if (Err.failed())
    fail(E.loc(), Err.Message);
  return Result;
}

//===----------------------------------------------------------------------===//
// Indexing
//===----------------------------------------------------------------------===//

Value Interpreter::makeColonVector(size_t Extent) {
  Value All(1, Extent);
  double *AllD = All.mutableRaw();
  for (size_t I = 0; I != Extent; ++I)
    AllD[I] = static_cast<double>(I + 1);
  return All;
}

Value Interpreter::evalSubscript(const Expr &Arg, size_t Extent) {
  if (isa<MagicColonExpr>(&Arg))
    return makeColonVector(Extent);
  EndScope Scope(EndExtent, static_cast<double>(Extent));
  return eval(Arg);
}

namespace {

/// True when non-mask subscript \p Idx is First+1, First+1+Step, ... inside
/// \p Extent (Step >= 1); sets \p First (0-based) and \p Step. Any other
/// subscript takes the general path, which reports its errors.
bool progression(const Value &Idx, size_t Extent, size_t &First,
                 size_t &Step) {
  size_t N = Idx.numel();
  if (N == 0 || Idx.isLogical())
    return false;
  const double *D = Idx.raw();
  double Start = D[0];
  double StepD = N > 1 ? D[1] - Start : 1.0;
  if (!(Start >= 1.0) || Start != std::floor(Start) || !(StepD >= 1.0) ||
      StepD != std::floor(StepD) ||
      Start + StepD * static_cast<double>(N - 1) > static_cast<double>(Extent))
    return false;
  for (size_t I = 2; I < N; ++I)
    if (D[I] != Start + StepD * static_cast<double>(I))
      return false;
  First = static_cast<size_t>(Start) - 1;
  Step = static_cast<size_t>(StepD);
  return true;
}

} // namespace

bool Interpreter::toIndices(const Value &Idx, size_t Extent,
                            std::vector<size_t> &Out, SourceLoc Loc) {
  Out.clear();
  // Logical subscripts select by mask (MATLAB logical indexing).
  if (Idx.isLogical()) {
    if (Idx.numel() > Extent) {
      fail(Loc, "logical index has too many elements (" +
                    std::to_string(Idx.numel()) + " for extent " +
                    std::to_string(Extent) + ")");
      return false;
    }
    const double *D = Idx.raw();
    for (size_t I = 0, E = Idx.numel(); I != E; ++I)
      if (D[I] != 0.0)
        Out.push_back(I);
    return true;
  }
  Out.reserve(Idx.numel());
  const double *Data = Idx.raw();
  double Limit = indexLimit(Extent);
  for (size_t I = 0, E = Idx.numel(); I != E; ++I) {
    size_t Index;
    if (!toIndex(Data[I], Extent, Limit, Index, Loc))
      return false;
    Out.push_back(Index);
  }
  return true;
}

bool Interpreter::toIndexSlow(double D, size_t Extent, size_t &Index,
                              SourceLoc Loc) {
  // The finiteness check matters: floor(Inf) == Inf passes the integer
  // test, and casting Inf to size_t is undefined behavior that turns into
  // an out-of-bounds read.
  if (!std::isfinite(D) || D < 1.0 || D != std::floor(D)) {
    fail(Loc, "subscript indices must be positive integers");
    return false;
  }
  // Compared before the cast: a subscript beyond size_t's range (1e300)
  // has no defined conversion.
  if (D > indexLimit(Extent)) {
    fail(Loc, "index " + formatMatlabNumber(D) +
                  " exceeds matrix dimension (" + std::to_string(Extent) +
                  ")");
    return false;
  }
  Index = static_cast<size_t>(D) - 1;
  return true;
}

bool Interpreter::maxSubscript(const Value &Idx, double &Max, SourceLoc Loc) {
  Max = 0;
  const double *D = Idx.raw();
  for (size_t I = 0, E = Idx.numel(); I != E; ++I) {
    // A logical mask holds only 0 and 1, and 0 is a valid mask entry.
    if (!Idx.isLogical() &&
        !(D[I] >= 1.0 && std::isfinite(D[I]) && D[I] == std::floor(D[I]))) {
      fail(Loc, "subscript indices must be positive integers");
      return false;
    }
    Max = std::max(Max, D[I]);
  }
  return true;
}

bool Interpreter::checkArraySize(double Rows, double Cols, SourceLoc Loc) {
  // In doubles, so no product can wrap; a zero extent still bounds the
  // other one, which a caller would otherwise cast.
  if (std::max(Rows, 1.0) * std::max(Cols, 1.0) * sizeof(double) <=
      MaxArrayBytes)
    return true;
  fail(Loc, "requested " + formatMatlabNumber(Rows) + "x" +
                formatMatlabNumber(Cols) +
                " array exceeds the maximum array size");
  return false;
}

bool Interpreter::growShape(Value &Target, double Rows, double Cols,
                            SourceLoc Loc) {
  Rows = std::max(Rows, static_cast<double>(Target.rows()));
  Cols = std::max(Cols, static_cast<double>(Target.cols()));
  if (!checkArraySize(Rows, Cols, Loc))
    return false;
  Target.growTo(static_cast<size_t>(Rows), static_cast<size_t>(Cols));
  return true;
}

bool Interpreter::growLinear(Value &Target, double Needed, bool ColumnIdx,
                             SourceLoc Loc) {
  if (Target.rows() == 0 && Target.cols() <= 1) {
    // x(5) = v on a 0x0 x yields a row vector, unless the index values
    // come as a column. A 0x1 empty takes the same path: element-at-a-time
    // growth necessarily passes through a 1x1 value (which then widens
    // into a row), so slice growth must agree or the two orders of writing
    // the same elements would produce different shapes. Degenerate empties
    // with a wider dimension (e.g. zeros(7,0)) are matrices and fall
    // through to the growth error below, as in MATLAB.
    return ColumnIdx ? growShape(Target, Needed, 1, Loc)
                     : growShape(Target, 1, Needed, Loc);
  }
  if (Target.rows() == 1)
    return growShape(Target, 1, Needed, Loc);
  if (Target.cols() == 1)
    return growShape(Target, Needed, 1, Loc);
  fail(Loc, "linear indexed assignment cannot grow a matrix");
  return false;
}

Value Interpreter::indexReadAll(const Value &Base) {
  // Linear (column-major) indexing. A(:) flattens to a column.
  Value Result = Base;
  Result.materialize();
  Result.reshapeTo(Base.numel(), Base.numel() ? 1 : 0);
  return Result;
}

Value Interpreter::indexRead1(const Value &Base, Value &&Idx, SourceLoc Loc) {
  Idx.materialize();
  // Reading a transpose in place stands for the copy it used to make.
  chargeMemory(Base.owedBytes());
  if (Idx.isLogical()) {
    // Mask selection yields a column unless the base is a row.
    std::vector<size_t> &Indices = IdxScratchA;
    if (!toIndices(Idx, Base.numel(), Indices, Loc))
      return Value();
    Value Result = Base.isRow() ? Value(1, Indices.size())
                                : Value(Indices.size(), Indices.empty() ? 0 : 1);
    double *ResultD = Result.mutableRaw();
    for (size_t I = 0; I != Indices.size(); ++I)
      ResultD[I] = Base.linear(Indices[I]);
    Result.setLogical(Base.isLogical());
    return Result;
  }
  // Result shape: like the index, except that vector(A)(vector idx)
  // follows A's orientation.
  size_t N = Idx.numel();
  size_t R = Idx.rows(), C = Idx.cols();
  if (Base.isVector() && Idx.isVector()) {
    R = Base.isRow() ? 1 : N;
    C = Base.isRow() ? N : 1;
  }
  // Validate and gather in one pass, with toIndices' checks and messages.
  // The destination is charged only once every index proved valid, as a
  // validate-then-allocate order would, so a bad subscript reports its own
  // error whatever the budget.
  std::shared_ptr<PayloadBuffer> Buf;
  double Single = 0.0;
  double *Out = &Single;
  if (N > 1) {
    Buf = std::make_shared<PayloadBuffer>(N);
    Out = Buf->data();
  }
  const double *IdxD = Idx.raw();
  size_t Extent = Base.numel();
  double Limit = indexLimit(Extent);
  for (size_t I = 0; I != N; ++I) {
    size_t Index;
    if (!toIndex(IdxD[I], Extent, Limit, Index, Loc))
      return Value();
    Out[I] = Base.linear(Index);
  }
  Value Result;
  if (Buf) {
    chargeMemory(N * sizeof(double));
    Result = Value::adoptBuffer(std::move(Buf), R, C);
  } else {
    Result = Value(R, C, Single);
  }
  Result.setLogical(Base.isLogical());
  return Result;
}

Value Interpreter::indexRead2(const Value &Base, Value &&RowIdx,
                              Value &&ColIdx, SourceLoc Loc) {
  RowIdx.materialize();
  ColIdx.materialize();
  size_t R0, RStep, C0, CStep;
  size_t NR = RowIdx.numel(), NC = ColIdx.numel();
  if (NR * NC > 1 && progression(RowIdx, Base.rows(), R0, RStep) &&
      progression(ColIdx, Base.cols(), C0, CStep)) {
    // An O(1) view, charged as the copy it stands for.
    chargeMemory(Base.owedBytes() + NR * NC * sizeof(double));
    size_t RS = Base.rowStep(), CS = Base.colStep();
    return Base.view(NR, NC, R0 * RS + C0 * CS, RStep * RS, CStep * CS,
                     /*Owed=*/false);
  }
  std::vector<size_t> &RI = IdxScratchA, &CI = IdxScratchB;
  if (!toIndices(RowIdx, Base.rows(), RI, Loc) ||
      !toIndices(ColIdx, Base.cols(), CI, Loc))
    return Value();
  chargeMemory(Base.owedBytes());
  Value Result(RI.size(), CI.size());
  const double *BaseD = Base.data();
  size_t RS = Base.rowStep(), CS = Base.colStep();
  double *ResultD = Result.mutableRaw();
  for (size_t C = 0; C != CI.size(); ++C)
    for (size_t R = 0; R != RI.size(); ++R)
      ResultD[C * RI.size() + R] = BaseD[CI[C] * CS + RI[R] * RS];
  Result.setLogical(Base.isLogical());
  return Result;
}

Value Interpreter::readIndexed(const Value &Base, const IndexExpr &E) {
  if (E.numArgs() == 0)
    return Base; // f() with a variable f is just the value.

  if (E.numArgs() == 1) {
    if (isa<MagicColonExpr>(E.arg(0)))
      return indexReadAll(Base);
    Value Idx = evalSubscript(*E.arg(0), Base.numel());
    if (Failed)
      return Value();
    return indexRead1(Base, std::move(Idx), E.loc());
  }

  if (E.numArgs() == 2) {
    Value RowIdx = evalSubscript(*E.arg(0), Base.rows());
    Value ColIdx = evalSubscript(*E.arg(1), Base.cols());
    if (Failed)
      return Value();
    return indexRead2(Base, std::move(RowIdx), std::move(ColIdx), E.loc());
  }

  fail(E.loc(), "N-dimensional indexing is not supported");
  return Value();
}

void Interpreter::indexWriteAll(Value &Target, Value &&RHS, SourceLoc Loc) {
  RHS.materialize();
  // A(:) = B requires matching element count or scalar B.
  if (RHS.isScalar()) {
    double Fill = RHS.scalarValue();
    double *TD = Target.mutableRaw();
    for (size_t I = 0, E = Target.numel(); I != E; ++I)
      TD[I] = Fill;
    return;
  }
  if (RHS.numel() != Target.numel()) {
    fail(Loc, "A(:) assignment requires matching element counts");
    return;
  }
  const double *RD = RHS.raw();
  double *TD = Target.mutableRaw();
  for (size_t I = 0, E = Target.numel(); I != E; ++I)
    TD[I] = RD[I];
}

void Interpreter::indexWrite1(Value &Target, Value &&Idx, Value &&RHS,
                              SourceLoc Loc) {
  Idx.materialize();
  RHS.materialize();
  if (Idx.isLogical()) {
    std::vector<size_t> &Indices = IdxScratchA;
    if (!toIndices(Idx, Target.numel(), Indices, Loc))
      return;
    if (!RHS.isScalar() && RHS.numel() != Indices.size()) {
      fail(Loc, "masked assignment size mismatch");
      return;
    }
    double *TD = Target.mutableRaw();
    for (size_t I = 0; I != Indices.size(); ++I)
      TD[Indices[I]] = RHS.isScalar() ? RHS.scalarValue() : RHS.linear(I);
    return;
  }
  // Every subscript is validated before the target grows.
  double MaxIdx;
  if (!maxSubscript(Idx, MaxIdx, Loc))
    return;
  if (MaxIdx > static_cast<double>(Target.numel()) &&
      !growLinear(Target, MaxIdx, Idx.isColumn() && Idx.numel() > 1, Loc))
    return;
  size_t First, Step;
  if (Idx.numel() == Target.numel() &&
      progression(Idx, Target.numel(), First, Step) &&
      Target.adoptPayload(RHS))
    return;
  std::vector<size_t> &Indices = IdxScratchA;
  if (!toIndices(Idx, Target.numel(), Indices, Loc))
    return;
  if (!RHS.isScalar() && RHS.numel() != Indices.size()) {
    fail(Loc, "indexed assignment size mismatch");
    return;
  }
  double *TD = Target.mutableRaw();
  for (size_t I = 0; I != Indices.size(); ++I)
    TD[Indices[I]] = RHS.isScalar() ? RHS.scalarValue() : RHS.linear(I);
}

void Interpreter::indexWrite2(Value &Target, Value &&RowIdx,
                              Value &&ColIdx, Value &&RHS, SourceLoc Loc) {
  RowIdx.materialize();
  ColIdx.materialize();
  RHS.materialize();
  // Every subscript is validated before the target grows.
  double MaxRow, MaxCol;
  if (!maxSubscript(RowIdx, MaxRow, Loc) ||
      !maxSubscript(ColIdx, MaxCol, Loc))
    return;
  if ((MaxRow > static_cast<double>(Target.rows()) ||
       MaxCol > static_cast<double>(Target.cols())) &&
      !growShape(Target, MaxRow, MaxCol, Loc))
    return;
  size_t TargetRows = Target.rows();
  // Every row and every column in order: adopt the right-hand side.
  size_t First, Step;
  if (RowIdx.numel() == TargetRows && ColIdx.numel() == Target.cols() &&
      progression(RowIdx, TargetRows, First, Step) &&
      progression(ColIdx, Target.cols(), First, Step) &&
      Target.adoptPayload(RHS))
    return;
  std::vector<size_t> &RI = IdxScratchA, &CI = IdxScratchB;
  if (!toIndices(RowIdx, TargetRows, RI, Loc) ||
      !toIndices(ColIdx, Target.cols(), CI, Loc))
    return;
  if (!RHS.isScalar() && RHS.numel() != RI.size() * CI.size()) {
    fail(Loc, "indexed assignment size mismatch");
    return;
  }
  double *TD = Target.mutableRaw();
  size_t Flat = 0;
  for (size_t C = 0; C != CI.size(); ++C)
    for (size_t R = 0; R != RI.size(); ++R) {
      TD[CI[C] * TargetRows + RI[R]] =
          RHS.isScalar() ? RHS.scalarValue() : RHS.linear(Flat);
      ++Flat;
    }
}

void Interpreter::writeIndexed(Value &Target, const IndexExpr &LHS,
                               Value &&RHS) {
  if (LHS.numArgs() == 0) {
    fail(LHS.loc(), "invalid indexed assignment");
    return;
  }

  if (LHS.numArgs() == 1) {
    if (isa<MagicColonExpr>(LHS.arg(0))) {
      indexWriteAll(Target, std::move(RHS), LHS.loc());
      return;
    }
    Value Idx = evalSubscript(*LHS.arg(0), Target.numel());
    if (Failed)
      return;
    indexWrite1(Target, std::move(Idx), std::move(RHS), LHS.loc());
    return;
  }

  if (LHS.numArgs() == 2) {
    Value RowIdx = evalSubscript(*LHS.arg(0), Target.rows());
    Value ColIdx = evalSubscript(*LHS.arg(1), Target.cols());
    if (Failed)
      return;
    indexWrite2(Target, std::move(RowIdx), std::move(ColIdx), std::move(RHS),
                LHS.loc());
    return;
  }

  fail(LHS.loc(), "N-dimensional indexed assignment is not supported");
}

Value Interpreter::evalIndexOrCall(const IndexExpr &E) {
  int Slot = -1;
  BuiltinId Builtin = InvalidBuiltinId;
  uint32_t Plan = NoPlan;
  if (const NodeInfo *Info = cachedInfo(&E)) {
    Slot = Info->Slot;
    Builtin = Info->Builtin;
    Plan = Info->Plan;
  } else {
    std::string Name = E.baseName();
    if (Name.empty()) {
      // Expression base: evaluate it and index the result, e.g. (A*B)(1,2)
      // is not MATLAB syntax, but transposed bases appear via rewrites.
      Value Base = eval(*E.base());
      if (Failed)
        return Value();
      return readIndexed(Base, E);
    }
    Slot = Env.lookup(Name);
    Builtin = builtinIdFor(Name);
  }
  if (Slot >= 0 && Env.isDefined(Slot)) {
    double D;
    if (Plan != NoPlan && runPlan(Plan, nullptr, D))
      return Value::scalar(D);
    return readIndexed(Env.slotValue(Slot), E);
  }
  if (Builtin != InvalidBuiltinId) {
    if (E.numArgs() == 2)
      if (const auto *Prod = dyn_cast<BinaryExpr>(E.arg(0));
          Prod && Prod->op() == BinaryOp::DotMul) {
        static const BuiltinId SumId = builtinIdFor("sum");
        if (Builtin == SumId)
          return evalSumOfProducts(E, *Prod);
      }
    ArgFrame Frame(*this);
    std::vector<Value> &Args = *Frame.Args;
    Args.reserve(E.numArgs());
    EndScope NoEnd(EndExtent, -1);
    for (unsigned I = 0, N = E.numArgs(); I != N; ++I) {
      if (isa<MagicColonExpr>(E.arg(I)) || isa<EndKeywordExpr>(E.arg(I))) {
        fail(E.loc(), "':' and 'end' are not valid function arguments");
        return Value();
      }
      Args.push_back(eval(*E.arg(I)));
      if (Failed)
        return Value();
    }
    return callBuiltin(*this, Builtin, Args, E.loc());
  }
  fail(E.loc(), "undefined function or variable '" + E.baseName() + "'");
  return Value();
}

//===----------------------------------------------------------------------===//
// Workspace comparison
//===----------------------------------------------------------------------===//

std::string mvec::compareWorkspaces(const Interpreter &A, const Interpreter &B,
                                    double Tol) {
  for (const auto &[Name, ValueA] : A.workspace()) {
    const Value *ValueB = B.getVariable(Name);
    if (!ValueB)
      return "variable '" + Name + "' missing from second workspace";
    if (!ValueA.equals(*ValueB, Tol))
      return "variable '" + Name + "' differs: " + ValueA.str() + " vs " +
             ValueB->str();
  }
  for (const auto &[Name, ValueB] : B.workspace()) {
    (void)ValueB;
    if (!A.getVariable(Name))
      return "variable '" + Name + "' missing from first workspace";
  }
  return std::string();
}

//===- Compiler.cpp - AST -> bytecode lowering ----------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The lowering mirrors the tree-walker step for step. Three invariants
// carry the whole parity argument:
//
//  1. Instruction order equals the walker's evaluation order, including
//     the fused-kernel operand orders and the per-statement Step.
//  2. The 'end'/':' handling reproduces the walker's EndExtent exactly:
//     an extent context propagates through Range/Unary/Binary/Transpose
//     and an Index *base*, while Index arguments open their own subscript
//     contexts and builtin arguments and matrix-literal elements drop the
//     context entirely (a matrix literal inside a subscript keeps its
//     'end' unresolved and fails at runtime).
//  3. Registers form an expression stack: a destination is allocated
//     below its operand temporaries and the stack top is restored per
//     statement, so register numbering — and therefore the bytecode — is
//     a pure function of the AST.
//  4. Nesting is counted in the walker's eval() frames: where the walker
//     would refuse a frame at its depth limit, a Fail carrying its message
//     takes the node's place, so both engines fail at the same node and
//     the compiler's own recursion stays bounded.
//
// On top of that, operand folding: constants, and variables a forward
// definedness analysis proves assigned on every path to the use, fold
// directly into Src-class operand fields of the consuming instruction
// (negative encodings, see Bytecode.h) instead of going through
// LoadConst/LoadIdent. Folding only elides side-effect-free loads — a
// possibly-undefined variable keeps its LoadIdent so the undefined-name
// failure fires at the identifier's own location, exactly as the walker
// reports it. The analysis is intentionally conservative: a loop body
// may define a name for later statements of the same body, but nothing
// escapes the loop (the zero-trip case), and an if defines a name only
// when every branch of an if/else chain with a final else does.
//
//===----------------------------------------------------------------------===//

#include "vm/Compiler.h"

#include "frontend/ASTUtils.h"
#include "interp/Interpreter.h"

#include <cstring>
#include <unordered_map>

using namespace mvec;
using namespace mvec::vm;

namespace {

class Compiler {
public:
  CompiledProgram compile(const Program &P) {
    for (const StmtPtr &S : P.Stmts)
      compileStmt(*S);
    emit(Op::Halt, 0, 0, 0, 0, 0, SourceLoc());
    CP.NumRegs = static_cast<uint32_t>(MaxTop);
    return std::move(CP);
  }

private:
  CompiledProgram CP;
  int32_t Top = 0;
  int32_t MaxTop = 0;
  std::unordered_map<uint64_t, int32_t> ConstIdx;
  std::unordered_map<std::string, int32_t> StrIdx;
  std::unordered_map<std::string, int32_t> VarIdx;
  struct LoopCtx {
    bool IsFor;
    /// Jump target for continue, or -1 when the test sits at the loop
    /// bottom and its position is unknown until the body is compiled.
    int32_t ContinueTarget;
    std::vector<size_t> ExitFixups;
    std::vector<size_t> ContinueFixups;
  };
  std::vector<LoopCtx> Loops;
  /// Forward definedness: Defined[v] is true when variable v is assigned
  /// on every control-flow path reaching the instruction being emitted.
  std::vector<bool> Defined;
  /// Syntactic call-argument nesting depth; stamped on CallBuiltin so the
  /// VM's argument scratch vectors mirror the walker's ArgPool exactly.
  int ArgNest = 0;
  /// The walker's eval() frames active around the node being compiled
  /// (the compile-time image of Interpreter::EvalDepth).
  unsigned EvalDepth = 0;

  bool atDepthLimit() const { return EvalDepth >= Interpreter::MaxEvalDepth; }
  void emitDepthFail(const Expr &E) {
    emit(Op::Fail, 0, strIdx(Interpreter::EvalDepthMessage), 0, 0, 0,
         E.loc());
  }

  //===--------------------------------------------------------------------===//
  // Pools and emission
  //===--------------------------------------------------------------------===//

  int32_t allocReg() {
    int32_t R = Top++;
    if (Top > MaxTop)
      MaxTop = Top;
    return R;
  }

  int32_t constIdx(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    auto [It, New] = ConstIdx.try_emplace(Bits, CP.Constants.size());
    if (New)
      CP.Constants.push_back(V);
    return It->second;
  }

  int32_t strIdx(const std::string &S) {
    auto [It, New] = StrIdx.try_emplace(S, CP.Strings.size());
    if (New)
      CP.Strings.push_back(S);
    return It->second;
  }

  int32_t varIdx(const std::string &Name) {
    auto [It, New] = VarIdx.try_emplace(Name, CP.VarNames.size());
    if (New)
      CP.VarNames.push_back(Name);
    return It->second;
  }

  bool isDefinedVar(int32_t V) const {
    return static_cast<size_t>(V) < Defined.size() && Defined[V];
  }

  void markDefined(int32_t V) {
    if (static_cast<size_t>(V) >= Defined.size())
      Defined.resize(V + 1, false);
    Defined[V] = true;
  }

  size_t emit(Op O, uint8_t F, int32_t A, int32_t B = 0, int32_t C = 0,
              int32_t D = 0, SourceLoc Loc = SourceLoc(),
              SourceLoc Loc2 = SourceLoc()) {
    Instr I;
    I.Opcode = O;
    I.Flags = F;
    I.A = A;
    I.B = B;
    I.C = C;
    I.D = D;
    I.Loc = Loc;
    I.Loc2 = Loc2;
    CP.Instrs.push_back(I);
    return CP.Instrs.size() - 1;
  }

  int32_t here() const { return static_cast<int32_t>(CP.Instrs.size()); }

  /// Patches the (single) jump-target operand of instruction \p Idx.
  void setTarget(size_t Idx, int32_t Target) {
    Instr &I = CP.Instrs[Idx];
    const OpInfo &Info = opInfo(I.Opcode);
    if (Info.A == OperandClass::Target)
      I.A = Target;
    else if (Info.B == OperandClass::Target)
      I.B = Target;
    else
      I.C = Target;
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  void compileStmt(const Stmt &S) {
    int32_t Save = Top;
    emit(Op::Step, 0, 0, 0, 0, 0, S.loc());
    switch (S.kind()) {
    case Stmt::Kind::Assign:
      compileAssign(cast<AssignStmt>(S));
      break;
    case Stmt::Kind::Expr: {
      int32_t R = compileExpr(*cast<ExprStmt>(S).expr(), -1);
      emit(Op::Drop, 0, R);
      break;
    }
    case Stmt::Kind::For:
      compileFor(cast<ForStmt>(S));
      break;
    case Stmt::Kind::While:
      compileWhile(cast<WhileStmt>(S));
      break;
    case Stmt::Kind::If:
      compileIf(cast<IfStmt>(S));
      break;
    case Stmt::Kind::Break:
      // Outside any loop the walker's Flow::Break unwinds to the top and
      // stops the program; inside one it exits the innermost loop.
      if (Loops.empty())
        emit(Op::Halt, 0, 0);
      else if (Loops.back().IsFor)
        Loops.back().ExitFixups.push_back(emit(Op::ForBreak, 0, 0));
      else
        Loops.back().ExitFixups.push_back(emit(Op::Jump, 0, 0));
      break;
    case Stmt::Kind::Continue:
      if (Loops.empty())
        emit(Op::Halt, 0, 0);
      else if (Loops.back().ContinueTarget >= 0)
        emit(Op::Jump, 0, Loops.back().ContinueTarget);
      else
        Loops.back().ContinueFixups.push_back(emit(Op::Jump, 0, 0));
      break;
    case Stmt::Kind::Return:
      emit(Op::Halt, 0, 0);
      break;
    }
    Top = Save;
  }

  void compileAssign(const AssignStmt &S) {
    int32_t RHS = compileOperand(*S.rhs(), -1);
    if (const auto *Ident = dyn_cast<IdentExpr>(S.lhs())) {
      int32_t V = varIdx(Ident->name());
      // Store fusion: when the RHS root was just emitted as a Binary or
      // FusedMulAdd into RHS, retarget it to define the variable directly
      // (flags::StoreToSlot) instead of paying a StoreVar dispatch. Safe
      // because compileExpr always leaves the producing instruction last
      // and no jump target can resolve to a point between it and the
      // store; semantics are unchanged — the walker's order (evaluate,
      // define, shape-cap check at the statement loc) is preserved, with
      // the VM taking the statement loc from the enclosing Step.
      if (RHS >= 0 && !CP.Instrs.empty()) {
        Instr &Last = CP.Instrs.back();
        if ((Last.Opcode == Op::Binary || Last.Opcode == Op::FusedMulAdd) &&
            Last.A == RHS) {
          Last.Flags |= flags::StoreToSlot;
          Last.A = V;
          markDefined(V);
          return;
        }
      }
      emit(Op::StoreVar, 0, V, RHS, 0, 0, S.loc());
      markDefined(V);
      return;
    }
    const auto *Index = dyn_cast<IndexExpr>(S.lhs());
    if (!Index || Index->baseName().empty()) {
      emit(Op::Fail, 0, strIdx("invalid assignment target"), 0, 0, 0, S.loc());
      return;
    }
    int32_t V = varIdx(Index->baseName());
    // The target is marked defined before the write is attempted, even if
    // the write then fails — exactly like defineSlotRef in the walker.
    // That also makes it definitely-defined for the subscripts that
    // follow and for every later statement.
    emit(Op::DefineRef, 0, V);
    markDefined(V);
    unsigned N = Index->numArgs();
    if (N == 0) {
      emit(Op::Fail, 0, strIdx("invalid indexed assignment"), 0, 0, 0,
           Index->loc());
      return;
    }
    if (N == 1) {
      if (isa<MagicColonExpr>(Index->arg(0))) {
        emit(Op::IndexWriteAll, 0, V, RHS, 0, 0, Index->loc(), S.loc());
        return;
      }
      int32_t Idx =
          compileSubscript(*Index->arg(0), V, /*BaseIsSlot=*/true,
                           flags::DimNumel);
      emit(Op::IndexWrite1, 0, V, Idx, RHS, 0, Index->loc(), S.loc());
      return;
    }
    if (N == 2) {
      int32_t RI = compileSubscript(*Index->arg(0), V, true, flags::DimRows);
      int32_t CI = compileSubscript(*Index->arg(1), V, true, flags::DimCols);
      emit(Op::IndexWrite2, 0, V, RI, CI, RHS, Index->loc(), S.loc());
      return;
    }
    emit(Op::Fail, 0,
         strIdx("N-dimensional indexed assignment is not supported"), 0, 0, 0,
         Index->loc());
  }

  void compileFor(const ForStmt &S) {
    int32_t Range = compileExpr(*S.range(), -1);
    int32_t FI = static_cast<int32_t>(CP.ForInfos.size());
    CP.ForInfos.push_back(makeForInfo(S));
    emit(Op::ForPrep, 0, Range, FI);
    // Bottom-tested: enter through the test, ForNext jumps back to the
    // body while iterations remain and falls through to the exit.
    size_t EntryJ = emit(Op::Jump, 0, 0);
    int32_t Body = here();
    Loops.push_back({true, -1, {}, {}});
    std::vector<bool> Pre = Defined;
    markDefined(CP.ForInfos[FI].IdxVar);
    for (const StmtPtr &BS : S.body())
      compileStmt(*BS);
    Defined = std::move(Pre); // zero-trip: nothing escapes the loop
    LoopCtx L = std::move(Loops.back());
    Loops.pop_back();
    int32_t Next = here();
    setTarget(EntryJ, Next);
    for (size_t F : L.ContinueFixups)
      setTarget(F, Next);
    emit(Op::ForNext, 0, Range, FI, Body);
    int32_t Exit = here();
    for (size_t F : L.ExitFixups)
      setTarget(F, Exit);
  }

  void compileWhile(const WhileStmt &S) {
    int32_t Head = here();
    std::vector<bool> Pre = Defined;
    size_t CondExit = compileCondExit(*S.cond());
    Loops.push_back({false, Head, {CondExit}, {}});
    for (const StmtPtr &BS : S.body())
      compileStmt(*BS);
    Defined = std::move(Pre); // the body may never run
    emit(Op::Jump, 0, Head);
    LoopCtx L = std::move(Loops.back());
    Loops.pop_back();
    int32_t Exit = here();
    for (size_t F : L.ExitFixups)
      setTarget(F, Exit);
  }

  void compileIf(const IfStmt &S) {
    std::vector<size_t> EndFixups;
    const auto &Branches = S.branches();
    std::vector<bool> Pre = Defined;
    // Intersection of the branch-exit sets; meaningful only when a final
    // else makes the chain exhaustive.
    std::vector<bool> Meet;
    bool HasElse = false, FirstOut = true;
    for (size_t I = 0, E = Branches.size(); I != E; ++I) {
      const IfStmt::Branch &Br = Branches[I];
      Defined = Pre;
      if (!Br.Cond) {
        HasElse = true;
        for (const StmtPtr &BS : Br.Body)
          compileStmt(*BS);
        meet(Meet, FirstOut);
        break; // the else branch is last by construction
      }
      size_t Skip = compileCondExit(*Br.Cond);
      for (const StmtPtr &BS : Br.Body)
        compileStmt(*BS);
      meet(Meet, FirstOut);
      if (I + 1 != E)
        EndFixups.push_back(emit(Op::Jump, 0, 0));
      setTarget(Skip, here());
    }
    for (size_t F : EndFixups)
      setTarget(F, here());
    Defined = HasElse && !FirstOut ? std::move(Meet) : std::move(Pre);
  }

  /// Intersects the current Defined set into \p Meet (the running
  /// all-branches meet of compileIf).
  void meet(std::vector<bool> &Meet, bool &First) {
    if (First) {
      Meet = Defined;
      First = false;
      return;
    }
    if (Defined.size() < Meet.size())
      Meet.resize(Defined.size());
    for (size_t I = 0; I != Meet.size(); ++I)
      Meet[I] = Meet[I] && Defined[I];
  }

  /// Emits a condition and a jump taken when it is false, returning the
  /// jump's instruction index for fixup. Top-level comparisons fuse into
  /// CmpJump; anything else evaluates then tests-and-releases.
  size_t compileCondExit(const Expr &Cond) {
    int32_t Save = Top;
    if (const auto *B = dyn_cast<BinaryExpr>(&Cond)) {
      switch (B->op()) {
      case BinaryOp::Lt:
      case BinaryOp::Gt:
      case BinaryOp::Le:
      case BinaryOp::Ge:
      case BinaryOp::Eq:
      case BinaryOp::Ne: {
        // The condition is one eval() frame; statements start at depth 0.
        ++EvalDepth;
        int32_t L = compileOperandOf(*B->lhs(), -1);
        int32_t R = compileOperandOf(*B->rhs(), -1);
        --EvalDepth;
        size_t J = emit(Op::CmpJump, static_cast<uint8_t>(B->op()), L, R, 0, 0,
                        B->loc());
        Top = Save;
        return J;
      }
      default:
        break;
      }
    }
    int32_t C = compileExpr(Cond, -1);
    size_t J = emit(Op::JumpIfFalse, flags::Release, C, 0);
    Top = Save;
    return J;
  }

  ForInfo makeForInfo(const ForStmt &S) {
    ForInfo FI;
    FI.IdxVar = varIdx(S.indexVar());
    // Accumulator reserve hints: top-level A(i) = ... in the body, i the
    // loop variable — the same scan as noteAccumulatorHints.
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
      if (Idx->baseName().empty())
        continue;
      FI.HintVars.push_back(varIdx(Idx->baseName()));
    }
    return FI;
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  /// Compiles \p E into a fresh register (the expression-stack top) and
  /// returns it. \p ExtReg holds the subscript extent for 'end', or -1
  /// outside a rewritable subscript context.
  int32_t compileExpr(const Expr &E, int32_t ExtReg) {
    int32_t Dst = allocReg();
    emitExprInto(Dst, E, ExtReg);
    return Dst;
  }

  /// Compiles \p E for a Src-class operand field where the walker
  /// evaluates it with eval(): constants and definitely-defined
  /// identifiers fold into the consumer (no load instruction, no
  /// register); everything else compiles normally. Nothing folds at the
  /// depth limit, where eval() refuses even a constant.
  int32_t compileOperand(const Expr &E, int32_t ExtReg) {
    if (!atDepthLimit()) {
      if (const auto *Num = dyn_cast<NumberExpr>(&E))
        return packConstOperand(constIdx(Num->value()));
      if (const auto *Ident = dyn_cast<IdentExpr>(&E)) {
        int32_t V = varIdx(Ident->name());
        if (isDefinedVar(V))
          return packSlotOperand(V);
      }
    }
    return compileExpr(E, ExtReg);
  }

  /// compileOperand where the walker reads \p E through evalOperand,
  /// which takes a defined variable without an eval() frame.
  int32_t compileOperandOf(const Expr &E, int32_t ExtReg) {
    const auto *Ident = dyn_cast<IdentExpr>(&E);
    if (!Ident || !atDepthLimit())
      return compileOperand(E, ExtReg);
    int32_t V = varIdx(Ident->name());
    return isDefinedVar(V) ? packSlotOperand(V) : compileOperandReg(E, ExtReg);
  }

  /// compileExpr for an operand the walker reads through evalOperand.
  int32_t compileOperandReg(const Expr &E, int32_t ExtReg) {
    int32_t Dst = allocReg();
    if (!emitOperandAtLimit(Dst, E))
      emitExprInto(Dst, E, ExtReg);
    return Dst;
  }

  /// At the depth limit, an evalOperand read of a variable succeeds when
  /// the variable is defined and fails the depth check otherwise: emits
  /// that test and returns true. Returns false, emitting nothing, for any
  /// other expression or below the limit.
  bool emitOperandAtLimit(int32_t Dst, const Expr &E) {
    const auto *Ident = dyn_cast<IdentExpr>(&E);
    if (!Ident || !atDepthLimit())
      return false;
    int32_t V = varIdx(Ident->name());
    size_t TD = emit(Op::TestDefined, 0, V, 0);
    emit(Op::LoadIdent, 0, Dst, V, 0, 0, E.loc());
    size_t J = emit(Op::Jump, 0, 0);
    setTarget(TD, here());
    emitDepthFail(E);
    setTarget(J, here());
    return true;
  }

  /// Compiles \p E as one walker eval() frame, or as the depth failure
  /// where eval() would refuse it.
  void emitExprInto(int32_t Dst, const Expr &E, int32_t ExtReg) {
    if (atDepthLimit()) {
      emitDepthFail(E);
      return;
    }
    ++EvalDepth;
    emitNodeInto(Dst, E, ExtReg);
    --EvalDepth;
  }

  void emitNodeInto(int32_t Dst, const Expr &E, int32_t ExtReg) {
    switch (E.kind()) {
    case Expr::Kind::Number:
      emit(Op::LoadConst, 0, Dst, constIdx(cast<NumberExpr>(E).value()));
      return;
    case Expr::Kind::String:
      emit(Op::LoadString, 0, Dst, strIdx(cast<StringExpr>(E).value()));
      return;
    case Expr::Kind::Ident:
      emit(Op::LoadIdent, 0, Dst, varIdx(cast<IdentExpr>(E).name()), 0, 0,
           E.loc());
      return;
    case Expr::Kind::MagicColon:
      emit(Op::Fail, 0, strIdx("':' is only valid inside a subscript"), 0, 0,
           0, E.loc());
      return;
    case Expr::Kind::EndKeyword:
      if (ExtReg >= 0)
        emit(Op::Move, 0, Dst, ExtReg);
      else
        emit(Op::Fail, 0, strIdx("'end' outside of a subscript"), 0, 0, 0,
             E.loc());
      return;
    case Expr::Kind::Range: {
      const auto &R = cast<RangeExpr>(E);
      int32_t Save = Top;
      int32_t Start = compileOperand(*R.start(), ExtReg);
      int32_t Step = R.step() ? compileOperand(*R.step(), ExtReg) : kNoOperand;
      int32_t Stop = compileOperand(*R.stop(), ExtReg);
      emit(Op::MakeRange, 0, Dst, Start, Step, Stop, E.loc());
      Top = Save;
      return;
    }
    case Expr::Kind::Unary: {
      const auto &U = cast<UnaryExpr>(E);
      if (U.op() == UnaryOp::Plus) {
        // Unary plus is identity.
        if (!emitOperandAtLimit(Dst, *U.operand()))
          emitExprInto(Dst, *U.operand(), ExtReg);
        return;
      }
      int32_t Save = Top;
      int32_t Src = compileOperandReg(*U.operand(), ExtReg);
      emit(U.op() == UnaryOp::Minus ? Op::UnaryMinus : Op::UnaryNot, 0, Dst,
           Src);
      Top = Save;
      return;
    }
    case Expr::Kind::Transpose: {
      int32_t Save = Top;
      int32_t Src =
          compileOperandReg(*cast<TransposeExpr>(E).operand(), ExtReg);
      emit(Op::Transpose, 0, Dst, Src);
      Top = Save;
      return;
    }
    case Expr::Kind::Binary:
      emitBinaryInto(Dst, cast<BinaryExpr>(E), ExtReg);
      return;
    case Expr::Kind::Index:
      emitIndexOrCallInto(Dst, cast<IndexExpr>(E), ExtReg);
      return;
    case Expr::Kind::Matrix:
      emitMatrixInto(Dst, cast<MatrixExpr>(E));
      return;
    }
  }

  void emitBinaryInto(int32_t Dst, const BinaryExpr &E, int32_t ExtReg) {
    BinaryOp O = E.op();
    // Short-circuit logical operators: the result is always a fresh 0/1
    // scalar, so both arms cast in place.
    if (O == BinaryOp::AndAnd || O == BinaryOp::OrOr) {
      emitExprInto(Dst, *E.lhs(), ExtReg);
      emit(Op::CastBool, 0, Dst);
      size_t J = emit(O == BinaryOp::AndAnd ? Op::JumpIfFalse : Op::JumpIfTrue,
                      0, Dst, 0);
      emitExprInto(Dst, *E.rhs(), ExtReg);
      emit(Op::CastBool, 0, Dst);
      setTarget(J, here());
      return;
    }
    // (A .* B) +/- C fusion, product side preferred left — the same
    // trigger (and operand evaluation order) as evalBinary.
    if (O == BinaryOp::Add || O == BinaryOp::Sub) {
      const BinaryExpr *Prod = nullptr;
      bool ProductOnLeft = false;
      if (const auto *L = dyn_cast<BinaryExpr>(E.lhs());
          L && (L->op() == BinaryOp::DotMul || L->op() == BinaryOp::Mul)) {
        Prod = L;
        ProductOnLeft = true;
      } else if (const auto *R = dyn_cast<BinaryExpr>(E.rhs());
                 R && (R->op() == BinaryOp::DotMul ||
                       R->op() == BinaryOp::Mul)) {
        Prod = R;
      }
      if (Prod) {
        int32_t Save = Top;
        int32_t A, B, C;
        if (ProductOnLeft) {
          A = compileOperandOf(*Prod->lhs(), ExtReg);
          B = compileOperandOf(*Prod->rhs(), ExtReg);
          C = compileOperandOf(*E.rhs(), ExtReg);
        } else {
          C = compileOperandOf(*E.lhs(), ExtReg);
          A = compileOperandOf(*Prod->lhs(), ExtReg);
          B = compileOperandOf(*Prod->rhs(), ExtReg);
        }
        uint8_t F = (O == BinaryOp::Sub ? flags::FmaSubtract : 0) |
                    (ProductOnLeft ? flags::FmaProductOnLeft : 0) |
                    (Prod->op() == BinaryOp::DotMul ? flags::FmaDotMul : 0);
        emit(Op::FusedMulAdd, F, Dst, A, B, C, E.loc(), Prod->loc());
        Top = Save;
        return;
      }
    }
    int32_t Save = Top;
    int32_t L = compileOperandOf(*E.lhs(), ExtReg);
    int32_t R = compileOperandOf(*E.rhs(), ExtReg);
    emit(Op::Binary, static_cast<uint8_t>(O), Dst, L, R, 0, E.loc());
    Top = Save;
  }

  /// Compiles one subscript argument against \p Base (a register, or a
  /// variable when \p BaseIsSlot), opening a fresh 'end' context bound to
  /// the \p Dim extent — the compile-time image of evalSubscript.
  int32_t compileSubscript(const Expr &Arg, int32_t Base, bool BaseIsSlot,
                           uint8_t Dim) {
    uint8_t F = Dim | (BaseIsSlot ? flags::BaseIsSlot : 0);
    if (isa<MagicColonExpr>(&Arg)) {
      int32_t R = allocReg();
      emit(Op::MakeColon, F, R, Base);
      return R;
    }
    int32_t Ext = -1;
    if (mentionsEndKeyword(Arg)) {
      Ext = allocReg();
      emit(Op::LoadExtent, F, Ext, Base);
    }
    return compileOperand(Arg, Ext);
  }

  void emitIndexOrCallInto(int32_t Dst, const IndexExpr &E, int32_t ExtReg) {
    unsigned N = E.numArgs();
    std::string Name = E.baseName();
    if (Name.empty()) {
      // Expression base: index the computed value; there is no call
      // alternative. The enclosing 'end' context applies to the base.
      emitExprInto(Dst, *E.base(), ExtReg);
      if (N == 0)
        return; // reading with no subscripts yields the base itself
      if (N == 1) {
        if (isa<MagicColonExpr>(E.arg(0))) {
          emit(Op::IndexReadAll, 0, Dst, Dst);
          return;
        }
        int32_t Save = Top;
        int32_t Idx = compileSubscript(*E.arg(0), Dst, false, flags::DimNumel);
        emit(Op::IndexRead1, 0, Dst, Dst, Idx, 0, E.loc());
        Top = Save;
        return;
      }
      if (N == 2) {
        int32_t Save = Top;
        int32_t RI = compileSubscript(*E.arg(0), Dst, false, flags::DimRows);
        int32_t CI = compileSubscript(*E.arg(1), Dst, false, flags::DimCols);
        emit(Op::IndexRead2, 0, Dst, Dst, RI, CI, E.loc());
        Top = Save;
        return;
      }
      emit(Op::Fail, 0, strIdx("N-dimensional indexing is not supported"), 0,
           0, 0, E.loc());
      return;
    }

    int32_t V = varIdx(Name);
    size_t TD = emit(Op::TestDefined, 0, V, 0);
    // Defined-variable branch: subscript read.
    {
      int32_t Save = Top;
      uint8_t SlotF = flags::BaseIsSlot;
      if (N == 0) {
        emit(Op::IndexRead0, 0, Dst, V);
      } else if (N == 1) {
        if (isa<MagicColonExpr>(E.arg(0))) {
          emit(Op::IndexReadAll, SlotF, Dst, V);
        } else {
          int32_t Idx = compileSubscript(*E.arg(0), V, true, flags::DimNumel);
          emit(Op::IndexRead1, SlotF, Dst, V, Idx, 0, E.loc());
        }
      } else if (N == 2) {
        int32_t RI = compileSubscript(*E.arg(0), V, true, flags::DimRows);
        int32_t CI = compileSubscript(*E.arg(1), V, true, flags::DimCols);
        emit(Op::IndexRead2, SlotF, Dst, V, RI, CI, E.loc());
      } else {
        emit(Op::Fail, 0, strIdx("N-dimensional indexing is not supported"),
             0, 0, 0, E.loc());
      }
      Top = Save;
    }
    size_t JEnd = emit(Op::Jump, 0, 0);
    setTarget(TD, here());
    // Undefined-variable branch: builtin call (or the undefined failure).
    emit(Op::CheckCallable, 0, V,
         strIdx("undefined function or variable '" + Name + "'"), 0, 0,
         E.loc());
    {
      int32_t Save = Top;
      int32_t ArgBase = Top;
      uint8_t Depth = static_cast<uint8_t>(ArgNest > 255 ? 255 : ArgNest);
      bool Aborted = false;
      ++ArgNest;
      for (unsigned I = 0; I != N; ++I) {
        if (isa<MagicColonExpr>(E.arg(I)) || isa<EndKeywordExpr>(E.arg(I))) {
          emit(Op::Fail, 0,
               strIdx("':' and 'end' are not valid function arguments"), 0, 0,
               0, E.loc());
          Aborted = true;
          break;
        }
        compileExpr(*E.arg(I), -1); // lands contiguously at ArgBase + I
      }
      --ArgNest;
      if (!Aborted)
        emit(Op::CallBuiltin, Depth, Dst, V, ArgBase, static_cast<int32_t>(N),
             E.loc());
      Top = Save;
    }
    setTarget(JEnd, here());
  }

  void emitMatrixInto(int32_t Dst, const MatrixExpr &E) {
    const auto &Rows = E.rows();
    if (Rows.empty()) {
      emit(Op::LoadEmpty, 0, Dst);
      return;
    }
    emit(Op::MatBegin, 0, 0);
    bool FirstRow = true;
    for (const MatrixExpr::Row &Row : Rows) {
      if (FirstRow) {
        emitRowInto(Dst, Row);
        FirstRow = false;
        continue;
      }
      int32_t RowReg = allocReg();
      emitRowInto(RowReg, Row);
      emit(Op::VertCat, 0, Dst, RowReg);
      Top = RowReg;
    }
    emit(Op::MatEnd, 0, Dst, 0, 0, 0, E.loc());
  }

  void emitRowInto(int32_t RowReg, const MatrixExpr::Row &Row) {
    if (Row.empty()) {
      emit(Op::LoadEmpty, 0, RowReg);
      return;
    }
    // Matrix-literal elements never see the enclosing subscript's 'end'
    // context, as in the walker.
    emitExprInto(RowReg, *Row[0], -1);
    for (size_t I = 1, E = Row.size(); I != E; ++I) {
      int32_t Save = Top;
      int32_t Elt = compileExpr(*Row[I], -1);
      emit(Op::HorzCat, 0, RowReg, Elt);
      Top = Save;
    }
  }
};

} // namespace

CompiledProgram vm::compileProgram(const Program &P, const std::string &) {
  return Compiler().compile(P);
}

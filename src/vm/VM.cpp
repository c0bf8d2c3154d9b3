//===- VM.cpp - Bytecode dispatch loop ------------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Every case below is a verbatim transliteration of one step of the
// tree-walker, calling the same Interpreter engine-support primitives the
// walker itself runs on, so governor accounting is identical across
// engines. Operand registers are moved out into handler locals, which die
// when the handler's block closes, as the walker's operand temporaries do.
//
// Two speed mechanisms, neither observable:
//
//   Unboxed scalar registers. A plain (non-logical) 1x1 value lives as a
//   raw double in Sca[] with IsSca[] set; Regs[] holds the boxed Value
//   only when an op actually needs one. Scalar Values carry no heap
//   buffer and constructing one charges nothing, so this changes
//   representation, not behavior. Logical
//   scalars (comparison results) stay boxed so mask-indexing semantics
//   survive; the scalar fast paths below compute with the ScalarOps.h
//   helpers that applyBinary, applyFusedMulAdd and toIndex call.
//
//   Threaded dispatch. Each handler jumps straight to the next opcode's
//   handler (computed goto, a GNU extension every supported compiler
//   has), and handlers that provably cannot enter the failed state skip
//   the per-instruction failure check (VM_NEXT_NOFAIL).
//
// Scope discipline: computed goto does NOT run
// destructors when it jumps out of a scope (unlike plain goto), so any
// handler local with a nontrivial destructor must be dead — destroyed by
// an inner scope or moved-from — before VM_NEXT()/VM_NEXT_NOFAIL() runs.
// Handlers that materialize Values therefore do their work inside a
// nested block and dispatch after it closes.
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "interp/Builtins.h"
#include "interp/Interpreter.h"
#include "interp/MatrixOps.h"
#include "interp/ScalarOps.h"
#include "interp/Workspace.h"

#include <algorithm>

using namespace mvec;
using namespace mvec::vm;

namespace {

/// Per-execution binding of a VarNames entry to the host workspace, with
/// the same variable -> pi -> builtin resolution prepare() caches.
struct BoundVar {
  unsigned Slot = 0;
  BuiltinId Builtin = InvalidBuiltinId;
  bool IsPi = false;
};

/// Runtime state of one active for loop. IdxSlot and the range register
/// are resolved once at ForPrep so each ForNext iteration touches only
/// this frame.
struct ForFrame {
  int32_t RangeReg = 0;
  unsigned IdxSlot = 0;
  size_t Col = 0;
  size_t NumIters = 0;
  size_t HintsBefore = 0;
};

} // namespace

#if !defined(__GNUC__) && !defined(__clang__)
#error "the VM's dispatch loop needs computed goto (GNU labels as values)"
#endif

// VM_CASE opens a handler label; VM_NEXT re-dispatches directly. The
// failed() check runs only after handlers that can fail — a handler that
// never calls fail()/stmtStep leaves the flag exactly as the previous
// check saw it.
#define VM_CASE(name) Lbl_##name
#define VM_DISPATCH()                                                          \
  do {                                                                         \
    IP = NextIP;                                                               \
    In = &P.Instrs[IP];                                                        \
    NextIP = IP + 1;                                                           \
    goto *Table[static_cast<uint8_t>(In->Opcode)];                             \
  } while (0)
#define VM_NEXT()                                                              \
  do {                                                                         \
    if (Host.failed())                                                         \
      goto Lbl_Stop;                                                           \
    VM_DISPATCH();                                                             \
  } while (0)
#define VM_NEXT_NOFAIL() VM_DISPATCH()

bool vm::execute(const CompiledProgram &P, Interpreter &Host) {
  Workspace &Env = Host.env();

  std::vector<BoundVar> Bound;
  Bound.reserve(P.VarNames.size());
  for (const std::string &Name : P.VarNames) {
    BoundVar V;
    V.Slot = Env.intern(Name);
    V.Builtin = builtinIdFor(Name);
    V.IsPi = (Name == "pi");
    Bound.push_back(V);
  }

  std::vector<Value> Regs(P.NumRegs);
  std::vector<double> Sca(P.NumRegs, 0.0);
  std::vector<uint8_t> IsSca(P.NumRegs, 0);
  std::vector<ForFrame> Frames;
  std::vector<OpError> MatErrs;
  // Mirrors the walker's ArgPool: one scratch vector per syntactic
  // call-nesting depth, each holding its last call's arguments until the
  // next call at that depth — argument lifetimes (and the memory the
  // governor sees charged) match the walker's.
  std::vector<std::vector<Value>> ArgPool;
  std::vector<Value> ArgsNone;

  // Invariant: IsSca[R] implies Regs[R] is empty. box() materializes the
  // Value form; setSca/setVal overwrite a register in either form.
  auto box = [&](int32_t R) -> Value & {
    if (IsSca[R]) {
      IsSca[R] = 0;
      Regs[R] = Value::scalar(Sca[R]);
    }
    return Regs[R];
  };
  auto setSca = [&](int32_t R, double V) {
    if (!IsSca[R]) {
      IsSca[R] = 1;
      Regs[R] = Value();
    }
    Sca[R] = V;
  };
  auto setVal = [&](int32_t R, Value V) {
    IsSca[R] = 0;
    Regs[R] = std::move(V);
  };
  // Releases a register where the walker drops the same temporary.
  auto clearReg = [&](int32_t R) {
    if (IsSca[R])
      IsSca[R] = 0;
    else
      Regs[R] = Value();
  };
  auto isScalarReg = [&](int32_t R) {
    return IsSca[R] || Regs[R].isScalar();
  };
  auto regScalar = [&](int32_t R) {
    return IsSca[R] ? Sca[R] : Regs[R].scalarValue();
  };
  // Src-operand accessors (register >= 0, folded slot/const < 0; see
  // Bytecode.h). srcSca reads the operand as a raw double when it is any
  // 1x1 value — the exact trigger of applyBinary's scalar fast path,
  // logical scalars included. srcScaPlain additionally requires
  // non-logical (subscript fast paths, where a logical 1x1 selects by
  // mask instead). srcLoad materializes the operand as a Value for the
  // generic kernels: registers move out (and die with the caller's
  // local, as the walker's operand temporaries do), folded sources build
  // the same COW copy / fresh scalar the elided LoadIdent/LoadConst would
  // have built.
  auto srcSca = [&](int32_t X, double &Out) -> bool {
    if (X >= 0) {
      if (IsSca[X]) {
        Out = Sca[X];
        return true;
      }
      const Value &V = Regs[X];
      if (!V.isScalar())
        return false;
      Out = V.scalarValue();
      return true;
    }
    if (foldedIsConst(X)) {
      Out = P.Constants[foldedIndex(X)];
      return true;
    }
    const BoundVar &BV = Bound[foldedIndex(X)];
    if (!Env.isDefined(BV.Slot))
      return false; // malformed bytecode; the generic path reports it
    const Value &V = Env.slotValue(BV.Slot);
    if (!V.isScalar())
      return false;
    Out = V.scalarValue();
    return true;
  };
  auto srcScaPlain = [&](int32_t X, double &Out) -> bool {
    if (X >= 0 && IsSca[X]) {
      Out = Sca[X];
      return true;
    }
    if (X < 0 && foldedIsConst(X)) {
      Out = P.Constants[foldedIndex(X)];
      return true;
    }
    const Value *V;
    if (X >= 0) {
      V = &Regs[X];
    } else {
      const BoundVar &BV = Bound[foldedIndex(X)];
      if (!Env.isDefined(BV.Slot))
        return false;
      V = &Env.slotValue(BV.Slot);
    }
    if (!V->isScalar() || V->isLogical())
      return false;
    Out = V->scalarValue();
    return true;
  };
  auto srcLoad = [&](int32_t X, SourceLoc Loc) -> Value {
    if (X >= 0) {
      if (IsSca[X]) {
        IsSca[X] = 0;
        return Value::scalar(Sca[X]);
      }
      return std::move(Regs[X]);
    }
    if (foldedIsConst(X))
      return Value::scalar(P.Constants[foldedIndex(X)]);
    const BoundVar &BV = Bound[foldedIndex(X)];
    if (Env.isDefined(BV.Slot))
      return Env.slotValue(BV.Slot);
    // The compiler folds only proven-defined names; this tail exists so
    // hand-crafted bytecode still behaves like the LoadIdent it elides.
    if (BV.IsPi)
      return Value::scalar(3.14159265358979323846);
    if (BV.Builtin != InvalidBuiltinId)
      return callBuiltin(Host, BV.Builtin, ArgsNone, Loc);
    Host.fail(Loc, "undefined variable '" + P.VarNames[foldedIndex(X)] + "'");
    return Value();
  };
  // Releases the register behind a Src operand after a scalar fast path
  // consumed it (folded sources occupy no register).
  auto clearSrc = [&](int32_t X) {
    if (X >= 0)
      clearReg(X);
  };
  // The base operand B of an indexing op: a variable or a register.
  auto baseOf = [&](const Instr &I) -> const Value & {
    return (I.Flags & flags::BaseIsSlot) ? Env.slotValue(Bound[I.B].Slot)
                                         : box(I.B);
  };
  // The extent of baseOf(I) that flags::DimMask names.
  auto extentOf = [&](const Instr &I) -> size_t {
    const Value &Base = baseOf(I);
    switch (I.Flags & flags::DimMask) {
    case flags::DimRows:
      return Base.rows();
    case flags::DimCols:
      return Base.cols();
    default:
      return Base.numel();
    }
  };

  Host.engineBegin();

  auto internalFail = [&](SourceLoc Loc) {
    Host.fail(Loc, "internal error: malformed bytecode");
  };

  size_t IP = 0;
  size_t NextIP = 1;
  const Instr *In = &P.Instrs[0];
  // The enclosing statement's location, maintained by Step. Fused stores
  // (flags::StoreToSlot) run their shape-cap check against it — the same
  // loc the StoreVar they replace carried, since the compiler emits Step
  // and StoreVar with the identical statement loc.
  SourceLoc CurStmt;
  try {
    // Label-address table; order must match the Op enum exactly.
    static const void *Table[] = {
        &&Lbl_Halt,        &&Lbl_Step,        &&Lbl_Drop,
        &&Lbl_LoadConst,   &&Lbl_LoadEmpty,   &&Lbl_LoadString,
        &&Lbl_LoadIdent,   &&Lbl_StoreVar,    &&Lbl_Move,
        &&Lbl_Jump,        &&Lbl_JumpIfTrue,  &&Lbl_JumpIfFalse,
        &&Lbl_CastBool,    &&Lbl_CmpJump,     &&Lbl_MakeRange,
        &&Lbl_UnaryMinus,  &&Lbl_UnaryNot,    &&Lbl_Transpose,
        &&Lbl_Binary,      &&Lbl_FusedMulAdd, &&Lbl_LoadExtent,
        &&Lbl_MakeColon,
        &&Lbl_TestDefined, &&Lbl_CheckCallable, &&Lbl_CallBuiltin,
        &&Lbl_Fail,        &&Lbl_IndexRead0,  &&Lbl_IndexReadAll,
        &&Lbl_IndexRead1,  &&Lbl_IndexRead2,  &&Lbl_DefineRef,
        &&Lbl_IndexWriteAll, &&Lbl_IndexWrite1, &&Lbl_IndexWrite2,
        &&Lbl_MatBegin,    &&Lbl_HorzCat,     &&Lbl_VertCat,
        &&Lbl_MatEnd,      &&Lbl_ForPrep,     &&Lbl_ForNext,
        &&Lbl_ForBreak,
    };
    static_assert(sizeof(Table) / sizeof(Table[0]) == kNumOps,
                  "dispatch table out of sync with the opcode list");
    goto *Table[static_cast<uint8_t>(In->Opcode)];

      VM_CASE(Halt) : { goto Lbl_Stop; }
      VM_CASE(Step) : {
        CurStmt = In->Loc;
        Host.stmtStep(In->Loc); // sets the failed state on limit/interrupt
        VM_NEXT();
      }
      VM_CASE(Drop) : {
        clearReg(In->A);
        VM_NEXT_NOFAIL();
      }
      VM_CASE(LoadConst) : {
        setSca(In->A, P.Constants[In->B]);
        VM_NEXT_NOFAIL();
      }
      VM_CASE(LoadEmpty) : {
        setVal(In->A, Value());
        VM_NEXT_NOFAIL();
      }
      VM_CASE(LoadString) : {
        // Built per execution (not constant-pooled) so allocation and
        // memory charging happen exactly where the walker's do.
        const std::string &S = P.Strings[In->B];
        std::vector<double> Codes(S.begin(), S.end());
        setVal(In->A, Value::vector(std::move(Codes), /*Row=*/true));
        VM_NEXT_NOFAIL();
      }
      VM_CASE(LoadIdent) : {
        const BoundVar &V = Bound[In->B];
        if (Env.isDefined(V.Slot)) {
          const Value &SV = Env.slotValue(V.Slot);
          if (SV.isScalar() && !SV.isLogical())
            setSca(In->A, SV.scalarValue());
          else
            setVal(In->A, SV);
          VM_NEXT_NOFAIL();
        }
        if (V.IsPi) {
          setSca(In->A, 3.14159265358979323846);
          VM_NEXT_NOFAIL();
        }
        if (V.Builtin != InvalidBuiltinId)
          setVal(In->A, callBuiltin(Host, V.Builtin, ArgsNone, In->Loc));
        else
          Host.fail(In->Loc,
                    "undefined variable '" + P.VarNames[In->B] + "'");
        VM_NEXT();
      }
      VM_CASE(StoreVar) : {
        unsigned Slot = Bound[In->A].Slot;
        int32_t B = In->B;
        if (B >= 0 && IsSca[B]) {
          IsSca[B] = 0;
          Env.define(Slot, Value::scalar(Sca[B]));
        } else if (B >= 0) {
          Env.define(Slot, std::move(Regs[B]));
        } else {
          Value V = srcLoad(B, In->Loc);
          if (!Host.failed())
            Env.define(Slot, std::move(V));
        }
        if (Host.failed())
          VM_NEXT();
        if (!Host.hasShapeCaps())
          VM_NEXT_NOFAIL();
        Host.checkShapeCap(Slot, In->Loc);
        VM_NEXT();
      }
      VM_CASE(Move) : {
        if (IsSca[In->B])
          setSca(In->A, Sca[In->B]);
        else
          setVal(In->A, Regs[In->B]); // COW copy; the source stays live
        VM_NEXT_NOFAIL();
      }
      VM_CASE(Jump) : {
        NextIP = static_cast<size_t>(In->A);
        // A backward jump is a loop back-edge; poll so a bodiless loop
        // (whose body never reaches a Step) stays interruptible.
        if (NextIP <= IP) {
          Host.backEdgePoll(CurStmt);
          VM_NEXT();
        } else {
          VM_NEXT_NOFAIL();
        }
      }
      VM_CASE(JumpIfTrue) : {
        bool T = IsSca[In->A] ? Sca[In->A] != 0.0 : Regs[In->A].isTrue();
        if (In->Flags & flags::Release)
          clearReg(In->A);
        if (T)
          NextIP = static_cast<size_t>(In->B);
        VM_NEXT_NOFAIL();
      }
      VM_CASE(JumpIfFalse) : {
        bool T = IsSca[In->A] ? Sca[In->A] != 0.0 : Regs[In->A].isTrue();
        if (In->Flags & flags::Release)
          clearReg(In->A);
        if (!T)
          NextIP = static_cast<size_t>(In->B);
        VM_NEXT_NOFAIL();
      }
      VM_CASE(CastBool) : {
        setSca(In->A,
               (IsSca[In->A] ? Sca[In->A] != 0.0 : Regs[In->A].isTrue())
                   ? 1.0
                   : 0.0);
        VM_NEXT_NOFAIL();
      }
      VM_CASE(CmpJump) : {
        double A, B;
        if (srcSca(In->A, A) && srcSca(In->B, B)) {
          bool V = scalarBinary(static_cast<BinaryOp>(In->Flags), A, B) != 0.0;
          clearSrc(In->A);
          clearSrc(In->B);
          if (!V)
            NextIP = static_cast<size_t>(In->C);
          VM_NEXT_NOFAIL();
        }
        {
          Value L = srcLoad(In->A, In->Loc);
          Value R = srcLoad(In->B, In->Loc);
          if (!Host.failed()) {
            Value C = Host.applyBinary(static_cast<BinaryOp>(In->Flags), L, R,
                                       In->Loc);
            if (!C.isTrue())
              NextIP = static_cast<size_t>(In->C);
          }
        }
        VM_NEXT();
      }
      VM_CASE(MakeRange) : {
        // Inner scope: see the threaded-dispatch scope discipline above.
        {
          Value Start = srcLoad(In->B, In->Loc);
          Value Step = In->C == kNoOperand ? Value::scalar(1.0)
                                           : srcLoad(In->C, In->Loc);
          Value Stop = srcLoad(In->D, In->Loc);
          if (!Host.failed())
            setVal(In->A, Host.makeRangeChecked(Start, Step, Stop, In->Loc));
        }
        VM_NEXT();
      }
      VM_CASE(UnaryMinus) : {
        if (IsSca[In->B]) {
          // unaryMinus on a scalar builds a fresh plain 1x1: -x.
          double V = -Sca[In->B];
          if (In->A != In->B)
            clearReg(In->B);
          setSca(In->A, V);
        } else {
          setVal(In->A, unaryMinus(std::exchange(Regs[In->B], Value()),
                                   &Host.pool()));
        }
        VM_NEXT_NOFAIL();
      }
      VM_CASE(UnaryNot) : {
        if (isScalarReg(In->B)) {
          // unaryNot on a scalar: (x == 0), marked logical.
          bool Zero = regScalar(In->B) == 0.0;
          clearReg(In->B);
          setVal(In->A, logicalScalar(Zero));
        } else {
          setVal(In->A, unaryNot(std::exchange(Regs[In->B], Value()),
                                 &Host.pool()));
        }
        VM_NEXT_NOFAIL();
      }
      VM_CASE(Transpose) : {
        if (IsSca[In->B]) {
          // A plain scalar transposes to itself (fresh 1x1, no flags).
          if (In->A != In->B) {
            double V = Sca[In->B];
            clearReg(In->B);
            setSca(In->A, V);
          }
        } else {
          setVal(In->A, transpose(std::exchange(Regs[In->B], Value())));
        }
        VM_NEXT_NOFAIL();
      }
      VM_CASE(Binary) : {
        BinaryOp BO = static_cast<BinaryOp>(In->Flags & ~flags::StoreToSlot);
        double L, R;
        if (hasScalarForm(BO) && srcSca(In->B, L) && srcSca(In->C, R)) {
          // Interpreter::applyBinary's scalar fast path (the short-circuit
          // ops are never compiler-emitted as Binary).
          clearSrc(In->B);
          clearSrc(In->C);
          double Num = scalarBinary(BO, L, R);
          if (In->Flags & flags::StoreToSlot) {
            unsigned Slot = Bound[In->A].Slot;
            Env.define(Slot, scalarResult(BO, Num));
            if (!Host.hasShapeCaps())
              VM_NEXT_NOFAIL();
            Host.checkShapeCap(Slot, CurStmt);
            VM_NEXT();
          }
          if (scalarIsLogical(BO))
            setVal(In->A, scalarResult(BO, Num));
          else
            setSca(In->A, Num);
          VM_NEXT_NOFAIL();
        }
        {
          Value LV = srcLoad(In->B, In->Loc);
          Value RV = srcLoad(In->C, In->Loc);
          if (!Host.failed()) {
            Value Res = Host.applyBinary(BO, LV, RV, In->Loc);
            if (In->Flags & flags::StoreToSlot) {
              if (!Host.failed()) {
                unsigned Slot = Bound[In->A].Slot;
                Env.define(Slot, std::move(Res));
                if (Host.hasShapeCaps())
                  Host.checkShapeCap(Slot, CurStmt);
              }
            } else {
              setVal(In->A, std::move(Res));
            }
          }
        }
        VM_NEXT();
      }
      VM_CASE(FusedMulAdd) : {
        double SA, SB, SC;
        if (srcSca(In->B, SA) && srcSca(In->C, SB) && srcSca(In->D, SC)) {
          // applyFusedMulAdd's all-scalar case.
          clearSrc(In->B);
          clearSrc(In->C);
          clearSrc(In->D);
          double R =
              scalarMulAdd(SA * SB, SC, (In->Flags & flags::FmaSubtract) != 0,
                           (In->Flags & flags::FmaProductOnLeft) != 0);
          if (In->Flags & flags::StoreToSlot) {
            unsigned Slot = Bound[In->A].Slot;
            Env.define(Slot, Value::scalar(R));
            if (!Host.hasShapeCaps())
              VM_NEXT_NOFAIL();
            Host.checkShapeCap(Slot, CurStmt);
            VM_NEXT();
          }
          setSca(In->A, R);
          VM_NEXT_NOFAIL();
        }
        {
          Value A = srcLoad(In->B, In->Loc);
          Value B = srcLoad(In->C, In->Loc);
          Value C = srcLoad(In->D, In->Loc);
          if (!Host.failed()) {
            Value R = Host.applyFusedMulAdd(
                A, B, C, (In->Flags & flags::FmaSubtract) != 0,
                (In->Flags & flags::FmaProductOnLeft) != 0,
                (In->Flags & flags::FmaDotMul) != 0, In->Loc, In->Loc2);
            if (In->Flags & flags::StoreToSlot) {
              if (!Host.failed()) {
                unsigned Slot = Bound[In->A].Slot;
                Env.define(Slot, std::move(R));
                if (Host.hasShapeCaps())
                  Host.checkShapeCap(Slot, CurStmt);
              }
            } else {
              setVal(In->A, std::move(R));
            }
          }
        }
        VM_NEXT();
      }
      VM_CASE(LoadExtent) : {
        setSca(In->A, static_cast<double>(extentOf(*In)));
        VM_NEXT_NOFAIL();
      }
      VM_CASE(MakeColon) : {
        setVal(In->A, Interpreter::makeColonVector(extentOf(*In)));
        VM_NEXT_NOFAIL();
      }
      VM_CASE(TestDefined) : {
        if (!Env.isDefined(Bound[In->A].Slot))
          NextIP = static_cast<size_t>(In->B);
        VM_NEXT_NOFAIL();
      }
      VM_CASE(CheckCallable) : {
        if (Bound[In->A].Builtin == InvalidBuiltinId)
          Host.fail(In->Loc, P.Strings[In->B]);
        VM_NEXT();
      }
      VM_CASE(CallBuiltin) : {
        size_t Depth = In->Flags;
        if (ArgPool.size() <= Depth)
          ArgPool.resize(Depth + 1);
        std::vector<Value> &Args = ArgPool[Depth];
        Args.clear();
        Args.reserve(In->D);
        for (int32_t I = 0; I != In->D; ++I)
          Args.push_back(std::move(box(In->C + I)));
        setVal(In->A, callBuiltin(Host, Bound[In->B].Builtin, Args, In->Loc));
        VM_NEXT();
      }
      VM_CASE(Fail) : {
        Host.fail(In->Loc, P.Strings[In->A]);
        VM_NEXT();
      }
      VM_CASE(IndexRead0) : {
        const Value &SV = Env.slotValue(Bound[In->B].Slot);
        if (SV.isScalar() && !SV.isLogical())
          setSca(In->A, SV.scalarValue());
        else
          setVal(In->A, SV);
        VM_NEXT_NOFAIL();
      }
      VM_CASE(IndexReadAll) : {
        const Value &Base = baseOf(*In);
        setVal(In->A, Host.indexReadAll(Base));
        VM_NEXT();
      }
      VM_CASE(IndexRead1) : {
        const Value &Base = baseOf(*In);
        double D;
        size_t I;
        if (!Base.isLogical() && srcScaPlain(In->C, D) &&
            integralIndex(D, indexLimit(Base.numel()), I)) {
          // In-bounds plain scalar subscript of a plain base: indexRead1
          // would build a fresh plain 1x1 holding the selected element.
          double V = Base.linear(I);
          clearSrc(In->C);
          setSca(In->A, V);
          VM_NEXT_NOFAIL();
        }
        {
          Value Idx = srcLoad(In->C, In->Loc);
          if (!Host.failed())
            setVal(In->A, Host.indexRead1(Base, std::move(Idx), In->Loc));
        }
        VM_NEXT();
      }
      VM_CASE(IndexRead2) : {
        const Value &Base = baseOf(*In);
        double RD, CD;
        size_t R, C;
        if (!Base.isLogical() && srcScaPlain(In->C, RD) &&
            srcScaPlain(In->D, CD) &&
            integralIndex(RD, indexLimit(Base.rows()), R) &&
            integralIndex(CD, indexLimit(Base.cols()), C)) {
          double V = Base.at(R, C);
          clearSrc(In->C);
          clearSrc(In->D);
          setSca(In->A, V);
          VM_NEXT_NOFAIL();
        }
        {
          Value RI = srcLoad(In->C, In->Loc);
          Value CI = srcLoad(In->D, In->Loc);
          if (!Host.failed())
            setVal(In->A,
                   Host.indexRead2(Base, std::move(RI), std::move(CI), In->Loc));
        }
        VM_NEXT();
      }
      VM_CASE(DefineRef) : {
        Host.defineSlotRef(Bound[In->A].Slot);
        VM_NEXT_NOFAIL();
      }
      VM_CASE(IndexWriteAll) : {
        unsigned Slot = Bound[In->A].Slot;
        {
          // A folded-slot RHS materializes as a COW copy here, exactly
          // the temporary the walker's RHS evaluation holds — so
          // mutableRaw inside the write sees the same sharing (the
          // A(:) = A case detaches identically on both engines).
          Value RHS = srcLoad(In->B, In->Loc);
          if (!Host.failed()) {
            Host.indexWriteAll(Env.slotValue(Slot), std::move(RHS), In->Loc);
            Host.checkShapeCap(Slot, In->Loc2);
          }
        }
        VM_NEXT();
      }
      VM_CASE(IndexWrite1) : {
        unsigned Slot = Bound[In->A].Slot;
        double D, RV;
        size_t I;
        if (srcScaPlain(In->B, D) && srcSca(In->C, RV) &&
            integralIndex(D, MaxExactSubscript, I)) {
          // Plain integral scalar subscript, scalar RHS: replicate
          // indexWrite1's scalar-index behavior — growth rules included
          // — without the index-vector machinery. The RHS double was
          // read above, before any mutation, which is also what the
          // walker's pre-evaluated RHS temporary guarantees.
          Value &Target = Env.slotValue(Slot);
          if (I >= Target.numel() &&
              !Host.growLinear(Target, D, /*ColumnIdx=*/false, In->Loc)) {
            clearSrc(In->B);
            clearSrc(In->C);
            VM_NEXT();
          }
          Target.mutableRaw()[I] = RV;
          clearSrc(In->B);
          clearSrc(In->C);
          Host.checkShapeCap(Slot, In->Loc2);
          VM_NEXT();
        }
        {
          Value Idx = srcLoad(In->B, In->Loc);
          Value RHS = srcLoad(In->C, In->Loc);
          if (!Host.failed()) {
            Host.indexWrite1(Env.slotValue(Slot), std::move(Idx),
                             std::move(RHS), In->Loc);
            Host.checkShapeCap(Slot, In->Loc2);
          }
        }
        VM_NEXT();
      }
      VM_CASE(IndexWrite2) : {
        unsigned Slot = Bound[In->A].Slot;
        double RD, CD, RV;
        size_t R, C;
        if (srcScaPlain(In->B, RD) && srcScaPlain(In->C, CD) &&
            srcSca(In->D, RV) && integralIndex(RD, MaxExactSubscript, R) &&
            integralIndex(CD, MaxExactSubscript, C)) {
          Value &Target = Env.slotValue(Slot);
          if ((R >= Target.rows() || C >= Target.cols()) &&
              !Host.growShape(Target, RD, CD, In->Loc)) {
            clearSrc(In->B);
            clearSrc(In->C);
            clearSrc(In->D);
            VM_NEXT();
          }
          Target.mutableRaw()[C * Target.rows() + R] = RV;
          clearSrc(In->B);
          clearSrc(In->C);
          clearSrc(In->D);
          Host.checkShapeCap(Slot, In->Loc2);
          VM_NEXT();
        }
        {
          Value RI = srcLoad(In->B, In->Loc);
          Value CI = srcLoad(In->C, In->Loc);
          Value RHS = srcLoad(In->D, In->Loc);
          if (!Host.failed()) {
            Host.indexWrite2(Env.slotValue(Slot), std::move(RI),
                             std::move(CI), std::move(RHS), In->Loc);
            Host.checkShapeCap(Slot, In->Loc2);
          }
        }
        VM_NEXT();
      }
      VM_CASE(MatBegin) : {
        MatErrs.emplace_back();
        VM_NEXT_NOFAIL();
      }
      VM_CASE(HorzCat) : {
        if (MatErrs.empty()) {
          internalFail(In->Loc);
          VM_NEXT();
        }
        setVal(In->A, horzcat(box(In->A), box(In->B), MatErrs.back()));
        Regs[In->B] = Value();
        VM_NEXT_NOFAIL();
      }
      VM_CASE(VertCat) : {
        if (MatErrs.empty()) {
          internalFail(In->Loc);
          VM_NEXT();
        }
        setVal(In->A, vertcat(box(In->A), box(In->B), MatErrs.back()));
        Regs[In->B] = Value();
        VM_NEXT_NOFAIL();
      }
      VM_CASE(MatEnd) : {
        if (MatErrs.empty()) {
          internalFail(In->Loc);
          VM_NEXT();
        }
        {
          OpError Err = std::move(MatErrs.back());
          MatErrs.pop_back();
          if (Err.failed())
            Host.fail(In->Loc, Err.Message);
        }
        VM_NEXT();
      }
      VM_CASE(ForPrep) : {
        const Value &RangeV = box(In->A);
        ForFrame F;
        F.RangeReg = In->A;
        F.IdxSlot = Bound[P.ForInfos[In->B].IdxVar].Slot;
        F.NumIters = RangeV.isEmpty() ? 0 : RangeV.cols();
        F.HintsBefore = Host.pendingHintCount();
        if (F.NumIters > 8)
          for (int32_t HV : P.ForInfos[In->B].HintVars)
            Host.noteHintForSlot(Bound[HV].Slot, F.NumIters);
        Frames.push_back(F);
        VM_NEXT_NOFAIL();
      }
      VM_CASE(ForNext) : {
        // Bottom-tested: defines the loop variable and jumps back to the
        // body (C) while iterations remain; falls through to the loop
        // exit once exhausted. One dispatch per iteration.
        if (Frames.empty()) {
          internalFail(In->Loc);
          VM_NEXT();
        }
        ForFrame &F = Frames.back();
        if (F.Col != F.NumIters) {
          const Value &RangeV = Regs[F.RangeReg];
          if (RangeV.rows() == 1) {
            Env.defineScalar(F.IdxSlot, RangeV.at(0, F.Col));
          } else {
            Value Slice(RangeV.rows(), 1);
            double *SliceD = Slice.mutableRaw();
            for (size_t R = 0, E = RangeV.rows(); R != E; ++R)
              SliceD[R] = RangeV.at(R, F.Col);
            Env.define(F.IdxSlot, std::move(Slice));
          }
          ++F.Col;
          NextIP = static_cast<size_t>(In->C);
          Host.backEdgePoll(In->Loc);
          VM_NEXT();
        }
        Host.restorePendingHints(F.HintsBefore);
        Regs[F.RangeReg] = Value();
        Frames.pop_back();
        VM_NEXT_NOFAIL();
      }
      VM_CASE(ForBreak) : {
        if (Frames.empty()) {
          internalFail(In->Loc);
          VM_NEXT();
        }
        ForFrame &F = Frames.back();
        Host.restorePendingHints(F.HintsBefore);
        Regs[F.RangeReg] = Value();
        Frames.pop_back();
        NextIP = static_cast<size_t>(In->A);
        VM_NEXT_NOFAIL();
      }

  Lbl_Stop:;
  } catch (...) {
    // Injected faults and budget exhaustion unwind by exception, exactly
    // as through the walker: no hint restoration, just detach from the
    // host (the interpreter is discarded or re-run from scratch).
    Host.engineEnd();
    throw;
  }

  // The walker's execFor restores the pending-hint watermark on every
  // exit path, including failure and return; collapsing the nested
  // restores to the outermost frame's watermark is equivalent.
  if (!Frames.empty())
    Host.restorePendingHints(Frames.front().HintsBefore);

  Host.engineEnd();
  return !Host.failed();
}

//===- Interpreter.h - MATLAB interpreter -----------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tree-walking interpreter for the MATLAB subset. This is the simulated
/// MATLAB environment the benchmarks run on: loop iterations pay per-node
/// dispatch cost, while array built-ins execute as tight kernels
/// (MatrixOps) — the performance profile the paper's measurements rely on.
///
/// run() begins with a pre-pass over the program that interns every
/// variable name into a dense workspace slot and resolves builtin names to
/// table ids, keyed by AST node. The hot evaluation loop then works on
/// integer slots and ids; only nodes the pre-pass never saw (an expression
/// handed to eval() directly) fall back to name-based resolution.
///
/// Scalar statements in loops skip Value boxing. The same pre-pass
/// compiles every loop-body expression of the scalar subset (numbers,
/// 'end' in a subscript, 1x1 variables, + - * / .* ./, unary minus,
/// transpose, and element reads V(s) and V(r,c)) into a flat postfix plan
/// over a small stack of doubles, with slots, constants, 'end' bindings
/// and operator codes resolved at compile time; a statement outside any
/// loop runs once per run(), so it gets none. A plan has no side effects
/// and allocates nothing: it returns false when a runtime guard fails
/// (an undefined, non-1x1 or logical variable; a non-integral or
/// out-of-range subscript), and the general path then evaluates the
/// whole expression from scratch. That keeps every error text and
/// location, growth rule, mask semantics, governor charge and fault site
/// on the one general path. Assignments use the plan of their right-hand
/// side and of their target's subscripts, element reads the plan of
/// their IndexExpr; a for-loop binds its variable in place
/// (Workspace::defineScalar), in both engines. Plans live in one
/// instruction buffer owned by the interpreter and are dropped with the
/// node cache when run() returns: the AST is never written, so one parsed
/// program may run on many threads at once.
///
/// Runtime errors do not throw; they put the interpreter into a failed
/// state carrying a message and location (checked via failed()).
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_INTERP_INTERPRETER_H
#define MVEC_INTERP_INTERPRETER_H

#include "frontend/AST.h"
#include "interp/Builtins.h"
#include "interp/MatrixOps.h"
#include "interp/ScalarOps.h"
#include "interp/Value.h"
#include "interp/Workspace.h"
#include "resilience/FaultInjection.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mvec {

class Interpreter {
public:
  Interpreter() = default;

  /// Executes a whole program. Returns false when a runtime error occurred
  /// (see errorMessage()). The workspace persists across run() calls.
  bool run(const Program &P);

  /// Evaluates a single expression in the current workspace. Guards the
  /// recursion depth: evaluating a programmatically built tree deeper than
  /// the evaluator limit is a runtime error, not a stack overflow. The
  /// result may be a strided view (see Value::materialize).
  Value eval(const Expr &E);

  // Workspace access.
  void setVariable(const std::string &Name, Value V) {
    Env.set(Name, std::move(V));
  }
  /// Null when undefined.
  const Value *getVariable(const std::string &Name) const {
    return Env.get(Name);
  }
  /// Name-keyed snapshot of the defined variables (values are COW copies,
  /// so this is cheap and isolated from later mutations).
  std::map<std::string, Value> workspace() const { return Env.snapshot(); }
  void clearWorkspace() { Env.clear(); }

  // Error state.
  bool failed() const { return Failed; }
  const std::string &errorMessage() const { return ErrorMsg; }
  SourceLoc errorLoc() const { return ErrorLoc; }
  void clearError() {
    Failed = false;
    ErrorMsg.clear();
    Interrupt = InterruptKind::None;
  }

  /// Text printed by disp/fprintf.
  const std::string &output() const { return Output; }
  void appendOutput(const std::string &Text) { Output += Text; }
  void clearOutput() { Output.clear(); }

  /// Aborts execution after this many statement executions (0 = unlimited).
  /// Useful to bound property tests against accidental infinite loops.
  void setStepLimit(uint64_t Limit) { StepLimit = Limit; }
  uint64_t stepsExecuted() const { return Steps; }

  /// Why execution was aborted early, if it was. StepLimit/Deadline/
  /// Cancelled interrupts also put the interpreter into the failed state,
  /// so failed() callers keep working unchanged; interruptKind() lets a
  /// driver (e.g. the vectorization service) distinguish "the program is
  /// wrong" from "the program was cut off".
  enum class InterruptKind { None, StepLimit, Deadline, Cancelled };
  InterruptKind interruptKind() const { return Interrupt; }

  /// Aborts execution once the steady clock passes \p Deadline. The check
  /// runs every few statements and inside pause(), so a runaway loop stops
  /// within microseconds of the deadline, not at the next quiescent point.
  void setDeadline(std::chrono::steady_clock::time_point Deadline) {
    DeadlineTp = Deadline;
  }
  /// Aborts execution soon after \p Flag becomes true. The flag is owned
  /// by the caller (typically shared by every job of a cancelled batch)
  /// and must outlive the run.
  void setCancelFlag(const std::atomic<bool> *Flag) { CancelFlag = Flag; }

  /// Polls the step limit, deadline, and cancel flag; on expiry enters the
  /// failed state (recording \p Loc) and returns true. Builtins with
  /// internal waits (pause) call this between slices.
  bool checkInterrupt(SourceLoc Loc);

  /// Deterministic PRNG used by the rand builtin.
  void seedRandom(uint64_t Seed) { RandState = Seed ? Seed : 1; }
  double nextRandom();

  /// Reports a runtime error (first error wins).
  void fail(SourceLoc Loc, std::string Message);

  /// Declares that a variable's row/column extent must never exceed one
  /// (pair = {rows capped, cols capped}). Checked after every assignment
  /// to that name; a violation is a runtime error. Differential
  /// validation uses this to reject inputs whose %! annotations declare
  /// an axis as 1 while the program materializes something wider — the
  /// input lied to the shape analysis, so divergence is not a
  /// vectorizer defect.
  void setShapeCaps(std::unordered_map<std::string, std::pair<bool, bool>> Caps) {
    ShapeCaps = std::move(Caps);
    SlotCaps.clear();
  }

  //===--------------------------------------------------------------------===//
  // Execution-engine support
  //
  // The bytecode VM (src/vm) executes *through* a host Interpreter: it
  // shares the workspace, the kernel context, the RNG, the output buffer,
  // the error/interrupt state, and the per-statement accounting below, so
  // both engines observe byte-identical semantics by construction. The
  // tree-walker itself is rewired through the same primitives.
  //===--------------------------------------------------------------------===//

  Workspace &env() { return Env; }
  OpWorkspace &pool() { return Pool; }

  /// eval() recursion ceiling; the parser caps parse trees far below this.
  /// The VM compiler fails at the same nesting with the same message.
  static constexpr unsigned MaxEvalDepth = 2000;
  static constexpr const char *EvalDepthMessage =
      "expression nesting exceeds the evaluator depth limit";

  /// Samples the thread's fault-injection context and arms the in-kernel
  /// poll hook, exactly as run() does for the tree-walker. An engine must
  /// pair this with engineEnd(), including on unwind.
  void engineBegin();
  void engineEnd();

  /// Per-statement accounting: counts the step, enforces the step limit at
  /// the exact overflowing statement, and amortizes the fault/cancel/
  /// deadline polls over 16 statements. Returns true when execution must
  /// stop (the interpreter is then in the failed state).
  bool stmtStep(SourceLoc Loc) {
    ++Steps;
    if (StepLimit != 0 && Steps > StepLimit) {
      Interrupt = InterruptKind::StepLimit;
      fail(Loc, "execution step limit exceeded");
      return true;
    }
    if ((Steps & 0xF) == 0)
      return stmtPoll(Loc);
    return false;
  }

  /// Amortized cancel/deadline poll charged on loop back-edges by both
  /// engines. A bodiless loop never reaches stmtStep, so without this an
  /// armed deadline cannot interrupt `while 1; end`; polling instead of
  /// stepping leaves the step count the engines keep in lockstep
  /// untouched. Returns true when execution must stop.
  bool backEdgePoll(SourceLoc Loc) {
    if ((++BackEdges & 0xF) == 0)
      return stmtPoll(Loc);
    return false;
  }

  /// Deferred accumulator reserve hints (see execFor). Engines record the
  /// watermark at loop entry and restore it on loop exit and on unwind.
  size_t pendingHintCount() const { return PendingHints.size(); }
  void restorePendingHints(size_t Watermark) { PendingHints.resize(Watermark); }
  /// Records a reserve hint for \p Slot: applied immediately when the slot
  /// is defined, deferred to its creating assignment otherwise.
  void noteHintForSlot(unsigned Slot, size_t NumIters) {
    if (Env.isDefined(Slot))
      Env.slotValue(Slot).reserveHint(NumIters);
    else
      PendingHints.emplace_back(Slot, NumIters);
  }

  /// Indexed-assignment target: marks the slot defined (empty value if
  /// new) and applies any pending reserve hint, exactly as execAssign
  /// does before writeIndexed.
  Value &defineSlotRef(unsigned Slot) {
    Value &Target = Env.defineRef(Slot);
    if (!PendingHints.empty())
      applyPendingHint(Slot, Target);
    return Target;
  }

  /// Enforces a registered shape cap after an assignment to \p Slot.
  /// Inline guard: assignments are the hottest statement kind and almost
  /// no run registers caps, so the empty case must not cost a call.
  void checkShapeCap(unsigned Slot, SourceLoc Loc) {
    if (ShapeCaps.empty() || Failed)
      return;
    checkShapeCapSlow(Slot, Loc);
  }
  /// True when any shape caps are registered (a capless assignment can
  /// never enter the failed state).
  bool hasShapeCaps() const { return !ShapeCaps.empty(); }

  // AST-free evaluation primitives shared by both engines. Each reports
  // errors via fail() at the caller-supplied location with the exact
  // tree-walker messages; on failure the returned value is empty.
  Value applyBinary(BinaryOp Op, const Value &LHS, const Value &RHS,
                    SourceLoc Loc);
  /// (A .* B) +/- C with the fused-kernel gate and the exact two-step
  /// fallback of the tree-walker. \p DotMul says the product was written
  /// '.*' (a '*' product is elementwise only when an operand is scalar).
  Value applyFusedMulAdd(const Value &A, const Value &B, const Value &C,
                         bool Subtract, bool ProductOnLeft, bool DotMul,
                         SourceLoc ELoc, SourceLoc ProdLoc);
  /// Range construction with the scalar-endpoint check.
  Value makeRangeChecked(const Value &Start, const Value &Step,
                         const Value &Stop, SourceLoc Loc);
  /// The 1..Extent row vector a bare ':' subscript denotes.
  static Value makeColonVector(size_t Extent);

  // Indexing cores: subscript values are already evaluated ('end' resolved,
  // ':' materialized); these implement shape rules, growth, and writes.
  // A read by ascending arithmetic progressions is an O(1) view of the base
  // (which may itself be a view); a write covering the whole target in
  // order adopts an exclusively owned right-hand side payload.
  Value indexReadAll(const Value &Base);
  Value indexRead1(const Value &Base, Value &&Idx, SourceLoc Loc);
  Value indexRead2(const Value &Base, Value &&RowIdx, Value &&ColIdx,
                   SourceLoc Loc);
  void indexWriteAll(Value &Target, Value &&RHS, SourceLoc Loc);
  void indexWrite1(Value &Target, Value &&Idx, Value &&RHS, SourceLoc Loc);
  void indexWrite2(Value &Target, Value &&RowIdx, Value &&ColIdx, Value &&RHS,
                   SourceLoc Loc);

  /// The largest payload an indexed assignment may grow an array to:
  /// far beyond any host's memory, and small enough that every dimension
  /// below it converts to size_t exactly.
  static constexpr double MaxArrayBytes = 1099511627776.0; // 2^40
  /// False, failing at \p Loc, when a \p Rows x \p Cols array would
  /// exceed MaxArrayBytes; a zero extent still bounds the other one.
  bool checkArraySize(double Rows, double Cols, SourceLoc Loc);
  /// Grows \p Target to at least \p Rows x \p Cols (validated subscript
  /// maxima, still doubles so no cast precedes the check); fails at \p Loc
  /// when the payload would exceed MaxArrayBytes.
  bool growShape(Value &Target, double Rows, double Cols, SourceLoc Loc);
  /// Grows \p Target so linear subscript \p Needed is in range: empties
  /// and rows widen (an empty becomes a column for a multi-element
  /// \p ColumnIdx subscript), columns lengthen, and a matrix fails.
  bool growLinear(Value &Target, double Needed, bool ColumnIdx, SourceLoc Loc);

private:
  enum class Flow { Normal, Break, Continue, Return };

  static constexpr uint32_t NoPlan = ~0u;

  /// What the pre-pass learned about an AST node: the workspace slot of the
  /// identifier (or index base) it names, the builtin it resolves to when
  /// the slot is undefined at use time, and whether the name is 'pi'. An
  /// IndexExpr's Plan reads its element. For ForStmt nodes, Slot is the
  /// loop variable's slot; for AssignStmt nodes, Slot is the target's
  /// (-1 when the target is invalid), Plan computes the right-hand side
  /// and LhsPlan the target element's offset.
  struct NodeInfo {
    int Slot = -1;
    BuiltinId Builtin = InvalidBuiltinId;
    bool IsPi = false;
    uint32_t Plan = NoPlan;
    uint32_t LhsPlan = NoPlan;
  };

  /// Open-addressing hash map from AST node pointer to NodeInfo. The find
  /// on this map runs once per identifier evaluation — a flat power-of-two
  /// table with linear probing beats std::unordered_map's bucket chasing
  /// on that path.
  class NodeInfoMap {
  public:
    const NodeInfo *find(const void *Key) const {
      if (Table.empty())
        return nullptr;
      size_t Mask = Table.size() - 1;
      for (size_t I = hashPtr(Key) & Mask;; I = (I + 1) & Mask) {
        const Entry &E = Table[I];
        if (E.Key == Key)
          return &E.Info;
        if (!E.Key)
          return nullptr;
      }
    }

    NodeInfo *find(const void *Key) {
      return const_cast<NodeInfo *>(std::as_const(*this).find(Key));
    }

    /// First insertion for a key wins (re-inserts are ignored).
    void insert(const void *Key, const NodeInfo &Info) {
      if (Table.empty() || Count * 4 >= Table.size() * 3)
        grow();
      Entry *E = findSlot(Key);
      if (!E->Key) {
        E->Key = Key;
        E->Info = Info;
        ++Count;
      }
    }

    /// Empties the map but keeps the table storage for the next program.
    void clear() {
      std::fill(Table.begin(), Table.end(), Entry());
      Count = 0;
    }

  private:
    struct Entry {
      const void *Key = nullptr;
      NodeInfo Info;
    };

    static size_t hashPtr(const void *P) {
      auto X = reinterpret_cast<uintptr_t>(P);
      X ^= X >> 33;
      X *= 0xff51afd7ed558ccdULL;
      X ^= X >> 33;
      return static_cast<size_t>(X);
    }

    Entry *findSlot(const void *Key) {
      size_t Mask = Table.size() - 1;
      size_t I = hashPtr(Key) & Mask;
      while (Table[I].Key && Table[I].Key != Key)
        I = (I + 1) & Mask;
      return &Table[I];
    }

    void grow() {
      std::vector<Entry> Old = std::move(Table);
      Table.assign(Old.empty() ? 64 : Old.size() * 2, Entry());
      Count = 0;
      for (const Entry &E : Old)
        if (E.Key) {
          *findSlot(E.Key) = E;
          ++Count;
        }
    }

    std::vector<Entry> Table;
    size_t Count = 0;
  };

  /// Caches \p Name's resolution for \p Node; returns its slot.
  unsigned noteName(const void *Node, const std::string &Name);
  /// Interns every name in \p P and caches the resolution per AST node,
  /// compiling the scalar plans of loop bodies along the way (see the
  /// file comment). The cache is rebuilt per run() and dropped afterwards,
  /// so pointers of freed programs can never alias a later program's
  /// nodes.
  void prepare(const Program &P);
  /// prepare() for \p Body, \p InLoop when an enclosing loop repeats it.
  void prepareBody(const std::vector<StmtPtr> &Body, bool InLoop);
  void prepareAssign(const AssignStmt &S, bool InLoop);
  /// Caches the resolution of every name under \p E, compiling nothing.
  void noteNames(const Expr &E);

  /// Empties the node cache and the plans, keeping their storage.
  void clearPrepared();

  const NodeInfo *cachedInfo(const void *Node) const {
    return NodeCache.find(Node);
  }

  /// eval()'s dispatch body; all recursion re-enters through eval() so the
  /// depth guard sees every level.
  Value evalImpl(const Expr &E);

  Flow execBody(const std::vector<StmtPtr> &Body);
  Flow execStmt(const Stmt &S);
  Flow execFor(const ForStmt &S);
  Flow execWhile(const WhileStmt &S);
  Flow execIf(const IfStmt &S);
  void execAssign(const AssignStmt &S);

  Value evalBinary(const BinaryExpr &E);
  /// Evaluates \p E for use as a read-only kernel operand. A defined plain
  /// identifier resolves to a reference into the workspace (no COW copy,
  /// no refcount traffic); anything else evaluates into \p Storage. The
  /// reference is valid until the next assignment — expression evaluation
  /// never assigns, so operands stay pinned for the kernel call.
  const Value &evalOperand(const Expr &E, Value &Storage);
  /// Single-pass (A .* B) +/- C when shapes conform; exact two-step
  /// fallback (same kernels, same errors) otherwise. \p Prod is the
  /// product child of \p E; \p ProductOnLeft says which operand it is.
  Value evalFusedMulAdd(const BinaryExpr &E, const BinaryExpr &Prod,
                        bool ProductOnLeft);
  /// Builtin call sum(A .* B, d), \p Prod its first argument: one reduce
  /// pass with no product temporary. Operand and argument order, errors,
  /// 'end' scoping, eval() frames and governor charges are the two-step
  /// call's (evalIndexOrCall then callBuiltin).
  Value evalSumOfProducts(const IndexExpr &E, const BinaryExpr &Prod);
  Value evalIndexOrCall(const IndexExpr &E);

  //===--------------------------------------------------------------------===//
  // Scalar plans (see the file comment)
  //===--------------------------------------------------------------------===//

  enum class PlanOpcode : uint8_t {
    Const,    ///< push K
    Var,      ///< push variable A (defined, 1x1, not logical)
    Neg,      ///< negate the top
    Add,      ///< x + y of the top two (x pushed first)
    Sub,      ///< x - y
    Mul,      ///< x * y
    Div,      ///< x / y
    Base,     ///< push variable A (defined, not logical) as the base
    Target,   ///< push the assignment target as the base
    End,      ///< push the base's numel (A = 0), rows (1) or cols (2)
    Elem1,    ///< pop a subscript and the base; push base(s)
    Elem2,    ///< pop two subscripts and the base; push base(r, c)
    Offset1,  ///< as Elem1, pushing the 0-based offset instead
    Offset2,  ///< as Elem2, pushing the 0-based offset instead
    ElemVar1, ///< push variable A's element at variable B (Base Var Elem1)
    ElemVar2, ///< push A(B, C) for variables B, C (Base Var Var Elem2)
    OffsetVar1, ///< Target Var Offset1 for variable B
    OffsetVar2, ///< Target Var Var Offset2 for variables B, C
  };

  /// One plan instruction: an opcode, slot operands and a constant.
  struct PlanOp {
    PlanOpcode Code;
    uint32_t A = 0;
    union {
      double K;
      struct {
        uint32_t B, C;
      } Slots;
    };
    PlanOp(PlanOpcode Code = PlanOpcode::Const, uint32_t A = 0)
        : Code(Code), A(A), K(0) {}
  };

  /// A compiled expression: its code PlanCode[Begin, End), and the
  /// eval() frames evaluating it charges beyond the caller's EvalDepth
  /// (an element read's frames start below its IndexExpr's own).
  struct ScalarPlan {
    uint32_t Begin, End;
    unsigned Frames;
  };

  /// Operand stack and base stack bounds of a plan; a deeper expression
  /// compiles to none.
  static constexpr unsigned PlanStackMax = 32;
  static constexpr unsigned PlanBaseMax = 8;

  /// What compiling an expression needs at run time: its eval() frames
  /// (tree height) and its operand and base stack depths.
  struct PlanShape {
    unsigned Frames = 0, Stack = 0, Bases = 0;
  };

  /// Notes every name under \p E in the node cache and registers the
  /// element-read plan of every IndexExpr under it, then leaves \p E's
  /// own code at the end of PlanCode and returns true when \p E is in the
  /// subset. \p EndDim is the End operand 'end' denotes here (-1 outside
  /// a subscript).
  bool compilePlan(const Expr &E, int EndDim, PlanShape &Shape);
  /// compilePlan's body; compilePlan drops the code of a failure.
  bool compilePlanNode(const Expr &E, int EndDim, PlanShape &Shape);
  /// Compiles an element reference's subscripts after its base (the last
  /// instruction emitted), then Elem code, or Offset code for a Target.
  bool compileSubscripts(const IndexExpr &E, PlanShape &Shape);
  /// Visits \p E for its names and inner plans only, dropping its code.
  void notePlanNames(const Expr &E);
  /// Records PlanCode[\p Begin, end) as a plan charging \p Frames frames
  /// and keeps its code; returns the plan id.
  uint32_t commitPlan(size_t Begin, unsigned Frames);
  /// Drops the code emitted since \p Begin, except committed plans.
  void dropPlanCode(size_t Begin) {
    PlanCode.resize(std::max(Begin, PlanCommitted));
  }

  /// Runs plan \p Id into \p Out, with \p Target the base of Target
  /// instructions; an offset (below 2^37 elements) is exact as a double.
  /// False, having changed nothing, when a guard fails or the plan's
  /// frames would pass MaxEvalDepth (the general path then reports the
  /// depth error). Results are bit-identical to the general
  /// path's: the ScalarOps.h helpers that applyBinary's and
  /// applyFusedMulAdd's scalar cases call, in the same operand order.
  bool runPlan(uint32_t Id, const Value *Target, double &Out) const;

  Value evalMatrixLiteral(const MatrixExpr &E);

  /// Evaluates subscript argument \p Arg for a dimension of extent
  /// \p Extent ('end' resolves to Extent; ':' yields 1..Extent).
  Value evalSubscript(const Expr &Arg, size_t Extent);

  /// The value 'end' denotes where evaluation stands: the extent of the
  /// innermost subscript, or negative outside any. It reaches a range,
  /// operator or index base inside the subscript; builtin arguments and
  /// matrix-literal elements evaluate without it, as the VM compiler's
  /// extent register does.
  double EndExtent = -1;
  /// Sets EndExtent for one scope and restores it on every exit, unwinds
  /// included.
  struct EndScope {
    EndScope(double &Slot, double Extent) : Slot(Slot), Saved(Slot) {
      Slot = Extent;
    }
    ~EndScope() { Slot = Saved; }
    double &Slot;
    double Saved;
  };

  /// Sets \p Max to the largest element of write subscript \p Idx (0 when
  /// empty) after checking every element is a positive integer; fails at
  /// \p Loc otherwise. Logical masks pass unchecked.
  bool maxSubscript(const Value &Idx, double &Max, SourceLoc Loc);
  /// Converts \p Idx to validated 0-based indices against \p Extent.
  bool toIndices(const Value &Idx, size_t Extent, std::vector<size_t> &Out,
                 SourceLoc Loc);

  /// Converts one subscript value to a validated 0-based index (\p Limit
  /// is indexLimit(\p Extent)), failing with toIndices' exact messages.
  /// The common in-range integer takes integralIndex's two compares and a
  /// cast; everything else takes the full check.
  bool toIndex(double D, size_t Extent, double Limit, size_t &Index,
               SourceLoc Loc) {
    return integralIndex(D, Limit, Index) ||
           toIndexSlow(D, Extent, Index, Loc);
  }
  bool toIndexSlow(double D, size_t Extent, size_t &Index, SourceLoc Loc);

  Value readIndexed(const Value &Base, const IndexExpr &E);
  void writeIndexed(Value &Target, const IndexExpr &LHS, Value &&RHS);

  /// The amortized slice of stmtStep: fault injection plus the cancel/
  /// deadline poll, run every 16 statements.
  bool stmtPoll(SourceLoc Loc);

  /// The caps-registered tail of checkShapeCap.
  void checkShapeCapSlow(unsigned Slot, SourceLoc Loc);

  /// Records capacity hints for top-level A(i) = ... accumulators of a
  /// loop with \p NumIters iterations; applied when the target variable
  /// is (or becomes) defined.
  void noteAccumulatorHints(const ForStmt &S, size_t NumIters);
  void applyPendingHint(unsigned Slot, Value &Target);

  Workspace Env;
  /// Kernel context (interrupt poll hook) shared by both engines.
  OpWorkspace Pool;
  NodeInfoMap NodeCache;
  /// Every plan's code, reused across runs; PlanCommitted is the end of
  /// the last committed plan.
  std::vector<PlanOp> PlanCode;
  std::vector<ScalarPlan> Plans;
  size_t PlanCommitted = 0;
  std::unordered_map<std::string, std::pair<bool, bool>> ShapeCaps;
  /// Per-slot cap mask (bit0 = rows capped, bit1 = cols capped), extended
  /// lazily from ShapeCaps as slots appear.
  std::vector<int8_t> SlotCaps;
  /// Reusable argument vectors for builtin calls, indexed by nesting
  /// depth (deque: growth never invalidates outstanding references).
  std::deque<std::vector<Value>> ArgPool;
  size_t ArgDepth = 0;
  /// One builtin call's argument vector: ArgPool's (cleared) vector at the
  /// current call nesting depth, whose values live until the next call at
  /// that depth.
  struct ArgFrame {
    explicit ArgFrame(Interpreter &I) : Depth(I.ArgDepth) {
      if (Depth == I.ArgPool.size())
        I.ArgPool.emplace_back();
      Args = &I.ArgPool[Depth++];
      Args->clear();
    }
    ~ArgFrame() { --Depth; }
    size_t &Depth;
    std::vector<Value> *Args;
  };
  std::vector<Value> ArgsNone; ///< Argument list of a call without any.
  /// Scratch index buffers for readIndexed/writeIndexed. Subscript
  /// evaluation (which may recurse into indexing) always completes before
  /// these are filled, so reuse is safe.
  std::vector<size_t> IdxScratchA, IdxScratchB;
  /// (slot, numel) reserve hints noted by enclosing for-loops.
  std::vector<std::pair<unsigned, size_t>> PendingHints;

  std::string Output;
  bool Failed = false;
  std::string ErrorMsg;
  SourceLoc ErrorLoc;
  uint64_t StepLimit = 0;
  uint64_t Steps = 0;
  uint64_t BackEdges = 0;
  std::optional<std::chrono::steady_clock::time_point> DeadlineTp;
  const std::atomic<bool> *CancelFlag = nullptr;
  InterruptKind Interrupt = InterruptKind::None;
  uint64_t RandState = 0x9E3779B97F4A7C15ull;

  /// Active eval() frames, charged by plans too.
  unsigned EvalDepth = 0;
  /// The thread's fault-injection context, sampled once per run() so the
  /// per-statement gate is a cached member null check, not a TLS load.
  FaultContext *FaultCtx = nullptr;
};

/// Compares two workspaces for semantic equality within \p Tol. Returns an
/// empty string when equal, else a description of the first difference.
/// Used by the differential tests: original vs. vectorized program state.
std::string compareWorkspaces(const Interpreter &A, const Interpreter &B,
                              double Tol = 1e-9);

} // namespace mvec

#endif // MVEC_INTERP_INTERPRETER_H

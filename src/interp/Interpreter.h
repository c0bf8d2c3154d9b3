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
/// Scalar statements skip Value boxing: scalarOf() computes a double
/// straight from the AST and the workspace for the subset a scalar loop
/// body is made of (numbers, 'end', non-logical 1x1 variables, + - * / .*
/// ./, unary minus, transpose, and in-range integer element reads of
/// non-logical variables). It is side-effect free: it never fails,
/// allocates, charges the governor or advances the RNG, so when any node
/// is outside the subset it returns false having done nothing observable,
/// and the general path evaluates the whole statement from scratch. That
/// keeps every error text and location, growth rule, mask semantics,
/// governor charge and fault site on the one general path. Assignments
/// and element reads use it; a for-loop binds its variable in place
/// (Workspace::defineScalar), in both engines.
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

  /// What the pre-pass learned about an AST node: the workspace slot of the
  /// identifier (or index base) it names, the builtin it resolves to when
  /// the slot is undefined at use time, and whether the name is 'pi'. For
  /// ForStmt nodes, Slot is the loop variable's slot.
  struct NodeInfo {
    int Slot = -1;
    BuiltinId Builtin = InvalidBuiltinId;
    bool IsPi = false;
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

  /// Interns every name in \p P and caches the resolution per AST node.
  /// The cache is rebuilt per run() and dropped afterwards, so pointers of
  /// freed programs can never alias a later program's nodes.
  void prepare(const Program &P);

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

  /// Side-effect-free scalar evaluation (see the file comment): sets
  /// \p Out to the value of \p E and returns true when every node is in
  /// the scalar subset, with \p End the value 'end' denotes (negative
  /// outside a subscript); returns false, having changed nothing, when
  /// any node is not. Results are bit-identical to the general path's:
  /// the ScalarOps.h helpers that applyBinary's and applyFusedMulAdd's
  /// scalar cases call, in the same operand order. Shares eval()'s depth
  /// budget and bails at its limit, so the general path reports the depth
  /// error.
  bool scalarOf(const Expr &E, double End, double &Out);
  /// The 0-based linear offset of element \p E of \p Base when \p E has
  /// one or two subscripts, each a scalarOf() value that is an in-range
  /// integer (integralIndex, as toIndex's fast path checks it), else
  /// false.
  bool scalarOffset(const IndexExpr &E, const Value &Base, size_t &Offset);
  /// scalarOffset's element of variable \p Base, read into \p Out, when
  /// the base is not logical (the scalar read of evalIndexOrCall and
  /// scalarOf).
  bool scalarElement(const IndexExpr &E, const Value &Base, double &Out);
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

  /// Active eval() frames, shared with scalarOf().
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

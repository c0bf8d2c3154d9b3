//===- Vectorizer.cpp - Top-level vectorization driver ----------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vectorizer/Vectorizer.h"

#include "deps/DepAnalysis.h"
#include "deps/LoopNest.h"
#include "frontend/ASTUtils.h"
#include "vectorizer/Codegen.h"

#include <cmath>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace mvec;

namespace {

/// Collects every name assigned anywhere under \p Body (assignment
/// targets, including indexed-assignment bases, and loop index
/// variables) into \p Names.
void collectAssignedNames(const std::vector<StmtPtr> &Body,
                          std::set<Symbol> &Names) {
  visitStmts(Body, [&](const Stmt &S) {
    if (const auto *A = dyn_cast<AssignStmt>(&S)) {
      if (const auto *Id = dyn_cast<IdentExpr>(A->lhs()))
        Names.insert(Id->sym());
      else if (const auto *Ix = dyn_cast<IndexExpr>(A->lhs()))
        if (const auto *Base = dyn_cast<IdentExpr>(Ix->base()))
          Names.insert(Base->sym());
    } else if (const auto *F = dyn_cast<ForStmt>(&S)) {
      Names.insert(F->indexSym());
    }
  });
}

/// Appends the chain of statements containing \p Target (outermost
/// first) to \p Path. Returns true when \p Target was found under
/// \p Body. \p Target itself is not part of the chain.
bool collectAncestors(const std::vector<StmtPtr> &Body, const Stmt *Target,
                      std::vector<const Stmt *> &Path) {
  for (const StmtPtr &SP : Body) {
    const Stmt *S = SP.get();
    if (S == Target)
      return true;
    bool Found = false;
    if (const auto *For = dyn_cast<ForStmt>(S))
      Found = collectAncestors(For->body(), Target, Path);
    else if (const auto *While = dyn_cast<WhileStmt>(S))
      Found = collectAncestors(While->body(), Target, Path);
    else if (const auto *If = dyn_cast<IfStmt>(S)) {
      for (const IfStmt::Branch &B : If->branches())
        if ((Found = collectAncestors(B.Body, Target, Path)))
          break;
    }
    if (Found) {
      Path.push_back(S);
      return true;
    }
  }
  return false;
}

/// Per-run side tables for the index-liveness check. Statement addresses
/// are stable for a whole vectorizeProgram run (the pass only splices
/// statements, never rewrites one in place, and the program arena never
/// recycles memory), so subtree facts can be memoized by Stmt identity.
struct LivenessScanner {
  /// Every identifier mentioned anywhere in the statement subtree
  /// (lazily computed, cached for the rest of the run).
  const std::unordered_set<Symbol> &mentionSet(const Stmt &S) {
    auto It = Mentions.find(&S);
    if (It != Mentions.end())
      return It->second;
    std::unordered_set<Symbol> Names;
    auto CollectFrom = [&Names](const Expr *E) {
      if (E)
        visitExpr(*E, [&Names](const Expr &Node) {
          if (const auto *Ident = dyn_cast<IdentExpr>(&Node))
            Names.insert(Ident->sym());
        });
    };
    auto Visit = [&](const Stmt &Sub) {
      if (const auto *A = dyn_cast<AssignStmt>(&Sub)) {
        CollectFrom(A->lhs());
        CollectFrom(A->rhs());
      } else if (const auto *E = dyn_cast<ExprStmt>(&Sub)) {
        CollectFrom(E->expr());
      } else if (const auto *F = dyn_cast<ForStmt>(&Sub)) {
        Names.insert(F->indexSym());
        CollectFrom(F->range());
      } else if (const auto *W = dyn_cast<WhileStmt>(&Sub)) {
        CollectFrom(W->cond());
      } else if (const auto *I = dyn_cast<IfStmt>(&Sub)) {
        for (const IfStmt::Branch &B : I->branches())
          CollectFrom(B.Cond.get());
      }
    };
    Visit(S);
    if (const auto *F = dyn_cast<ForStmt>(&S))
      visitStmts(F->body(), Visit);
    else if (const auto *W = dyn_cast<WhileStmt>(&S))
      visitStmts(W->body(), Visit);
    else if (const auto *I = dyn_cast<IfStmt>(&S))
      for (const IfStmt::Branch &B : I->branches())
        visitStmts(B.Body, Visit);
    return Mentions.emplace(&S, std::move(Names)).first->second;
  }

  /// True when some statement outside loop \p L's subtree may read
  /// \p V — the value \p L's index variable holds after the loop
  /// finishes. A sibling for-loop that itself iterates over \p V rebinds
  /// the name, so reads in its body are not charged to \p L (its range
  /// expression is evaluated before the rebinding and still counts).
  /// \p AncestorsOfL holds the statements containing L, so "does this
  /// sibling loop contain L" is a set lookup instead of a subtree walk.
  bool readsIndexOutside(const std::vector<StmtPtr> &Body, Symbol V,
                         const ForStmt *L,
                         const std::unordered_set<const Stmt *> &AncestorsOfL) {
    for (const StmtPtr &SP : Body) {
      const Stmt *S = SP.get();
      if (S == static_cast<const Stmt *>(L))
        continue; // reads under L observe the loop's own binding
      if (!mentionSet(*S).count(V))
        continue; // V does not occur anywhere under S
      if (stmtReads(*S, V, L, AncestorsOfL))
        return true;
    }
    return false;
  }

  /// readsIndexOutside against the top-level body, answered through a
  /// per-symbol partition of the top-level statements instead of a walk.
  /// The scan is an existence check — no statement's verdict depends on
  /// another's — and a statement's verdict for \p V cannot change while
  /// its subtree is untouched, so verdicts are computed once and sorted
  /// into Readers/Benign; only \p TopStmt (the top-level statement whose
  /// subtree contains \p L and is being rewritten right now) must be
  /// scanned live on every query.
  bool readsIndexOutsideTop(Symbol V, const ForStmt *L, const Stmt *TopStmt,
                            const std::unordered_set<const Stmt *> &AncestorsOfL) {
    if (TopStmt && mentionSet(*TopStmt).count(V) &&
        stmtReads(*TopStmt, V, L, AncestorsOfL))
      return true;
    auto It = Top.find(V);
    if (It == Top.end())
      return false;
    PerName &P = It->second;
    auto Excluded = [&](const Stmt *S) {
      return S == static_cast<const Stmt *>(L) || S == TopStmt;
    };
    for (const Stmt *S : P.Readers)
      if (!Excluded(S))
        return true;
    if (P.Unknown.empty())
      return false;
    bool Any = false;
    std::vector<const Stmt *> Pending(P.Unknown.begin(), P.Unknown.end());
    for (const Stmt *S : Pending) {
      if (Excluded(S))
        continue; // still in flux (or the nest itself); resolve later
      P.Unknown.erase(S);
      if (stmtReads(*S, V, L, AncestorsOfL)) {
        P.Readers.insert(S);
        Any = true;
      } else {
        P.Benign.insert(S);
      }
    }
    return Any;
  }

  /// Registers every top-level statement with the per-symbol partition.
  void indexTop(const std::vector<StmtPtr> &Body) {
    for (const StmtPtr &SP : Body)
      onTopInsert(*SP);
  }

  /// A top-level statement is about to be erased (its nest was rewritten).
  void onTopRemove(const Stmt &S) {
    for (Symbol Name : mentionSet(S)) {
      auto It = Top.find(Name);
      if (It == Top.end())
        continue;
      It->second.Readers.erase(&S);
      It->second.Benign.erase(&S);
      It->second.Unknown.erase(&S);
    }
  }

  /// A new top-level statement was spliced in; its verdicts are pending.
  void onTopInsert(const Stmt &S) {
    for (Symbol Name : mentionSet(S))
      Top[Name].Unknown.insert(&S);
  }

  /// The subtree of top-level statement \p S changed (an inner nest was
  /// rewritten): every cached verdict about it is void. Must run after
  /// the splice and after augment(), so mentionSet covers the new names.
  void invalidateTop(const Stmt &S) {
    for (Symbol Name : mentionSet(S)) {
      PerName &P = Top[Name];
      P.Readers.erase(&S);
      P.Benign.erase(&S);
      P.Unknown.insert(&S);
    }
  }

  /// Widens the cached mention sets of every statement in \p Enclosing
  /// with \p Names. Called when a rewrite splices new statements into a
  /// body nested under them: the rewrite can introduce identifiers
  /// (sum, repmat, ...) the enclosing subtrees never mentioned before,
  /// and a stale set would let the prune skip a genuine read. Supersets
  /// are always safe — the prune only relies on absence.
  void augment(const std::vector<const Stmt *> &Enclosing,
               const std::unordered_set<Symbol> &Names) {
    for (const Stmt *S : Enclosing) {
      auto It = Mentions.find(S);
      if (It != Mentions.end())
        It->second.insert(Names.begin(), Names.end());
    }
  }

private:
  /// Whether \p S (known to mention \p V somewhere in its subtree) reads
  /// the value \p V holds after loop \p L.
  bool stmtReads(const Stmt &S, Symbol V, const ForStmt *L,
                 const std::unordered_set<const Stmt *> &AncestorsOfL) {
    switch (S.kind()) {
    case Stmt::Kind::Assign: {
      const auto &A = cast<AssignStmt>(S);
      if (mentionsIdentifier(*A.rhs(), V))
        return true;
      // LHS subscripts are reads; a plain identifier LHS is a pure
      // write.
      return !isa<IdentExpr>(A.lhs()) && mentionsIdentifier(*A.lhs(), V);
    }
    case Stmt::Kind::Expr:
      return mentionsIdentifier(*cast<ExprStmt>(S).expr(), V);
    case Stmt::Kind::For: {
      const auto &F = cast<ForStmt>(S);
      if (mentionsIdentifier(*F.range(), V))
        return true;
      if (F.indexSym() == V && !AncestorsOfL.count(&F))
        return false;
      return readsIndexOutside(F.body(), V, L, AncestorsOfL);
    }
    case Stmt::Kind::While: {
      const auto &W = cast<WhileStmt>(S);
      return mentionsIdentifier(*W.cond(), V) ||
             readsIndexOutside(W.body(), V, L, AncestorsOfL);
    }
    case Stmt::Kind::If: {
      const auto &I = cast<IfStmt>(S);
      for (const IfStmt::Branch &B : I.branches()) {
        if (B.Cond && mentionsIdentifier(*B.Cond, V))
          return true;
        if (readsIndexOutside(B.Body, V, L, AncestorsOfL))
          return true;
      }
      return false;
    }
    default:
      return false;
    }
  }

  std::unordered_map<const Stmt *, std::unordered_set<Symbol>> Mentions;
  /// Top-level statements mentioning a symbol, partitioned by whether
  /// they read it in the liveness sense (Readers), provably do not
  /// (Benign), or have not been asked yet (Unknown).
  struct PerName {
    std::unordered_set<const Stmt *> Readers;
    std::unordered_set<const Stmt *> Benign;
    std::unordered_set<const Stmt *> Unknown;
  };
  std::unordered_map<Symbol, PerName> Top;
};

/// Row/column extents of \p E when they are statically known: literal-size
/// constructors (rand/zeros/ones/eye, reshape), elementwise builtins and
/// operators over operands with known extents, and scalars bound in
/// \p Constants. Used only to prove loop trip counts positive, so every
/// rule must be exact for programs the interpreter accepts; programs the
/// rules would misjudge (mismatched operand shapes, non-integer
/// constructor extents) error identically in original and transformed
/// form before the proof matters. Names in \p Assigned shadow builtins.
std::optional<std::pair<double, double>>
knownDimsOf(const Expr *E, const std::map<Symbol, double> &Constants,
            const std::map<Symbol, std::pair<double, double>> &Known,
            const std::set<Symbol> &Assigned) {
  if (!E)
    return std::nullopt;
  auto Recurse = [&](const Expr *Sub) {
    return knownDimsOf(Sub, Constants, Known, Assigned);
  };
  if (isa<NumberExpr>(E))
    return std::make_pair(1.0, 1.0);
  if (const auto *Id = dyn_cast<IdentExpr>(E)) {
    auto It = Known.find(Id->sym());
    if (It != Known.end())
      return It->second;
    if (Constants.count(Id->sym()))
      return std::make_pair(1.0, 1.0);
    return std::nullopt;
  }
  if (const auto *Un = dyn_cast<UnaryExpr>(E))
    return Recurse(Un->operand());
  if (const auto *Tr = dyn_cast<TransposeExpr>(E)) {
    auto D = Recurse(Tr->operand());
    if (!D)
      return std::nullopt;
    return std::make_pair(D->second, D->first);
  }
  if (const auto *Bin = dyn_cast<BinaryExpr>(E)) {
    auto A = Recurse(Bin->lhs());
    auto B = Recurse(Bin->rhs());
    if (!A || !B)
      return std::nullopt;
    bool AScalar = A->first == 1 && A->second == 1;
    bool BScalar = B->first == 1 && B->second == 1;
    if (isPointwiseArithOp(Bin->op()) || isElementwiseRelOp(Bin->op())) {
      if (AScalar)
        return B;
      if (BScalar || *A == *B)
        return A;
      return std::nullopt;
    }
    switch (Bin->op()) {
    case BinaryOp::Mul:
      if (AScalar)
        return B;
      if (BScalar)
        return A;
      if (A->second == B->first)
        return std::make_pair(A->first, B->second);
      return std::nullopt;
    case BinaryOp::Div:
    case BinaryOp::Pow:
      // Only the scalar-divisor/exponent cases are elementwise-like;
      // matrix divide/power shapes are not modeled.
      if (BScalar)
        return A;
      return std::nullopt;
    default:
      return std::nullopt;
    }
  }
  if (const auto *Ix = dyn_cast<IndexExpr>(E)) {
    Symbol FnSym = Ix->baseSym();
    if (FnSym.empty() || Assigned.count(FnSym))
      return std::nullopt;
    const std::string &Fn = FnSym.str();
    auto ConstArg = [&](unsigned I) -> std::optional<double> {
      double V;
      if (I < Ix->numArgs() && evaluateConstantWith(*Ix->arg(I), Constants, V) &&
          std::isfinite(V) && V >= 0 && V == std::floor(V))
        return V;
      return std::nullopt;
    };
    if (Fn == "rand" || Fn == "zeros" || Fn == "ones" || Fn == "eye") {
      if (Ix->numArgs() == 0)
        return std::make_pair(1.0, 1.0);
      if (Ix->numArgs() == 1) {
        auto N = ConstArg(0);
        if (N)
          return std::make_pair(*N, *N);
        return std::nullopt;
      }
      if (Ix->numArgs() == 2) {
        auto R = ConstArg(0);
        auto C = ConstArg(1);
        if (R && C)
          return std::make_pair(*R, *C);
      }
      return std::nullopt;
    }
    if (Fn == "reshape" && Ix->numArgs() == 3) {
      auto R = ConstArg(1);
      auto C = ConstArg(2);
      if (R && C)
        return std::make_pair(*R, *C);
      return std::nullopt;
    }
    // Elementwise single-argument builtins preserve extents.
    static const std::set<std::string> Elementwise = {
        "abs",  "sqrt",  "sin", "cos", "tan", "exp",
        "log",  "floor", "ceil", "round", "fix"};
    if (Elementwise.count(Fn) && Ix->numArgs() == 1)
      return Recurse(Ix->arg(0));
    if (Fn == "mod" && Ix->numArgs() == 2) {
      auto A = Recurse(Ix->arg(0));
      auto B = Recurse(Ix->arg(1));
      if (!A || !B)
        return std::nullopt;
      if (B->first == 1 && B->second == 1)
        return A;
      if ((A->first == 1 && A->second == 1) || *A == *B)
        return B;
      return std::nullopt;
    }
    return std::nullopt;
  }
  return std::nullopt;
}

class VectorizerDriver {
public:
  VectorizerDriver(const ShapeEnv &Env, const PatternDatabase &DB,
                   const VectorizerOptions &Opts, DiagnosticEngine &Diags,
                   VectorizeStats &Stats)
      : Env(Env), DB(DB), Opts(Opts), Diags(Diags), Stats(Stats) {}

  void run(Program &P) {
    TopBody = &P.Stmts;
    collectAssignedNames(P.Stmts, Guards.AssignedNames);
    Liveness.indexTop(P.Stmts);
    processBody(P.Stmts);
  }

private:
  void processBody(std::vector<StmtPtr> &Body);

  /// Attempts to vectorize the nest rooted at \p Loop. Returns the
  /// replacement statements (an empty list when the nest was deleted as
  /// provably zero-trip), or nullopt when the loop should stay.
  std::optional<std::vector<StmtPtr>> tryNest(ForStmt &Loop);

  /// Updates the constant/known-extent facts for a straight-line
  /// assignment reaching this program point on every execution.
  void recordAssignment(const AssignStmt &A) {
    if (const auto *Id = dyn_cast<IdentExpr>(A.lhs())) {
      double V;
      if (evaluateConstantWith(*A.rhs(), Guards.Constants, V))
        Guards.Constants[Id->sym()] = V;
      else
        Guards.Constants.erase(Id->sym());
      auto Dims = knownDimsOf(A.rhs(), Guards.Constants, Guards.KnownDims,
                              Guards.AssignedNames);
      if (Dims)
        Guards.KnownDims[Id->sym()] = *Dims;
      else
        Guards.KnownDims.erase(Id->sym());
    } else if (const auto *Ix = dyn_cast<IndexExpr>(A.lhs())) {
      if (const auto *Base = dyn_cast<IdentExpr>(Ix->base())) {
        Guards.Constants.erase(Base->sym());
        // An indexed write can grow the variable, so its recorded
        // extents are no longer trustworthy.
        Guards.KnownDims.erase(Base->sym());
      }
    }
  }

  void eraseAssignedConstants(const std::vector<StmtPtr> &Body) {
    std::set<Symbol> Assigned;
    collectAssignedNames(Body, Assigned);
    for (Symbol Name : Assigned) {
      Guards.Constants.erase(Name);
      Guards.KnownDims.erase(Name);
    }
  }

  ShapeEnv Env; ///< extended with enclosing loop indices while recursing
  const PatternDatabase &DB;
  const VectorizerOptions &Opts;
  DiagnosticEngine &Diags;
  VectorizeStats &Stats;
  /// Root statement list of the program being rewritten; liveness of
  /// loop index variables is judged against this whole tree.
  const std::vector<StmtPtr> *TopBody = nullptr;
  /// Facts codegen needs to stay sound when trip counts may be zero.
  CodegenGuards Guards;
  /// Memoized subtree facts for the liveness scan.
  LivenessScanner Liveness;
  /// Chain of compound statements the current processBody call is
  /// nested under; their cached mention sets are widened when a rewrite
  /// splices new statements below them.
  std::vector<const Stmt *> Enclosing;
};

std::optional<std::vector<StmtPtr>> VectorizerDriver::tryNest(ForStmt &Loop) {
  ++Stats.LoopNestsConsidered;

  // Work on a clone: normalization rewrites the tree, and we only commit
  // when something was vectorized.
  StmtPtr CloneStmt = Loop.clone();
  auto *Clone = cast<ForStmt>(CloneStmt.get());
  if (Opts.NormalizeLoops)
    normalizeLoopIndices(*Clone);

  std::string Reason;
  auto Nest = buildLoopNest(*Clone, Reason);
  if (!Nest) {
    ++Stats.IneligibleNests;
    if (Opts.EmitRemarks)
      Diags.remark(Loop.loc(), "loop not a vectorization candidate: " +
                                   Reason);
    return std::nullopt;
  }

  // rand() draws from sequential generator state: hoisting an invariant
  // call changes how many draws happen, and reordering statements
  // changes which values land where. Any rewrite of a nest that draws
  // random numbers is observable, so refuse the whole nest.
  bool DrawsRandom = false;
  static const Symbol RandSym = internSymbol("rand");
  auto CheckExprForRand = [&DrawsRandom](const Expr &E) {
    if (mentionsIdentifier(E, RandSym))
      DrawsRandom = true;
  };
  visitStmts(Loop.body(), [&](const Stmt &S) {
    if (const auto *A = dyn_cast<AssignStmt>(&S)) {
      CheckExprForRand(*A->rhs());
      CheckExprForRand(*A->lhs());
    } else if (const auto *E = dyn_cast<ExprStmt>(&S)) {
      CheckExprForRand(*E->expr());
    } else if (const auto *F = dyn_cast<ForStmt>(&S)) {
      CheckExprForRand(*F->range());
    }
  });
  if (DrawsRandom) {
    ++Stats.IneligibleNests;
    if (Opts.EmitRemarks)
      Diags.remark(Loop.loc(), "loop not a vectorization candidate: body "
                               "draws random numbers (order-sensitive)");
    return std::nullopt;
  }

  // The interpreter leaves an index variable holding its final value
  // after the loop; neither the vector rewrite nor index normalization
  // reproduces that, so any possible later read of an index variable
  // makes the nest ineligible.
  std::vector<const ForStmt *> NestLoops;
  NestLoops.push_back(&Loop);
  visitStmts(Loop.body(), [&](const Stmt &S) {
    if (const auto *F = dyn_cast<ForStmt>(&S))
      NestLoops.push_back(F);
  });
  // Ancestors of the nest's loops are already known: the driver carries
  // the chain of compound statements enclosing the current body, and any
  // deeper ancestors lie inside Loop's own (small) subtree — no need to
  // search the whole program per loop.
  for (const ForStmt *F : NestLoops) {
    std::unordered_set<const Stmt *> Ancestors(Enclosing.begin(),
                                               Enclosing.end());
    if (F != &Loop) {
      Ancestors.insert(&Loop);
      std::vector<const Stmt *> Path;
      collectAncestors(Loop.body(), F, Path);
      Ancestors.insert(Path.begin(), Path.end());
    }
    // The one top-level statement whose subtree holds F and may still be
    // rewritten; every other top-level statement goes through the index.
    const Stmt *TopStmt = !Enclosing.empty()
                              ? Enclosing.front()
                              : (F == &Loop ? nullptr
                                            : static_cast<const Stmt *>(&Loop));
    if (TopBody &&
        Liveness.readsIndexOutsideTop(F->indexSym(), F, TopStmt, Ancestors)) {
      ++Stats.IneligibleNests;
      if (Opts.EmitRemarks)
        Diags.remark(Loop.loc(),
                     "loop not a vectorization candidate: index variable '" +
                         F->indexVar() + "' may be read after the loop");
      return std::nullopt;
    }
  }

  DepGraph Graph = buildDepGraph(*Nest, Env);
  CodegenResult Result = runCodegen(*Nest, Graph, Env, DB, Opts, Diags, Guards);

  Stats.StmtsVectorized += Result.VectorizedStmts;
  Stats.StmtsSequential += Result.SequentialStmts;
  if (Result.VectorizedStmts != 0)
    Stats.SequentialLoopsEmitted += Result.SequentialLoops;
  // Cost decisions are counted even when the nest stays untouched below:
  // "everything kept in loop form" is exactly the verdict the counters
  // and daemon STATS need to surface.
  Stats.StmtsCostKept += Result.CostKeptStmts;
  Stats.VariantOverrides += Result.VariantOverrides;
  if (Result.CostKeptStmts != 0)
    ++Stats.NestsKeptLoop;
  if (Result.VectorizedStmts == 0)
    return std::nullopt; // nothing improved: keep the original loop untouched

  ++Stats.LoopNestsImproved;
  return std::move(Result.Stmts);
}

void VectorizerDriver::processBody(std::vector<StmtPtr> &Body) {
  // Rewrites in place (splicing replacements at the loop's position) so
  // the whole program tree stays walkable mid-pass: the index-liveness
  // check inspects statements far from the nest being considered.
  for (size_t I = 0; I < Body.size(); ++I) {
    Stmt *S = Body[I].get();
    if (auto *Loop = dyn_cast<ForStmt>(S)) {
      // Names the loop subtree assigns hold unknown values afterwards
      // regardless of whether the nest is rewritten.
      eraseAssignedConstants(Loop->body());
      Guards.Constants.erase(Loop->indexSym());
      Guards.KnownDims.erase(Loop->indexSym());

      std::optional<std::vector<StmtPtr>> Replacement = tryNest(*Loop);
      if (Replacement) {
        // Commit the rewrite — possibly zero statements, when the whole
        // nest was provably zero-trip and simply removed.
        size_t N = Replacement->size();
        if (!Enclosing.empty()) {
          // Keep enclosing statements' cached mention sets a superset
          // of reality: the new statements may mention new names.
          std::unordered_set<Symbol> NewNames;
          for (const StmtPtr &R : *Replacement) {
            const auto &M = Liveness.mentionSet(*R);
            NewNames.insert(M.begin(), M.end());
          }
          Liveness.augment(Enclosing, NewNames);
        } else {
          // Top-level splice: the old statement leaves the liveness
          // index before it is destroyed.
          Liveness.onTopRemove(*Body[I]);
        }
        Body.erase(Body.begin() + I);
        Body.insert(Body.begin() + I,
                    std::make_move_iterator(Replacement->begin()),
                    std::make_move_iterator(Replacement->end()));
        if (Enclosing.empty()) {
          for (size_t J = I; J != I + N; ++J)
            Liveness.onTopInsert(*Body[J]);
        } else {
          // A rewrite landed somewhere under this top-level statement:
          // its cached liveness verdicts no longer hold.
          Liveness.invalidateTop(*Enclosing.front());
        }
        // Resume scanning at the first statement after the replacement
        // (unsigned wraparound at I==0, N==0 is undone by the ++I).
        I += N;
        --I;
        continue;
      }
      // Keep the loop; try loops nested inside it independently. Within
      // the body this loop's index variable is a scalar, and facts
      // established inside the body are conditional on the loop running.
      std::optional<Dimensionality> Saved = Env.getShape(Loop->indexVar());
      Env.setShape(Loop->indexVar(), Dimensionality::scalar());
      CodegenGuards SavedGuards = Guards;
      Enclosing.push_back(Loop);
      processBody(Loop->body());
      Enclosing.pop_back();
      Guards = std::move(SavedGuards);
      if (Saved)
        Env.setShape(Loop->indexVar(), *Saved);
      else
        Env.erase(Loop->indexVar());
      continue;
    }
    if (auto *While = dyn_cast<WhileStmt>(S)) {
      eraseAssignedConstants(While->body());
      CodegenGuards SavedGuards = Guards;
      Enclosing.push_back(While);
      processBody(While->body());
      Enclosing.pop_back();
      Guards = std::move(SavedGuards);
    } else if (auto *If = dyn_cast<IfStmt>(S)) {
      for (IfStmt::Branch &B : If->branches()) {
        eraseAssignedConstants(B.Body);
        CodegenGuards SavedGuards = Guards;
        Enclosing.push_back(If);
        processBody(B.Body);
        Enclosing.pop_back();
        Guards = std::move(SavedGuards);
      }
    } else if (const auto *A = dyn_cast<AssignStmt>(S)) {
      recordAssignment(*A);
    }
  }
}

} // namespace

Program mvec::vectorizeProgram(const Program &P, const ShapeEnv &Env,
                               const PatternDatabase &DB,
                               const VectorizerOptions &Opts,
                               DiagnosticEngine &Diags,
                               VectorizeStats *Stats) {
  VectorizeStats LocalStats;
  VectorizeStats &S = Stats ? *Stats : LocalStats;
  Program Result = P.cloneProgram();
  // Every node the rewrite creates belongs to the result program, so the
  // whole pass runs inside its arena.
  ArenaScope Scope(Result.Arena.get());
  VectorizerDriver Driver(Env, DB, Opts, Diags, S);
  Driver.run(Result);
  return Result;
}

//===- DepAnalysis.cpp - Dependence testing --------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "deps/DepAnalysis.h"

#include "frontend/ASTUtils.h"
#include "interp/Builtins.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

using namespace mvec;

namespace {

/// True when \p D is an integer that doubles represent exactly (|D| <=
/// 2^53), so the GCD test may cast it; larger values (a subscript like
/// 1e300*i) get no GCD disproof.
bool isExactInteger(double D) {
  return D == std::floor(D) && std::fabs(D) <= 9007199254740992.0;
}

/// One array/variable access inside a statement.
struct AccessInfo {
  Symbol Var;
  bool Write = false;
  const IndexExpr *Subs = nullptr; ///< null = whole-variable access
};

/// Direction possibilities at one loop level.
struct DirSet {
  bool LT = true, EQ = true, GT = true;

  static DirSet full() { return DirSet(); }
  static DirSet only(char C) {
    DirSet D;
    D.LT = C == '<';
    D.EQ = C == '=';
    D.GT = C == '>';
    return D;
  }
  bool empty() const { return !LT && !EQ && !GT; }
  void intersect(const DirSet &O) {
    LT &= O.LT;
    EQ &= O.EQ;
    GT &= O.GT;
  }
};

class DepBuilder {
public:
  DepBuilder(const LoopNest &Nest, const ShapeEnv &Env)
      : Nest(Nest), Env(Env) {
    for (const LoopHeader &H : Nest.Loops) {
      LoopVars.insert(H.IndexSym);
      // Affine forms carry plain coefficient names; keep a string view of
      // the same set for those membership tests.
      LoopVarNames.insert(H.indexVar());
    }
    for (const NestStmt &S : Nest.Stmts)
      WrittenVars.insert(S.S->targetSym());
  }

  DepGraph build();

private:
  std::vector<AccessInfo> collectAccesses(const AssignStmt &S) const;
  void collectReads(const Expr &E, std::vector<AccessInfo> &Out) const;
  bool isArrayAccess(const IndexExpr &I) const;
  bool isScalarPure(const Expr &E) const;

  void testPair(unsigned S1, const AccessInfo &W, unsigned S2,
                const AccessInfo &A);
  void emitEdges(unsigned S1, unsigned S2, Symbol Var, bool AIsWrite,
                 unsigned Common, const std::vector<DirSet> &Dirs);
  void addEdge(unsigned Src, unsigned Dst, unsigned Level, DepKind Kind,
               Symbol Var);

  /// Symbolic interval of \p E with loop variables expanded to their bound
  /// intervals. Returns false when unbounded.
  bool intervalOf(const AffineExpr &E, AffineInterval &Out,
                  unsigned Depth = 0) const;
  const LoopHeader *loopByVar(const std::string &Name) const;

  /// Memoized AffineExpr::fromExpr / isScalarPure, keyed by node identity.
  /// Every (write, access) pair re-tests the same subscripts, so without
  /// the memo both analyses run O(pairs) times per subscript expression.
  const std::optional<AffineExpr> &affineOf(const Expr &E) const {
    auto It = AffineCache.find(&E);
    if (It == AffineCache.end())
      It = AffineCache.emplace(&E, AffineExpr::fromExpr(E)).first;
    return It->second;
  }
  bool scalarPure(const Expr &E) const {
    auto [It, New] = ScalarPureCache.try_emplace(&E, false);
    if (New)
      It->second = isScalarPure(E);
    return It->second;
  }

  const LoopNest &Nest;
  const ShapeEnv &Env;
  std::set<Symbol> LoopVars;
  std::set<std::string> LoopVarNames;
  std::set<Symbol> WrittenVars;
  std::vector<DepEdge> Edges;
  mutable std::unordered_map<const Expr *, std::optional<AffineExpr>>
      AffineCache;
  mutable std::unordered_map<const Expr *, bool> ScalarPureCache;
};

bool DepBuilder::isArrayAccess(const IndexExpr &I) const {
  Symbol Name = I.baseSym();
  if (Name.empty())
    return false; // expression base: treated via recursion on the base
  if (Env.knows(Name.str()) || WrittenVars.count(Name) ||
      LoopVars.count(Name))
    return true;
  return !isBuiltinName(Name.str());
}

void DepBuilder::collectReads(const Expr &E,
                              std::vector<AccessInfo> &Out) const {
  switch (E.kind()) {
  case Expr::Kind::Number:
  case Expr::Kind::String:
  case Expr::Kind::MagicColon:
  case Expr::Kind::EndKeyword:
    return;
  case Expr::Kind::Ident:
    Out.push_back(AccessInfo{cast<IdentExpr>(E).sym(), false, nullptr});
    return;
  case Expr::Kind::Range: {
    const auto &R = cast<RangeExpr>(E);
    collectReads(*R.start(), Out);
    if (R.step())
      collectReads(*R.step(), Out);
    collectReads(*R.stop(), Out);
    return;
  }
  case Expr::Kind::Unary:
    collectReads(*cast<UnaryExpr>(E).operand(), Out);
    return;
  case Expr::Kind::Binary: {
    const auto &B = cast<BinaryExpr>(E);
    collectReads(*B.lhs(), Out);
    collectReads(*B.rhs(), Out);
    return;
  }
  case Expr::Kind::Transpose:
    collectReads(*cast<TransposeExpr>(E).operand(), Out);
    return;
  case Expr::Kind::Index: {
    const auto &I = cast<IndexExpr>(E);
    if (isArrayAccess(I))
      Out.push_back(AccessInfo{I.baseSym(), false, &I});
    else if (I.baseSym().empty())
      collectReads(*I.base(), Out);
    for (unsigned A = 0, N = I.numArgs(); A != N; ++A)
      collectReads(*I.arg(A), Out);
    return;
  }
  case Expr::Kind::Matrix:
    for (const auto &Row : cast<MatrixExpr>(E).rows())
      for (const ExprPtr &Elt : Row)
        collectReads(*Elt, Out);
    return;
  }
}

std::vector<AccessInfo>
DepBuilder::collectAccesses(const AssignStmt &S) const {
  std::vector<AccessInfo> Out;
  // The write access.
  if (const auto *Ident = dyn_cast<IdentExpr>(S.lhs())) {
    Out.push_back(AccessInfo{Ident->sym(), true, nullptr});
  } else if (const auto *Index = dyn_cast<IndexExpr>(S.lhs())) {
    Out.push_back(AccessInfo{Index->baseSym(), true, Index});
    for (unsigned A = 0, N = Index->numArgs(); A != N; ++A)
      collectReads(*Index->arg(A), Out);
  }
  collectReads(*S.rhs(), Out);
  return Out;
}

bool DepBuilder::isScalarPure(const Expr &E) const {
  bool Pure = true;
  visitExpr(E, [this, &Pure](const Expr &Node) {
    if (const auto *Ident = dyn_cast<IdentExpr>(&Node)) {
      if (LoopVars.count(Ident->sym()))
        return;
      if (Env.isScalar(Ident->name()))
        return;
      Pure = false;
    } else if (isa<IndexExpr>(&Node) || isa<MagicColonExpr>(&Node) ||
               isa<MatrixExpr>(&Node) || isa<RangeExpr>(&Node) ||
               isa<EndKeywordExpr>(&Node) || isa<StringExpr>(&Node)) {
      Pure = false;
    }
  });
  return Pure;
}

const LoopHeader *DepBuilder::loopByVar(const std::string &Name) const {
  for (const LoopHeader &H : Nest.Loops)
    if (H.indexVar() == Name)
      return &H;
  return nullptr;
}

bool DepBuilder::intervalOf(const AffineExpr &E, AffineInterval &Out,
                            unsigned Depth) const {
  if (Depth > Nest.Loops.size() + 2)
    return false; // give up on pathological bound chains
  AffineInterval Acc = AffineInterval::point(AffineExpr(E.constant()));
  for (const auto &[Name, Coeff] : E.coeffs()) {
    AffineInterval VarInterval;
    if (const LoopHeader *H = loopByVar(Name)) {
      if (!H->StartAffine || !H->StopAffine || !H->StepConst)
        return false;
      AffineInterval Bounds;
      if (!intervalOf(*H->StartAffine, Bounds, Depth + 1))
        return false;
      AffineInterval StopBounds;
      if (!intervalOf(*H->StopAffine, StopBounds, Depth + 1))
        return false;
      if (*H->StepConst > 0)
        VarInterval = AffineInterval{Bounds.Lo, StopBounds.Hi};
      else
        VarInterval = AffineInterval{StopBounds.Lo, Bounds.Hi};
    } else {
      VarInterval = AffineInterval::point(AffineExpr::variable(Name));
    }
    Acc = Acc + VarInterval.scaled(Coeff);
  }
  Out = Acc;
  return true;
}

void DepBuilder::addEdge(unsigned Src, unsigned Dst, unsigned Level,
                         DepKind Kind, Symbol Var) {
  Edges.push_back(DepEdge{Src, Dst, Level, Kind, Var.str()});
}

void DepBuilder::emitEdges(unsigned S1, unsigned S2, Symbol Var,
                           bool AIsWrite, unsigned Common,
                           const std::vector<DirSet> &Dirs) {
  // S1 holds the write W; S2 holds access A. Directions describe
  // sign(iter(A) - iter(W)) per common level.
  for (unsigned L = 1; L <= Common; ++L) {
    bool PrefixEq = true;
    for (unsigned M = 1; M < L; ++M)
      PrefixEq &= Dirs[M - 1].EQ;
    if (!PrefixEq)
      break;
    if (Dirs[L - 1].LT) {
      // A's instance is later: W is the source.
      addEdge(S1, S2, L, AIsWrite ? DepKind::Output : DepKind::Flow, Var);
    }
    if (Dirs[L - 1].GT) {
      // A's instance is earlier: A is the source.
      addEdge(S2, S1, L, AIsWrite ? DepKind::Output : DepKind::Anti, Var);
    }
  }
  bool AllEq = true;
  for (unsigned L = 1; L <= Common; ++L)
    AllEq &= Dirs[L - 1].EQ;
  if (AllEq && S1 != S2) {
    // Same iteration of every common loop: source is the textually earlier
    // statement.
    if (S1 < S2)
      addEdge(S1, S2, 0, AIsWrite ? DepKind::Output : DepKind::Flow, Var);
    else
      addEdge(S2, S1, 0, AIsWrite ? DepKind::Output : DepKind::Anti, Var);
  }
}

void DepBuilder::testPair(unsigned S1, const AccessInfo &W, unsigned S2,
                          const AccessInfo &A) {
  unsigned Common = std::min(Nest.Stmts[S1].Depth, Nest.Stmts[S2].Depth);
  std::vector<DirSet> Dirs(Common, DirSet::full());

  bool Conservative = !W.Subs || !A.Subs ||
                      W.Subs->numArgs() != A.Subs->numArgs() ||
                      W.Subs->numArgs() == 0;
  if (Conservative) {
    emitEdges(S1, S2, W.Var, A.Write, Common, Dirs);
    return;
  }

  unsigned NumDims = W.Subs->numArgs();
  for (unsigned D = 0; D != NumDims; ++D) {
    const Expr &SubW = *W.Subs->arg(D);
    const Expr &SubA = *A.Subs->arg(D);

    // Whole-dimension selections never constrain or disprove.
    if (isa<MagicColonExpr>(&SubW) || isa<MagicColonExpr>(&SubA))
      continue;

    if (!scalarPure(SubW) || !scalarPure(SubA)) {
      // Set-valued or opaque subscripts: structurally identical
      // loop-invariant subscripts denote the same location set in every
      // iteration pair (no constraint); anything else is unknown.
      continue;
    }

    const std::optional<AffineExpr> &FW = affineOf(SubW);
    const std::optional<AffineExpr> &FA = affineOf(SubA);
    if (!FW || !FA)
      continue; // nonlinear: no information from this dimension

    // --- Disproof 1: symbolic interval test. fW(I1) - fA(I2) must span 0.
    AffineInterval IW, IA;
    if (intervalOf(*FW, IW) && intervalOf(*FA, IA)) {
      AffineInterval Diff = IW - IA;
      if ((Diff.Lo.isConstant() && Diff.Lo.constant() > 0) ||
          (Diff.Hi.isConstant() && Diff.Hi.constant() < 0))
        return; // provably disjoint: no dependence at all
    }

    // --- Disproof 2: GCD test over loop-variable coefficients. The two
    // accesses run in independent instances, so their loop-variable terms
    // are distinct unknowns even when they share a name; only the
    // invariant parts may cancel.
    {
      AffineExpr InvW(FW->constant());
      for (const auto &[Name, Coeff] : FW->coeffs())
        if (!LoopVarNames.count(Name))
          InvW = InvW + AffineExpr::variable(Name, Coeff);
      AffineExpr InvA(FA->constant());
      for (const auto &[Name, Coeff] : FA->coeffs())
        if (!LoopVarNames.count(Name))
          InvA = InvA + AffineExpr::variable(Name, Coeff);
      AffineExpr Delta = InvA - InvW; // right-hand side of the Diophantine
      bool IntegerCoeffs = true;
      long long G = 0;
      for (const auto &[Name, Coeff] : FW->coeffs()) {
        if (!LoopVarNames.count(Name))
          continue;
        if (!isExactInteger(Coeff)) {
          IntegerCoeffs = false;
          break;
        }
        G = std::gcd(G, static_cast<long long>(std::fabs(Coeff)));
      }
      for (const auto &[Name, Coeff] : FA->coeffs()) {
        if (!LoopVarNames.count(Name))
          continue;
        if (!isExactInteger(Coeff)) {
          IntegerCoeffs = false;
          break;
        }
        G = std::gcd(G, static_cast<long long>(std::fabs(Coeff)));
      }
      // The invariant-symbol parts must cancel for the constant test.
      bool InvariantsCancel = Delta.isConstant();
      if (IntegerCoeffs && InvariantsCancel && G > 0) {
        double C = Delta.constant();
        if (C != std::floor(C))
          return; // fractional offset can never be met by integers
        if (isExactInteger(C) && static_cast<long long>(C) % G != 0)
          return; // GCD does not divide the offset: no dependence
      }
      if (IntegerCoeffs && InvariantsCancel && G == 0) {
        // ZIV with canceling symbols: constant subscripts on both sides.
        if (Delta.constant() != 0.0)
          return; // distinct constants: no dependence
      }
    }

    // --- Direction refinement per common loop (strong and weak-zero
    // SIV).
    for (unsigned L = 1; L <= Common; ++L) {
      const LoopHeader &Header = Nest.Loops[L - 1];
      const std::string &Var = Header.indexVar();
      double AW = FW->coeff(Var);
      double AA = FA->coeff(Var);
      if (AW == 0.0 && AA == 0.0)
        continue; // this dimension says nothing about loop L
      bool OtherLoopVarW = false, OtherLoopVarA = false;
      for (const auto &[Name, Coeff] : FW->coeffs()) {
        (void)Coeff;
        if (Name != Var && LoopVarNames.count(Name))
          OtherLoopVarW = true;
      }
      for (const auto &[Name, Coeff] : FA->coeffs()) {
        (void)Coeff;
        if (Name != Var && LoopVarNames.count(Name))
          OtherLoopVarA = true;
      }
      if (OtherLoopVarW || OtherLoopVarA)
        continue; // MIV: no refinement (stays conservative)

      // Constant loop bounds when available (post-normalization most
      // loops are 1:n with a possibly symbolic n).
      double LB = 0, UB = 0;
      bool HasLB = Header.StartAffine && Header.StartAffine->isConstant();
      bool HasUB = Header.StopAffine && Header.StopAffine->isConstant();
      if (HasLB)
        LB = Header.StartAffine->constant();
      if (HasUB)
        UB = Header.StopAffine->constant();
      bool UnitStep = Header.StepConst && *Header.StepConst == 1.0;

      // --- Weak-zero SIV: only one access varies with this loop. The
      // dependence requires that access's iteration to hit a fixed
      // point t; a fractional or out-of-bounds t kills the dependence.
      if (AW == 0.0 || AA == 0.0) {
        double A = AW != 0.0 ? AW : AA;
        const AffineExpr &Varying = AW != 0.0 ? *FW : *FA;
        const AffineExpr &Fixed = AW != 0.0 ? *FA : *FW;
        AffineExpr G = Varying - AffineExpr::variable(Var, A);
        AffineExpr TExpr = (Fixed - G).scaled(1.0 / A);
        if (TExpr.isConstant()) {
          double T = TExpr.constant();
          if (T != std::floor(T))
            return; // never an integer iteration: no dependence
          if (UnitStep && ((HasLB && T < LB) || (HasUB && T > UB)))
            return; // the required iteration is outside the loop
        }
        continue; // existence known, but no direction refinement
      }

      if (AW != AA)
        continue; // weak-crossing SIV: stays conservative

      // --- Strong SIV: a*i1 + g = a*i2 + h  =>  i2 - i1 = (g - h)/a.
      AffineExpr G = *FW - AffineExpr::variable(Var, AW);
      AffineExpr H = *FA - AffineExpr::variable(Var, AA);
      AffineExpr DistExpr = (G - H).scaled(1.0 / AW);
      if (!DistExpr.isConstant())
        continue;
      double Dist = DistExpr.constant();
      if (Dist != std::floor(Dist))
        return; // non-integer distance: no dependence via this dim
      // A distance beyond the trip count cannot be realized.
      if (UnitStep && HasLB && HasUB &&
          std::fabs(Dist) > UB - LB)
        return;
      // Dist is in index-VALUE space; directions describe EXECUTION
      // order. A negative step walks values downward, so the later
      // iteration holds the smaller value and the sign flips; a
      // non-constant step leaves execution order unknowable (a zero
      // distance is still '=' either way).
      if (Dist == 0.0) {
        Dirs[L - 1].intersect(DirSet::only('='));
      } else {
        if (!Header.StepConst || *Header.StepConst == 0.0)
          continue; // cannot orient the carried direction: stay full
        double ExecDist = Dist * (*Header.StepConst > 0 ? 1.0 : -1.0);
        Dirs[L - 1].intersect(ExecDist > 0 ? DirSet::only('<')
                                           : DirSet::only('>'));
      }
      if (Dirs[L - 1].empty())
        return; // contradictory constraints: no dependence
    }
  }

  emitEdges(S1, S2, W.Var, A.Write, Common, Dirs);
}

DepGraph DepBuilder::build() {
  std::vector<std::vector<AccessInfo>> Accesses;
  Accesses.reserve(Nest.Stmts.size());
  for (const NestStmt &S : Nest.Stmts)
    Accesses.push_back(collectAccesses(*S.S));

  for (unsigned S1 = 0; S1 != Accesses.size(); ++S1) {
    for (const AccessInfo &W : Accesses[S1]) {
      if (!W.Write)
        continue;
      for (unsigned S2 = 0; S2 != Accesses.size(); ++S2) {
        for (const AccessInfo &A : Accesses[S2]) {
          if (A.Var != W.Var)
            continue;
          if (&A == &W)
            continue;
          // Write-write pairs would otherwise be tested twice (once from
          // each side); keep a single canonical orientation.
          if (A.Write && (S2 < S1 || (S1 == S2 && &A < &W)))
            continue;
          testPair(S1, W, S2, A);
        }
      }
    }
  }

  // Deduplicate.
  std::sort(Edges.begin(), Edges.end(),
            [](const DepEdge &A, const DepEdge &B) {
              return std::tie(A.Src, A.Dst, A.Level, A.Kind, A.Variable) <
                     std::tie(B.Src, B.Dst, B.Level, B.Kind, B.Variable);
            });
  Edges.erase(std::unique(Edges.begin(), Edges.end(),
                          [](const DepEdge &A, const DepEdge &B) {
                            return A.Src == B.Src && A.Dst == B.Dst &&
                                   A.Level == B.Level && A.Kind == B.Kind &&
                                   A.Variable == B.Variable;
                          }),
              Edges.end());

  DepGraph Graph;
  Graph.NumNodes = Nest.Stmts.size();
  Graph.Edges = std::move(Edges);
  return Graph;
}

} // namespace

DepGraph mvec::buildDepGraph(const LoopNest &Nest, const ShapeEnv &Env) {
  return DepBuilder(Nest, Env).build();
}

//===- DepsTest.cpp - Loop nest + dependence analysis tests ----------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "deps/DepAnalysis.h"
#include "deps/DepGraph.h"
#include "deps/LoopNest.h"

#include "frontend/ASTPrinter.h"
#include "frontend/Parser.h"
#include "shape/AnnotationParser.h"

#include "gtest/gtest.h"

using namespace mvec;

namespace {

struct NestFixture {
  DiagnosticEngine Diags;
  ParseResult Parsed;
  ShapeEnv Env;
  ForStmt *Root = nullptr;

  explicit NestFixture(const std::string &Source) {
    Parsed = parseMatlab(Source, Diags);
    EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
    Env = parseShapeAnnotations(Parsed.Annotations, Diags);
    for (StmtPtr &S : Parsed.Prog.Stmts)
      if (auto *For = dyn_cast<ForStmt>(S.get())) {
        Root = For;
        break;
      }
    EXPECT_NE(Root, nullptr) << "no for loop in source";
  }

  std::optional<LoopNest> nest(std::string *ReasonOut = nullptr) {
    std::string Reason;
    auto Result = buildLoopNest(*Root, Reason);
    if (ReasonOut)
      *ReasonOut = Reason;
    return Result;
  }
};

unsigned countEdges(const DepGraph &G, unsigned Src, unsigned Dst,
                    int Level = -1) {
  unsigned Count = 0;
  for (const DepEdge &E : G.Edges)
    if (E.Src == Src && E.Dst == Dst &&
        (Level < 0 || E.Level == static_cast<unsigned>(Level)))
      ++Count;
  return Count;
}

//===----------------------------------------------------------------------===//
// Affine extraction
//===----------------------------------------------------------------------===//

std::optional<AffineExpr> affineOf(const std::string &Source) {
  DiagnosticEngine Diags;
  Parser P(Source, Diags);
  ExprPtr E = P.parseSingleExpression();
  EXPECT_FALSE(Diags.hasErrors());
  return AffineExpr::fromExpr(*E);
}

TEST(AffineExprTest, Extraction) {
  auto A = affineOf("2*i-1");
  ASSERT_TRUE(A.has_value());
  EXPECT_DOUBLE_EQ(A->coeff("i"), 2);
  EXPECT_DOUBLE_EQ(A->constant(), -1);

  auto B = affineOf("i+j+3");
  ASSERT_TRUE(B.has_value());
  EXPECT_DOUBLE_EQ(B->coeff("i"), 1);
  EXPECT_DOUBLE_EQ(B->coeff("j"), 1);
  EXPECT_DOUBLE_EQ(B->constant(), 3);

  auto C = affineOf("-(i-2)/2");
  ASSERT_TRUE(C.has_value());
  EXPECT_DOUBLE_EQ(C->coeff("i"), -0.5);
  EXPECT_DOUBLE_EQ(C->constant(), 1);

  EXPECT_FALSE(affineOf("i*j").has_value());
  EXPECT_FALSE(affineOf("A(i)").has_value());
  EXPECT_FALSE(affineOf("i^2").has_value());
}

TEST(AffineExprTest, Arithmetic) {
  AffineExpr I = AffineExpr::variable("i");
  AffineExpr Sum = I + AffineExpr(3);
  AffineExpr Diff = Sum - I;
  EXPECT_TRUE(Diff.isConstant());
  EXPECT_DOUBLE_EQ(Diff.constant(), 3);
  EXPECT_DOUBLE_EQ(I.scaled(-2).coeff("i"), -2);
}

TEST(AffineExprTest, ToExprRoundTrip) {
  auto A = affineOf("2*i-1");
  ASSERT_TRUE(A.has_value());
  ExprPtr E = A->toExpr();
  auto B = AffineExpr::fromExpr(*E);
  ASSERT_TRUE(B.has_value());
  EXPECT_TRUE(*A == *B);
}

//===----------------------------------------------------------------------===//
// Loop nest construction & eligibility
//===----------------------------------------------------------------------===//

TEST(LoopNestTest, SimpleNest) {
  NestFixture F("for i=1:m\n for j=1:n\n  A(i,j)=B(i,j);\n end\nend");
  auto Nest = F.nest();
  ASSERT_TRUE(Nest.has_value());
  ASSERT_EQ(Nest->Loops.size(), 2u);
  EXPECT_EQ(Nest->Loops[0].indexVar(), "i");
  EXPECT_EQ(Nest->Loops[1].indexVar(), "j");
  ASSERT_EQ(Nest->Stmts.size(), 1u);
  EXPECT_EQ(Nest->Stmts[0].Depth, 2u);
}

TEST(LoopNestTest, StatementsAtMultipleDepths) {
  NestFixture F("for i=1:m\n x(i)=1;\n for j=1:n\n  A(i,j)=0;\n end\n"
                " y(i)=2;\nend");
  auto Nest = F.nest();
  ASSERT_TRUE(Nest.has_value());
  ASSERT_EQ(Nest->Stmts.size(), 3u);
  EXPECT_EQ(Nest->Stmts[0].Depth, 1u);
  EXPECT_EQ(Nest->Stmts[1].Depth, 2u);
  EXPECT_EQ(Nest->Stmts[2].Depth, 1u);
  // Source order preserved: x, A, y.
  EXPECT_EQ(Nest->Stmts[0].S->targetName(), "x");
  EXPECT_EQ(Nest->Stmts[1].S->targetName(), "A");
  EXPECT_EQ(Nest->Stmts[2].S->targetName(), "y");
}

TEST(LoopNestTest, RejectsEmbeddedIf) {
  NestFixture F("for i=1:n\n if i>2, x(i)=1; end\nend");
  std::string Reason;
  EXPECT_FALSE(F.nest(&Reason).has_value());
  EXPECT_NE(Reason.find("control"), std::string::npos);
}

TEST(LoopNestTest, RejectsIndexWrite) {
  NestFixture F("for i=1:n\n i=i+1;\nend");
  std::string Reason;
  EXPECT_FALSE(F.nest(&Reason).has_value());
  EXPECT_NE(Reason.find("index variable"), std::string::npos);
}

TEST(LoopNestTest, RejectsSiblingLoops) {
  NestFixture F("for i=1:n\n for j=1:n, A(i,j)=1; end\n"
                " for k=1:n, B(i,k)=1; end\nend");
  std::string Reason;
  EXPECT_FALSE(F.nest(&Reason).has_value());
  EXPECT_NE(Reason.find("sibling"), std::string::npos);
}

TEST(LoopNestTest, RejectsNonRangeBounds) {
  NestFixture F("for i=v\n x(i)=1;\nend");
  std::string Reason;
  EXPECT_FALSE(F.nest(&Reason).has_value());
}

TEST(LoopNestTest, RejectsCallStatement) {
  NestFixture F("for i=1:n\n disp(i);\nend");
  std::string Reason;
  EXPECT_FALSE(F.nest(&Reason).has_value());
}

TEST(LoopNestTest, RejectsBoundsWrittenInside) {
  NestFixture F("for i=1:n\n n=n+1;\nend");
  std::string Reason;
  EXPECT_FALSE(F.nest(&Reason).has_value());
  EXPECT_NE(Reason.find("depend"), std::string::npos);
}

TEST(LoopNestTest, TriangularBoundsAffine) {
  NestFixture F("for k=1:p\n for j=1:(i-1)\n  X(i,k)=X(i,k)-X(j,k);\n "
                "end\nend");
  auto Nest = F.nest();
  ASSERT_TRUE(Nest.has_value());
  ASSERT_TRUE(Nest->Loops[1].StopAffine.has_value());
  EXPECT_DOUBLE_EQ(Nest->Loops[1].StopAffine->coeff("i"), 1);
  EXPECT_DOUBLE_EQ(Nest->Loops[1].StopAffine->constant(), -1);
}

//===----------------------------------------------------------------------===//
// Normalization
//===----------------------------------------------------------------------===//

TEST(NormalizationTest, StrideTwoLoop) {
  NestFixture F("for i=2:2:1500\n B(i,1)=D(i,i);\nend");
  normalizeLoopIndices(*F.Root);
  std::string Printed = printStmt(*F.Root);
  EXPECT_NE(Printed.find("for i=1:750"), std::string::npos) << Printed;
  EXPECT_NE(Printed.find("B(2*i,1)=D(2*i,2*i);"), std::string::npos)
      << Printed;
}

TEST(NormalizationTest, OffsetUnitLoopSymbolicBound) {
  NestFixture F("for i=3:n\n x(i)=1;\nend");
  normalizeLoopIndices(*F.Root);
  std::string Printed = printStmt(*F.Root);
  EXPECT_NE(Printed.find("for i=1:n-2"), std::string::npos) << Printed;
  EXPECT_NE(Printed.find("x(i+2)=1;"), std::string::npos) << Printed;
}

TEST(NormalizationTest, AlreadyNormalizedUntouched) {
  NestFixture F("for i=1:n\n x(i)=i;\nend");
  std::string Before = printStmt(*F.Root);
  normalizeLoopIndices(*F.Root);
  EXPECT_EQ(printStmt(*F.Root), Before);
}

TEST(NormalizationTest, SymbolicStepLeftAlone) {
  NestFixture F("for i=1:s:n\n x(i)=i;\nend");
  std::string Before = printStmt(*F.Root);
  normalizeLoopIndices(*F.Root);
  EXPECT_EQ(printStmt(*F.Root), Before);
}

TEST(NormalizationTest, NestedLoopsBothNormalized) {
  NestFixture F("for i=2:2:1500\n for j=3:2:1501\n  A(i,j)=a(2*i-1);\n "
                "end\nend");
  normalizeLoopIndices(*F.Root);
  std::string Printed = printStmt(*F.Root);
  EXPECT_NE(Printed.find("for i=1:750"), std::string::npos) << Printed;
  EXPECT_NE(Printed.find("for j=1:750"), std::string::npos) << Printed;
  // a(2*i-1) with i -> 2*i becomes a(2*(2*i)-1) = a(4*i-1).
  EXPECT_NE(Printed.find("A(2*i,2*j+1)=a(2*(2*i)-1);"), std::string::npos)
      << Printed;
}

//===----------------------------------------------------------------------===//
// Dependence analysis
//===----------------------------------------------------------------------===//

DepGraph graphFor(NestFixture &F) {
  auto Nest = F.nest();
  EXPECT_TRUE(Nest.has_value());
  return buildDepGraph(*Nest, F.Env);
}

TEST(DepAnalysisTest, IndependentStatementHasNoSelfEdge) {
  NestFixture F("%! im(*,*) im2(*,*) heq(1,*)\n"
                "for i=1:m\n for j=1:n\n  im2(i,j)=heq(im(i,j)+1);\n "
                "end\nend");
  DepGraph G = graphFor(F);
  EXPECT_EQ(countEdges(G, 0, 0), 0u) << G.str();
}

TEST(DepAnalysisTest, ScalarAccumulatorCarriesAllLevels) {
  NestFixture F("%! s(1)\nfor i=1:n\n s=s+i;\nend");
  DepGraph G = graphFor(F);
  // Whole-variable write+read of s: carried self-dependence at level 1.
  EXPECT_GE(countEdges(G, 0, 0, 1), 1u) << G.str();
}

TEST(DepAnalysisTest, ArrayAccumulatorCarriedByMissingLoopOnly) {
  NestFixture F("%! X(*,*) L(*,*) i(1)\n"
                "for k=1:p\n for j=1:(i-1)\n  "
                "X(i,k)=X(i,k)-L(i,j)*X(j,k);\n end\nend");
  DepGraph G = graphFor(F);
  // The accumulation on X(i,k) is carried by j (level 2) only...
  EXPECT_GE(countEdges(G, 0, 0, 2), 1u) << G.str();
  // ...and the X(j,k) read never aliases X(i,k) because j <= i-1 < i.
  EXPECT_EQ(countEdges(G, 0, 0, 1), 0u) << G.str();
}

TEST(DepAnalysisTest, StrongSivDistanceCarriesLoop) {
  NestFixture F("%! v(1,*)\nfor i=1:n\n v(i)=v(i-1)+1;\nend");
  DepGraph G = graphFor(F);
  // v(i) written, v(i-1) read: distance 1 flow dependence carried by i.
  EXPECT_GE(countEdges(G, 0, 0, 1), 1u) << G.str();
}

TEST(DepAnalysisTest, GcdDisprovesOddEven) {
  NestFixture F("%! v(1,*)\nfor i=1:n\n v(2*i)=v(2*i+1)+1;\nend");
  DepGraph G = graphFor(F);
  EXPECT_EQ(G.Edges.size(), 0u) << G.str();
}

TEST(DepAnalysisTest, HugeCoefficientsAreConservative) {
  // 1e300*i == 1e300*j + 1e300 at j = i-1: a real carried dependence,
  // whose coefficients no integer type holds.
  NestFixture F("%! A(*,*)\nfor i=1:n\n A(1e300*i,1)=A(1e300*i+1e300,1)+1;\n"
                "end");
  DepGraph G = graphFor(F);
  EXPECT_GE(countEdges(G, 0, 0, 1), 1u) << G.str();
}

TEST(DepAnalysisTest, DistinctConstantColumnsIndependent) {
  NestFixture F("%! A(*,*)\nfor i=1:n\n A(i,1)=A(i,2)+1;\nend");
  DepGraph G = graphFor(F);
  EXPECT_EQ(G.Edges.size(), 0u) << G.str();
}

TEST(DepAnalysisTest, Fig4CrossStatementEdge) {
  NestFixture F(
      "%! A(*,*) B(*,*) C(*,*) D(*,*) a(1,*) ind(1,*)\n"
      "for i=1:750\n"
      " B(2*i,1)=D(2*i,2*i)*A(2*i,2*i)+C(2*i,:)*D(:,2*i);\n"
      " for j=1:750\n"
      "  A(2*i,2*j+1)=B(2*i,ind)*C(ind,2*j+1)+D(2*j+1,2*i)'-a(2*(2*i)-1);\n"
      " end\n"
      "end");
  DepGraph G = graphFor(F);
  // S0 writes B(2i,1); S1 reads B(2i,ind): loop-independent edge S0 -> S1.
  EXPECT_GE(countEdges(G, 0, 1, 0), 1u) << G.str();
  // No reverse edge that would force S1 before S0 at any level:
  EXPECT_EQ(countEdges(G, 1, 0), 0u) << G.str();
  // S1's write to A(2i, 2j+1) vs S0's read A(2i,2i): columns odd vs even.
  // (Covered by the absence of 1->0 edges above.)
}

TEST(DepAnalysisTest, FlowBetweenStatements) {
  NestFixture F("%! x(1,*) y(1,*)\nfor i=1:n\n x(i)=i;\n y(i)=x(i);\nend");
  DepGraph G = graphFor(F);
  EXPECT_GE(countEdges(G, 0, 1, 0), 1u) << G.str();
  EXPECT_EQ(countEdges(G, 1, 0), 0u) << G.str();
}

TEST(DepAnalysisTest, AntiDependenceReversed) {
  NestFixture F("%! x(1,*) y(1,*)\nfor i=1:n\n y(i)=x(i+1);\n x(i)=0;\nend");
  DepGraph G = graphFor(F);
  // x(i+1) read at iteration i, x(i) written at iteration i+1: anti
  // dependence from S0 to S1 carried by the loop.
  bool FoundAnti = false;
  for (const DepEdge &E : G.Edges)
    if (E.Src == 0 && E.Dst == 1 && E.Kind == DepKind::Anti)
      FoundAnti = true;
  EXPECT_TRUE(FoundAnti) << G.str();
}

TEST(DepAnalysisTest, NegativeStepFlowDirectionFollowsExecutionOrder) {
  // Reverse loop: the iteration with value i runs BEFORE the one with
  // value i-1, so the write x(i) precedes the read x(i+1) that aliases
  // it and the carried edge is a Flow from S0 to S1. Orienting the
  // strong-SIV direction in index-value space instead of execution
  // order used to reverse this into an edge forcing S1 first, and loop
  // distribution then emitted the reading loop before the write.
  NestFixture F("%! x(1,*) y(1)\nfor i=n:-1:1\n x(i)=1;\n y=x(i+1);\nend");
  DepGraph G = graphFor(F);
  bool FoundFlow = false;
  for (const DepEdge &E : G.Edges)
    if (E.Src == 0 && E.Dst == 1 && E.Kind == DepKind::Flow)
      FoundFlow = true;
  EXPECT_TRUE(FoundFlow) << G.str();
  EXPECT_EQ(countEdges(G, 1, 0), 0u) << G.str();
}

TEST(DepAnalysisTest, UnknownSubscriptIsConservative) {
  NestFixture F("%! x(1,*) k(1,*)\nfor i=1:n\n x(k(i))=x(i)+1;\nend");
  DepGraph G = graphFor(F);
  // Write through x(k(i)) may alias any read x(i): carried self edges.
  EXPECT_GE(countEdges(G, 0, 0, 1), 1u) << G.str();
}

//===----------------------------------------------------------------------===//
// SCC + topological order
//===----------------------------------------------------------------------===//

TEST(SCCTest, ChainIsTopologicallyOrdered) {
  DepGraph G;
  G.NumNodes = 3;
  G.Edges.push_back(DepEdge{2, 1, 0, DepKind::Flow, "a"});
  G.Edges.push_back(DepEdge{1, 0, 0, DepKind::Flow, "b"});
  auto Comps = stronglyConnectedComponents(G, 1);
  ASSERT_EQ(Comps.size(), 3u);
  EXPECT_EQ(Comps[0][0], 2u);
  EXPECT_EQ(Comps[1][0], 1u);
  EXPECT_EQ(Comps[2][0], 0u);
}

TEST(SCCTest, CycleGroupsTogether) {
  DepGraph G;
  G.NumNodes = 3;
  G.Edges.push_back(DepEdge{0, 1, 1, DepKind::Flow, "a"});
  G.Edges.push_back(DepEdge{1, 0, 1, DepKind::Anti, "a"});
  G.Edges.push_back(DepEdge{1, 2, 0, DepKind::Flow, "b"});
  auto Comps = stronglyConnectedComponents(G, 1);
  ASSERT_EQ(Comps.size(), 2u);
  EXPECT_EQ(Comps[0], (std::vector<unsigned>{0, 1}));
  EXPECT_EQ(Comps[1], (std::vector<unsigned>{2}));
}

TEST(SCCTest, LevelFilterBreaksCycle) {
  DepGraph G;
  G.NumNodes = 2;
  G.Edges.push_back(DepEdge{0, 1, 0, DepKind::Flow, "a"});
  G.Edges.push_back(DepEdge{1, 0, 1, DepKind::Anti, "a"});
  // With level-1 edges included: one SCC.
  EXPECT_EQ(stronglyConnectedComponents(G, 1).size(), 1u);
  // After peeling loop 1, only the loop-independent edge remains.
  auto Comps = stronglyConnectedComponents(G, 2);
  ASSERT_EQ(Comps.size(), 2u);
  EXPECT_EQ(Comps[0][0], 0u);
}

TEST(SCCTest, IndependentNodesFollowSourceOrder) {
  DepGraph G;
  G.NumNodes = 4;
  auto Comps = stronglyConnectedComponents(G, 1);
  ASSERT_EQ(Comps.size(), 4u);
  for (unsigned I = 0; I != 4; ++I)
    EXPECT_EQ(Comps[I][0], I);
}

TEST(SCCTest, SelfRecurrenceDetection) {
  DepGraph G;
  G.NumNodes = 2;
  G.Edges.push_back(DepEdge{0, 0, 2, DepKind::Flow, "s"});
  EXPECT_TRUE(hasSelfRecurrence(G, 0, 1));
  EXPECT_TRUE(hasSelfRecurrence(G, 0, 2));
  EXPECT_FALSE(hasSelfRecurrence(G, 0, 3));
  EXPECT_FALSE(hasSelfRecurrence(G, 1, 1));
}

} // namespace

namespace {

//===----------------------------------------------------------------------===//
// SIV refinements
//===----------------------------------------------------------------------===//

TEST(DepAnalysisTest, WeakZeroSivFractionalPointDisproved) {
  // v(2*i) written, v(3) read: 2*i == 3 has no integer solution.
  NestFixture F("%! v(1,*)\nfor i=1:n\n v(2*i)=v(3)+1;\nend");
  DepGraph G = graphFor(F);
  EXPECT_EQ(countEdges(G, 0, 0), 0u) << G.str();
}

TEST(DepAnalysisTest, WeakZeroSivOutOfBoundsDisproved) {
  // v(i) written for i in 1..8, v(12) read: iteration 12 never runs.
  NestFixture F("%! v(1,*)\nfor i=1:8\n v(i)=v(12)+1;\nend");
  DepGraph G = graphFor(F);
  EXPECT_EQ(countEdges(G, 0, 0), 0u) << G.str();
}

TEST(DepAnalysisTest, WeakZeroSivInBoundsIsConservative) {
  // v(3) is written in iteration 3: a genuine (one-point) recurrence.
  NestFixture F("%! v(1,*)\nfor i=1:8\n v(i)=v(3)+1;\nend");
  DepGraph G = graphFor(F);
  EXPECT_GE(countEdges(G, 0, 0), 1u) << G.str();
}

TEST(DepAnalysisTest, StrongSivDistanceBeyondTripCountDisproved) {
  // Distance 50 in an 8-iteration loop cannot be realized.
  NestFixture F("%! v(1,*)\nfor i=1:8\n v(i)=v(i+50)+1;\nend");
  DepGraph G = graphFor(F);
  EXPECT_EQ(countEdges(G, 0, 0), 0u) << G.str();
}

TEST(DepAnalysisTest, StrongSivDistanceWithinTripCountKept) {
  NestFixture F("%! v(1,*)\nfor i=1:8\n v(i)=v(i+5)+1;\nend");
  DepGraph G = graphFor(F);
  EXPECT_GE(countEdges(G, 0, 0), 1u) << G.str();
}

} // namespace

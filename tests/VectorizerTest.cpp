//===- VectorizerTest.cpp - End-to-end vectorization tests -----------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every test vectorizes a program and validates semantic equivalence by
/// executing both versions in the interpreter (diffRun). The paper's
/// running examples (Secs. 2-3, Fig. 3, Fig. 4, Fig. 5) all appear here.
///
//===----------------------------------------------------------------------===//

#include "bench/Corpus.h"
#include "driver/Pipeline.h"

#include "gtest/gtest.h"

using namespace mvec;

namespace {

/// Vectorizes, validates semantics, and returns the vectorized source.
std::string vectOk(const std::string &Source,
                   const VectorizerOptions &Opts = {}) {
  std::string Error;
  auto V = vectorizeAndValidate(Source, Error, Opts);
  EXPECT_TRUE(V.has_value()) << Error;
  return V.value_or("");
}

/// Runs the pipeline and returns its stats (no validation).
VectorizeStats statsFor(const std::string &Source,
                        const VectorizerOptions &Opts = {}) {
  PipelineResult R = vectorizeSource(Source, Opts);
  EXPECT_TRUE(R.succeeded()) << R.Diags.str();
  return R.Stats;
}

bool contains(const std::string &Haystack, const std::string &Needle) {
  return Haystack.find(Needle) != std::string::npos;
}

//===----------------------------------------------------------------------===//
// Pointwise vectorization (Sec. 2.1)
//===----------------------------------------------------------------------===//

TEST(VectorizerTest, SimplePointwiseRowVectors) {
  std::string V = vectOk("n = 8;\n"
                         "x = rand(1,n); y = rand(1,n); z = zeros(1,n);\n"
                         "for i=1:n\n"
                         "  z(i) = x(i)+y(i);\n"
                         "end\n");
  EXPECT_TRUE(contains(V, "z(1:n)=x(1:n)+y(1:n);")) << V;
  EXPECT_FALSE(contains(V, "for i=")) << V;
}

TEST(VectorizerTest, ScalarBroadcast) {
  std::string V = vectOk("n = 6;\nx = zeros(1,n);\n"
                         "for i=1:n\n  x(i) = 3;\nend\n");
  EXPECT_TRUE(contains(V, "x(1:n)=3;")) << V;
}

TEST(VectorizerTest, ScalarTimesElement) {
  std::string V = vectOk("n = 6;\nc = 2.5;\nx = rand(1,n); y = zeros(1,n);\n"
                         "for i=1:n\n  y(i) = c*x(i)+1;\nend\n");
  EXPECT_TRUE(contains(V, "y(1:n)=c*x(1:n)+1;")) << V;
}

TEST(VectorizerTest, PowBecomesDotPow) {
  std::string V = vectOk("n = 5;\nx = rand(1,n); y = zeros(1,n);\n"
                         "for i=1:n\n  y(i) = x(i)^2;\nend\n");
  EXPECT_TRUE(contains(V, ".^2")) << V;
}

TEST(VectorizerTest, DivisionBecomesDotDiv) {
  std::string V = vectOk("n = 5;\nx = rand(1,n); y = rand(1,n);\n"
                         "z = zeros(1,n);\n"
                         "for i=1:n\n  z(i) = x(i)/y(i);\nend\n");
  EXPECT_TRUE(contains(V, "./")) << V;
}

TEST(VectorizerTest, ElementwiseMulBecomesDotMul) {
  std::string V = vectOk("n = 5;\nx = rand(1,n); y = rand(1,n);\n"
                         "z = zeros(1,n);\n"
                         "for i=1:n\n  z(i) = x(i)*y(i);\nend\n");
  EXPECT_TRUE(contains(V, "x(1:n).*y(1:n)")) << V;
}

TEST(VectorizerTest, PointwiseFunctionCall) {
  // Y(i,j) = cos(X(i,j)) is correctly vectorized (paper Sec. 7).
  std::string V = vectOk("X = rand(4,5);\nY = zeros(4,5);\n"
                         "%! X(*,*) Y(*,*)\n"
                         "for i=1:4\n for j=1:5\n"
                         "  Y(i,j) = cos(X(i,j));\n"
                         " end\nend\n");
  EXPECT_TRUE(contains(V, "Y(1:4,1:5)=cos(X(1:4,1:5));")) << V;
}

TEST(VectorizerTest, TwoDimensionalPointwise) {
  std::string V = vectOk("m = 4; n = 3;\n"
                         "B = rand(m,n); C = rand(m,n); A = zeros(m,n);\n"
                         "for i=1:m\n for j=1:n\n"
                         "  A(i,j) = B(i,j)+C(i,j);\n end\nend\n");
  EXPECT_TRUE(contains(V, "A(1:m,1:n)=B(1:m,1:n)+C(1:m,1:n);")) << V;
}

//===----------------------------------------------------------------------===//
// Transpose insertion (Sec. 2.2)
//===----------------------------------------------------------------------===//

TEST(VectorizerTest, RowPlusColumnInsertsTranspose) {
  // z(i)=x(i)+y(i) with column x and row y.
  std::string V = vectOk("n = 7;\n"
                         "x = rand(n,1); y = rand(1,n); z = zeros(n,1);\n"
                         "%! x(*,1) y(1,*) z(*,1)\n"
                         "for i=1:n\n  z(i) = x(i)+y(i);\nend\n");
  EXPECT_TRUE(contains(V, "'")) << V;
  EXPECT_FALSE(contains(V, "for i=")) << V;
}

TEST(VectorizerTest, PaperSec22TransposedMatrixExample) {
  // A(i,j) = B(j,i)+C(i,j) — the worked example of Sec. 2.2.
  std::string V = vectOk("m = 4; n = 6;\n"
                         "B = rand(n,m); C = rand(m,n); A = zeros(m,n);\n"
                         "for i=1:m\n for j=1:n\n"
                         "  A(i,j) = B(j,i)+C(i,j);\n end\nend\n");
  // (B(1:n,1:m)+C(1:m,1:n)')' — exact output shape of the paper.
  EXPECT_TRUE(contains(V, "A(1:m,1:n)=(B(1:n,1:m)+C(1:m,1:n)')';")) << V;
}

TEST(VectorizerTest, EqualBoundsStillNeedTranspose) {
  // Sec. 2.2: r_i and r_j stay distinct even when m == n; the transpose
  // must still be inserted (checked by diff-running with m == n).
  std::string V = vectOk("m = 5; n = 5;\n"
                         "B = rand(n,m); C = rand(m,n); A = zeros(m,n);\n"
                         "for i=1:m\n for j=1:n\n"
                         "  A(i,j) = B(j,i)+C(i,j);\n end\nend\n");
  EXPECT_TRUE(contains(V, "'")) << V;
}

TEST(VectorizerTest, TransposesDisabledFallsBackToLoop) {
  VectorizerOptions Opts;
  Opts.EnableTransposes = false;
  std::string Source = "n = 7;\n"
                       "x = rand(n,1); y = rand(1,n); z = zeros(n,1);\n"
                       "%! x(*,1) y(1,*) z(*,1)\n"
                       "for i=1:n\n  z(i) = x(i)+y(i);\nend\n";
  VectorizeStats S = statsFor(Source, Opts);
  EXPECT_EQ(S.StmtsVectorized, 0u);
}

//===----------------------------------------------------------------------===//
// The loop pattern database (Sec. 3, Table 2)
//===----------------------------------------------------------------------===//

TEST(VectorizerTest, Pattern1DotProduct) {
  // a(i) = X(i,:)*Y(:,i)  ->  a(1:n) = sum(X(1:n,:)'.*Y(:,1:n),1)
  std::string V = vectOk("n = 5; k = 7;\n"
                         "X = rand(n,k); Y = rand(k,n); a = zeros(1,n);\n"
                         "%! X(*,*) Y(*,*) a(1,*)\n"
                         "for i=1:n\n  a(i) = X(i,:)*Y(:,i);\nend\n");
  EXPECT_TRUE(contains(V, "sum(X(1:n,:)'.*Y(:,1:n),1)")) << V;
}

TEST(VectorizerTest, Pattern2RepmatBroadcast) {
  // A(i,j) = B(i,j)+C(i)  ->  repmat(C(1:m),1,size(1:n,2)) (paper row 2).
  std::string V = vectOk("m = 4; n = 6;\n"
                         "B = rand(m,n); C = rand(m,1); A = zeros(m,n);\n"
                         "%! B(*,*) C(*,1) A(*,*)\n"
                         "for i=1:m\n for j=1:n\n"
                         "  A(i,j) = B(i,j)+C(i);\n end\nend\n");
  EXPECT_TRUE(contains(V, "repmat(C(1:m),1,size(1:n,2))")) << V;
}

TEST(VectorizerTest, Pattern3DiagonalAccess) {
  // a(i) = A(i,i)*b(i)  ->  a(1:n)=A((1:n)+size(A,1)*((1:n)-1)).*b(1:n)
  std::string V = vectOk("n = 6;\n"
                         "A = rand(n,n); b = rand(1,n); a = zeros(1,n);\n"
                         "%! A(*,*) b(1,*) a(1,*)\n"
                         "for i=1:n\n  a(i) = A(i,i)*b(i);\nend\n");
  EXPECT_TRUE(contains(V, "size(A,1)")) << V;
  EXPECT_FALSE(contains(V, "for i=")) << V;
}

TEST(VectorizerTest, GeneralMatrixProductPattern) {
  // A(i,j) = B(i,:)*C(:,j): a genuine matrix product over data extents.
  std::string V = vectOk("m = 3; n = 4; k = 5;\n"
                         "B = rand(m,k); C = rand(k,n); A = zeros(m,n);\n"
                         "%! B(*,*) C(*,*) A(*,*)\n"
                         "for i=1:m\n for j=1:n\n"
                         "  A(i,j) = B(i,:)*C(:,j);\n end\nend\n");
  EXPECT_TRUE(contains(V, "B(1:m,:)*C(:,1:n)")) << V;
}

TEST(VectorizerTest, OuterProductPattern) {
  std::string V = vectOk("m = 3; n = 4;\n"
                         "u = rand(m,1); v = rand(1,n); A = zeros(m,n);\n"
                         "%! u(*,1) v(1,*) A(*,*)\n"
                         "for i=1:m\n for j=1:n\n"
                         "  A(i,j) = u(i)*v(j);\n end\nend\n");
  EXPECT_FALSE(contains(V, "for ")) << V;
}

TEST(VectorizerTest, PatternsDisabledStaysSequential) {
  VectorizerOptions Opts;
  Opts.EnablePatterns = false;
  VectorizeStats S = statsFor(
      "n = 5;\nA = rand(n,n); b = rand(1,n); a = zeros(1,n);\n"
      "%! A(*,*) b(1,*) a(1,*)\n"
      "for i=1:n\n  a(i) = A(i,i)*b(i);\nend\n",
      Opts);
  EXPECT_EQ(S.StmtsVectorized, 0u);
}

//===----------------------------------------------------------------------===//
// Additive reductions (Sec. 3.1)
//===----------------------------------------------------------------------===//

TEST(VectorizerTest, ScalarAccumulator) {
  std::string V = vectOk("n = 9;\nx = rand(1,n);\ns = 0;\n"
                         "%! x(1,*) s(1)\n"
                         "for i=1:n\n  s = s + x(i);\nend\n");
  EXPECT_TRUE(contains(V, "sum(x(1:n),2)")) << V;
  EXPECT_FALSE(contains(V, "for i=")) << V;
}

TEST(VectorizerTest, SubtractionAccumulator) {
  std::string V = vectOk("n = 9;\nx = rand(1,n);\ns = 100;\n"
                         "%! x(1,*) s(1)\n"
                         "for i=1:n\n  s = s - x(i);\nend\n");
  EXPECT_TRUE(contains(V, "s=s-sum(x(1:n),2);")) << V;
}

TEST(VectorizerTest, InvariantAccumulandUsesTripCount) {
  // s = s + c accumulates n copies of c: Gamma's trip-count form.
  std::string V = vectOk("n = 9;\nc = 2;\ns = 1;\n"
                         "%! c(1) s(1)\n"
                         "for i=1:n\n  s = s + c;\nend\n");
  EXPECT_TRUE(contains(V, "size(1:n,2)*c")) << V;
}

TEST(VectorizerTest, DotProductReduction) {
  // s = s + x(i)*y(i) over one loop.
  std::string V = vectOk("n = 9;\nx = rand(1,n); y = rand(1,n);\ns = 0;\n"
                         "%! x(1,*) y(1,*) s(1)\n"
                         "for i=1:n\n  s = s + x(i)*y(i);\nend\n");
  EXPECT_FALSE(contains(V, "for i=")) << V;
}

TEST(VectorizerTest, MatVecReductionMenonExample1Shape) {
  // Menon & Pingali ex. 1: X(i,k) = X(i,k) - L(i,j)*X(j,k), loops k and j,
  // i loop-invariant. Both loops vectorize; j reduces through '*'.
  std::string V = vectOk(
      "p = 6; n = 8; i = 5;\n"
      "X = rand(n,p); L = rand(n,n);\n"
      "%! X(*,*) L(*,*) i(1) p(1) n(1)\n"
      "for k=1:p\n for j=1:(i-1)\n"
      "  X(i,k) = X(i,k) - L(i,j)*X(j,k);\n end\nend\n");
  EXPECT_TRUE(contains(V, "X(i,1:p)=X(i,1:p)-L(i,1:i-1)*X(1:i-1,1:p);"))
      << V;
}

TEST(VectorizerTest, MenonExample2PhiReduction) {
  // phi(k) = phi(k) + a(i,j)*x_se(i)*f(j) over loops i and j.
  std::string V = vectOk(
      "N = 7; k = 2;\n"
      "a = rand(N,N); x_se = rand(N,1); f = rand(N,1); phi = zeros(1,3);\n"
      "%! a(*,*) x_se(*,1) f(*,1) phi(1,*) N(1) k(1)\n"
      "for i=1:N\n for j=1:N\n"
      "  phi(k) = phi(k) + a(i,j)*x_se(i)*f(j);\n end\nend\n");
  EXPECT_FALSE(contains(V, "for ")) << V;
  EXPECT_TRUE(contains(V, "sum(")) << V;
}

TEST(VectorizerTest, MenonExample3QuadNestReduction) {
  // y(i) = y(i) + x(j)*A(i,k)*B(l,k)*C(l,j) over four nested loops.
  std::string V = vectOk(
      "n = 4;\n"
      "x = rand(n,1); A = rand(n,n); B = rand(n,n); C = rand(n,n);\n"
      "y = zeros(n,1);\n"
      "%! x(*,1) A(*,*) B(*,*) C(*,*) y(*,1) n(1)\n"
      "for i=1:n\n for j=1:n\n  for k=1:n\n   for l=1:n\n"
      "    y(i) = y(i) + x(j)*A(i,k)*B(l,k)*C(l,j);\n"
      "   end\n  end\n end\nend\n");
  EXPECT_FALSE(contains(V, "for ")) << V;
}

TEST(VectorizerTest, ReductionsDisabledKeepsLoop) {
  VectorizerOptions Opts;
  Opts.EnableReductions = false;
  VectorizeStats S = statsFor("n = 9;\nx = rand(1,n);\ns = 0;\n"
                              "%! x(1,*) s(1)\n"
                              "for i=1:n\n  s = s + x(i);\nend\n",
                              Opts);
  EXPECT_EQ(S.StmtsVectorized, 0u);
}

TEST(VectorizerTest, FeatureAblationOverPaperCorpus) {
  // Each mechanism the paper introduces (transposes, Sec. 2.2; the
  // pattern database, Sec. 3; additive reductions and chain
  // re-association, Sec. 3.1) switched off alone, then all four at once.
  // The totals over the paper corpus are EXPERIMENTS.md's "Feature
  // ablation" table; every output must stay semantics-preserving.
  struct Config {
    const char *Name;
    VectorizerOptions Opts;
    unsigned Vectorized, Sequential, NestsImproved, LoopsLeft;
  };
  auto Without = [](std::initializer_list<bool VectorizerOptions::*> Flags) {
    VectorizerOptions O;
    for (bool VectorizerOptions::*F : Flags)
      O.*F = false;
    return O;
  };
  const Config Configs[] = {
      {"all features", {}, 12, 0, 11, 0},
      {"-transposes", Without({&VectorizerOptions::EnableTransposes}), 10, 3,
       10, 4},
      {"-patterns", Without({&VectorizerOptions::EnablePatterns}), 8, 5, 8, 1},
      {"-reductions", Without({&VectorizerOptions::EnableReductions}), 8, 9, 7,
       0},
      {"-reassociation", Without({&VectorizerOptions::EnableReassociation}),
       12, 0, 11, 1},
      {"baseline",
       Without({&VectorizerOptions::EnableTransposes,
                &VectorizerOptions::EnablePatterns,
                &VectorizerOptions::EnableReductions,
                &VectorizerOptions::EnableReassociation}),
       3, 16, 3, 1},
  };
  for (const Config &C : Configs) {
    unsigned Vect = 0, Seq = 0, Nests = 0, LoopsLeft = 0;
    for (const mvecbench::CorpusProgram &P : mvecbench::paperCorpus()) {
      PipelineResult R = vectorizeSource(P.Source, C.Opts);
      ASSERT_TRUE(R.succeeded()) << P.Name << ": " << R.Diags.str();
      EXPECT_EQ(diffRun(P.Source, R.VectorizedSource), "")
          << P.Name << " under " << C.Name;
      Vect += R.Stats.StmtsVectorized;
      Seq += R.Stats.StmtsSequential;
      Nests += R.Stats.LoopNestsImproved;
      LoopsLeft += R.Stats.SequentialLoopsEmitted;
    }
    EXPECT_EQ(Vect, C.Vectorized) << C.Name;
    EXPECT_EQ(Seq, C.Sequential) << C.Name;
    EXPECT_EQ(Nests, C.NestsImproved) << C.Name;
    EXPECT_EQ(LoopsLeft, C.LoopsLeft) << C.Name;
  }
}

//===----------------------------------------------------------------------===//
// Codegen structure (Algorithm 1)
//===----------------------------------------------------------------------===//

TEST(VectorizerTest, TrueRecurrenceStaysSequential) {
  std::string Source = "n = 9;\nv = zeros(1,n); v(1) = 1;\n"
                       "%! v(1,*)\n"
                       "for i=2:n\n  v(i) = v(i-1)+1;\nend\n";
  VectorizeStats S = statsFor(Source);
  EXPECT_EQ(S.StmtsVectorized, 0u);
  // And the untouched program still runs identically (trivially).
  PipelineResult R = vectorizeSource(Source);
  EXPECT_EQ(diffRun(Source, R.VectorizedSource), "");
}

TEST(VectorizerTest, LoopDistributionSplitsIndependentStatements) {
  // One vectorizable statement and one recurrence: the recurrence keeps a
  // loop of its own, the other statement vectorizes (loop distribution).
  std::string Source = "n = 9;\nx = rand(1,n); y = zeros(1,n);\n"
                       "v = zeros(1,n); v(1) = 1;\n"
                       "%! x(1,*) y(1,*) v(1,*)\n"
                       "for i=2:n\n"
                       "  y(i) = 2*x(i);\n"
                       "  v(i) = v(i-1)+1;\nend\n";
  std::string V = vectOk(Source);
  EXPECT_TRUE(contains(V, "y(")) << V;
  EXPECT_TRUE(contains(V, "for i=")) << V; // the recurrence's own loop
  VectorizeStats S = statsFor(Source);
  EXPECT_EQ(S.StmtsVectorized, 1u);
  EXPECT_EQ(S.StmtsSequential, 1u);
}

TEST(VectorizerTest, DependentStatementsKeepOrder) {
  std::string V = vectOk("n = 6;\nx = zeros(1,n); y = zeros(1,n);\n"
                         "%! x(1,*) y(1,*)\n"
                         "for i=1:n\n"
                         "  x(i) = i;\n"
                         "  y(i) = x(i)*2;\nend\n");
  EXPECT_FALSE(contains(V, "for ")) << V;
  // x must be assigned before y.
  EXPECT_LT(V.find("x(1:n)="), V.find("y(1:n)=")) << V;
}

TEST(VectorizerTest, InnerLoopVectorizedWhenOuterCannot) {
  // The outer loop carries a recurrence in its own right (row i depends on
  // row i-1); the inner loop vectorizes.
  std::string V = vectOk("n = 5;\nA = rand(n,n);\n"
                         "%! A(*,*) n(1)\n"
                         "for i=2:n\n for j=1:n\n"
                         "  A(i,j) = A(i-1,j)+1;\n end\nend\n");
  EXPECT_TRUE(contains(V, "for i=")) << V;
  EXPECT_FALSE(contains(V, "for j=")) << V;
  EXPECT_TRUE(contains(V, "A(i+1,1:n)") || contains(V, "A(i,1:n)")) << V;
}

TEST(VectorizerTest, NonVectorizableLoopLeftIntact) {
  // Loops with embedded conditionals are not candidates (Sec. 4) and must
  // survive verbatim.
  std::string Source = "n = 5;\nx = zeros(1,n);\n"
                       "%! x(1,*)\n"
                       "for i=1:n\n"
                       "  if i > 2\n    x(i) = 1;\n  end\nend\n";
  PipelineResult R = vectorizeSource(Source);
  EXPECT_TRUE(R.succeeded());
  EXPECT_EQ(R.Stats.StmtsVectorized + 0u, 0u);
  EXPECT_TRUE(contains(R.VectorizedSource, "if ")) << R.VectorizedSource;
  EXPECT_EQ(diffRun(Source, R.VectorizedSource), "");
}

TEST(VectorizerTest, InnerNestInsideIneligibleOuterStillVectorizes) {
  std::string V = vectOk("n = 4;\nA = zeros(n,n); t = 0;\n"
                         "%! A(*,*) t(1) n(1)\n"
                         "for i=1:n\n"
                         "  disp(i);\n"
                         "  for j=1:n\n    A(i,j) = i+j;\n  end\nend\n");
  // The outer loop (contains disp) stays; the inner vectorizes.
  EXPECT_TRUE(contains(V, "for i=")) << V;
  EXPECT_FALSE(contains(V, "for j=")) << V;
}

//===----------------------------------------------------------------------===//
// Paper Fig. 3: histogram equalization
//===----------------------------------------------------------------------===//

TEST(VectorizerTest, Fig3HistogramEqualization) {
  std::string Source =
      "im = mod(reshape(0:11, 3, 4), 8);\n"
      "im2 = zeros(3,4);\n"
      "%! im(*,*) im2(*,*) heq(1,*) h(1,*)\n"
      "h = hist(im(:),[0:255]);\n"
      "heq = 255*cumsum(h(:))/sum(h(:));\n"
      "for i=1:size(im,1)\n"
      " for j=1:size(im,2)\n"
      "  im2(i,j) = heq(im(i,j)+1);\n"
      " end\n"
      "end\n";
  std::string V = vectOk(Source);
  EXPECT_FALSE(contains(V, "for ")) << V;
  EXPECT_TRUE(contains(
      V, "im2(1:size(im,1),1:size(im,2))=heq(im(1:size(im,1),1:size(im,2))"
         "+1)"))
      << V;
}

//===----------------------------------------------------------------------===//
// Paper Fig. 4: the compound example
//===----------------------------------------------------------------------===//

TEST(VectorizerTest, Fig4CompoundExample) {
  // Scaled-down sizes (the benchmark uses the paper's 1500x1501); same
  // structure: diagonal accesses, a dot product, a matrix product, a
  // transposed read and a repmat broadcast.
  std::string Source =
      "A = rand(40,41); B = rand(40,41); C = rand(40,41); D = rand(41,41);\n"
      "a = rand(1,100);\n"
      "%! A(*,*) B(*,*) C(*,*) D(*,*) a(1,*) ind(1,*)\n"
      "ind = 1:20;\n"
      "for i=2:2:40\n"
      " B(i,1) = D(i,i)*A(i,i)+C(i,:)*D(:,i);\n"
      " for j=3:2:41\n"
      "  A(i,j) = B(i,ind)*C(ind,j)+D(j,i)'-a(2*i-1);\n"
      " end\n"
      "end\n";
  std::string V = vectOk(Source);
  EXPECT_FALSE(contains(V, "for ")) << V;
  // Normalized index forms (Fig. 4's 2*(1:750) shape).
  EXPECT_TRUE(contains(V, "2*(1:20)")) << V;
  // The diagonal accesses became linear indexing.
  EXPECT_TRUE(contains(V, "size(D,1)")) << V;
  // The broadcast became repmat.
  EXPECT_TRUE(contains(V, "repmat(")) << V;
}

//===----------------------------------------------------------------------===//
// Feature ablations
//===----------------------------------------------------------------------===//

TEST(VectorizerTest, ReassociationAblationLeavesSequentialLoops) {
  // Without chain re-association the quadruply nested reduction can only
  // vectorize its innermost loop; several sequential loops remain (with
  // re-association the whole nest collapses — see
  // MenonExample3QuadNestReduction).
  VectorizerOptions Opts;
  Opts.EnableReassociation = false;
  std::string Source =
      "n = 4;\n"
      "x = rand(n,1); A = rand(n,n); B = rand(n,n); C = rand(n,n);\n"
      "y = zeros(n,1);\n"
      "%! x(*,1) A(*,*) B(*,*) C(*,*) y(*,1) n(1)\n"
      "for i=1:n\n for j=1:n\n  for k=1:n\n   for l=1:n\n"
      "    y(i) = y(i) + x(j)*A(i,k)*B(l,k)*C(l,j);\n"
      "   end\n  end\n end\nend\n";
  std::string V = vectOk(Source, Opts);
  EXPECT_TRUE(contains(V, "for ")) << V;
}

TEST(VectorizerTest, StatsAccounting) {
  VectorizeStats S = statsFor("n = 6;\nx = zeros(1,n);\n%! x(1,*)\n"
                              "for i=1:n\n  x(i) = i;\nend\n");
  EXPECT_EQ(S.LoopNestsConsidered, 1u);
  EXPECT_EQ(S.LoopNestsImproved, 1u);
  EXPECT_EQ(S.StmtsVectorized, 1u);
  EXPECT_EQ(S.StmtsSequential, 0u);
}

} // namespace

namespace {

//===----------------------------------------------------------------------===//
// Extensions: call signatures and transpose distribution
//===----------------------------------------------------------------------===//

TEST(VectorizerTest, TwoArgElementwiseCallVectorizes) {
  // mod/min/max carry call-dimensionality signatures (paper Sec. 7).
  std::string V = vectOk("n = 6;\nx = rand(1,n); y = rand(1,n)+1;\n"
                         "z = zeros(1,n); w = zeros(1,n);\n"
                         "for i=1:n\n"
                         "  z(i) = mod(x(i), y(i));\n"
                         "  w(i) = max(x(i), 0.5);\n"
                         "end\n");
  EXPECT_TRUE(contains(V, "mod(x(1:n),y(1:n))")) << V;
  EXPECT_TRUE(contains(V, "max(x(1:n),0.5)")) << V;
  EXPECT_FALSE(contains(V, "for ")) << V;
}

TEST(VectorizerTest, MinOfMismatchedShapesStaysSequential) {
  VectorizeStats S = statsFor("n = 6;\nx = rand(1,n); c = rand(n,1);\n"
                              "z = zeros(1,n);\n"
                              "%! x(1,*) c(*,1) z(1,*) n(1)\n"
                              "for i=1:n\n  z(i) = min(x(i), c);\nend\n");
  EXPECT_EQ(S.StmtsVectorized, 0u);
}

TEST(VectorizerTest, DistributeTransposesOption) {
  // With the post-pass on, the Sec. 2.2 example prints in the paper's
  // "simpler equivalent form": B(1:n,1:m)'+C(1:m,1:n).
  VectorizerOptions Opts;
  Opts.DistributeTransposes = true;
  std::string V = vectOk("m = 4; n = 6;\n"
                         "B = rand(n,m); C = rand(m,n); A = zeros(m,n);\n"
                         "for i=1:m\n for j=1:n\n"
                         "  A(i,j) = B(j,i)+C(i,j);\n end\nend\n",
                         Opts);
  EXPECT_TRUE(contains(V, "A(1:m,1:n)=B(1:n,1:m)'+C(1:m,1:n);")) << V;
}

TEST(VectorizerTest, DistributeTransposesPreservesReductions) {
  VectorizerOptions Opts;
  Opts.DistributeTransposes = true;
  std::string V = vectOk(
      "N = 7; k = 2;\n"
      "a = rand(N,N); x_se = rand(N,1); f = rand(N,1); phi = zeros(1,3);\n"
      "%! a(*,*) x_se(*,1) f(*,1) phi(1,*) N(1) k(1)\n"
      "for i=1:N\n for j=1:N\n"
      "  phi(k) = phi(k) + a(i,j)*x_se(i)*f(j);\n end\nend\n",
      Opts);
  EXPECT_FALSE(contains(V, "for ")) << V;
}

} // namespace

namespace {

//===----------------------------------------------------------------------===//
// Additional loop forms
//===----------------------------------------------------------------------===//

TEST(VectorizerTest, NegativeStrideLoop) {
  // i=n:-1:1 cannot be normalized against a symbolic n; the range is
  // substituted directly.
  std::string V = vectOk("n = 7;\nx = rand(1,n); z = zeros(1,n);\n"
                         "%! x(1,*) z(1,*) n(1)\n"
                         "for i=n:-1:1\n  z(i) = x(i)+1;\nend\n");
  EXPECT_TRUE(contains(V, "z(n:-1:1)=x(n:-1:1)+1;")) << V;
}

TEST(VectorizerTest, EmptyRangeLoopVectorizesToNoOp) {
  // for i=1:0 never executes; the vectorized statement assigns through
  // empty ranges, which is also a no-op.
  std::string V = vectOk("n = 0;\nx = rand(1,5); z = zeros(1,5);\n"
                         "%! x(1,*) z(1,*) n(1)\n"
                         "for i=1:n\n  z(i) = x(i);\nend\n");
  EXPECT_FALSE(contains(V, "for ")) << V;
}

TEST(VectorizerTest, SymbolicBoundsFromSizeCalls) {
  std::string V = vectOk("A = rand(5,7);\nB = zeros(5,7);\n"
                         "%! A(*,*) B(*,*)\n"
                         "for i=1:size(A,1)\n for j=1:size(A,2)\n"
                         "  B(i,j) = 2*A(i,j);\n end\nend\n");
  EXPECT_TRUE(
      contains(V, "B(1:size(A,1),1:size(A,2))=2*A(1:size(A,1),1:size(A,2));"))
      << V;
}

TEST(VectorizerTest, RowSliceAccumulation) {
  // r = r + A(i,:) reduces a whole-row slice: sum along dimension 1.
  std::string V = vectOk("n = 6; m = 4;\nA = rand(m,n);\nr = zeros(1,n);\n"
                         "%! A(*,*) r(1,*) n(1) m(1)\n"
                         "for i=1:m\n  r = r + A(i,:);\nend\n");
  EXPECT_TRUE(contains(V, "r=r+sum(A(1:m,:),1);")) << V;
}

TEST(VectorizerTest, ColumnSliceAccumulation) {
  std::string V = vectOk("n = 6; m = 4;\nA = rand(m,n);\nc = zeros(m,1);\n"
                         "%! A(*,*) c(*,1) n(1) m(1)\n"
                         "for j=1:n\n  c = c + A(:,j);\nend\n");
  EXPECT_TRUE(contains(V, "c=c+sum(A(:,1:n),2);")) << V;
}

TEST(VectorizerTest, StridedDiagonal) {
  // Fig. 4's hard sub-case in isolation: strided loop + diagonal access.
  std::string V = vectOk("B = zeros(20,1); D = rand(20,20);\n"
                         "%! B(*,*) D(*,*)\n"
                         "for i=2:2:20\n  B(i,1) = D(i,i);\nend\n");
  EXPECT_TRUE(contains(V, "2*(1:10)")) << V;
  EXPECT_TRUE(contains(V, "size(D,1)")) << V;
}

TEST(VectorizerTest, ThreeDeepPointwiseNestOnMatrixSubset) {
  // Three loops but only two-dimensional data: the innermost pair
  // vectorizes, the outer runs sequentially (dim checking fails at level
  // 1 because the statement has no third range slot).
  std::string Source = "n = 3;\nT = zeros(n,n);\nA = rand(n,n);\n"
                       "%! T(*,*) A(*,*) n(1)\n"
                       "for r=1:n\n for i=1:n\n  for j=1:n\n"
                       "   T(i,j) = A(i,j)+r;\n  end\n end\nend\n";
  std::string V = vectOk(Source);
  EXPECT_TRUE(contains(V, "for r=")) << V;
  EXPECT_FALSE(contains(V, "for i=")) << V;
}

} // namespace

namespace {

TEST(VectorizerTest, FivePointStencilVectorizes) {
  std::string V = vectOk(
      "n = 8; m = 7;\nA = rand(m,n);\nT = zeros(m,n);\n"
      "%! A(*,*) T(*,*) m(1) n(1)\n"
      "for i=2:m-1\n for j=2:n-1\n"
      "  T(i,j) = 0.25*(A(i-1,j)+A(i+1,j)+A(i,j-1)+A(i,j+1));\n"
      " end\nend\n");
  EXPECT_FALSE(contains(V, "for ")) << V;
  // Shifted slices appear after normalization (i -> i+1).
  EXPECT_TRUE(contains(V, "A(")) << V;
}

TEST(VectorizerTest, TwoStatementCycleSerializesTogether) {
  // x and v form a genuine two-statement recurrence: x(i) uses v(i-1) and
  // v(i) uses x(i); neither can be hoisted past the other, so Algorithm 1
  // keeps both in one sequential loop.
  std::string Source =
      "n = 7;\nx = zeros(1,n); v = zeros(1,n); v(1) = 1; w = rand(1,n);\n"
      "%! x(1,*) v(1,*) w(1,*) n(1)\n"
      "for i=2:n\n"
      "  x(i) = v(i-1)+1;\n"
      "  v(i) = x(i)*w(i);\n"
      "end\n";
  PipelineResult R = vectorizeSource(Source);
  ASSERT_TRUE(R.succeeded());
  EXPECT_EQ(R.Stats.StmtsVectorized, 0u);
  EXPECT_EQ(diffRun(Source, R.VectorizedSource), "");
}

TEST(VectorizerTest, CycleWithIndependentStatementDistributes) {
  // A third, independent statement escapes the cycle's loop.
  std::string Source =
      "n = 7;\nx = zeros(1,n); v = zeros(1,n); v(1) = 1;\n"
      "w = rand(1,n); z = zeros(1,n);\n"
      "%! x(1,*) v(1,*) w(1,*) z(1,*) n(1)\n"
      "for i=2:n\n"
      "  x(i) = v(i-1)+1;\n"
      "  v(i) = x(i)*w(i);\n"
      "  z(i) = 3*w(i);\n"
      "end\n";
  std::string V = vectOk(Source);
  EXPECT_TRUE(contains(V, "z(")) << V;
  EXPECT_TRUE(contains(V, "for i=")) << V;
  VectorizeStats S = statsFor(Source);
  EXPECT_EQ(S.StmtsVectorized, 1u);
  EXPECT_EQ(S.StmtsSequential, 2u);
}

} // namespace

namespace {

//===----------------------------------------------------------------------===//
// Semantic edge cases
//===----------------------------------------------------------------------===//

TEST(VectorizerTest, InPlaceElementUpdateVectorizes) {
  // x(i) = x(i)*2 has only a same-instance (loop-independent) self
  // relation: vectorizable.
  std::string V = vectOk("n = 6;\nx = rand(1,n);\n%! x(1,*) n(1)\n"
                         "for i=1:n\n  x(i) = x(i)*2;\nend\n");
  EXPECT_TRUE(contains(V, "x(1:n)=x(1:n)*2;") ||
              contains(V, "x(1:n)=x(1:n).*2;"))
      << V;
}

TEST(VectorizerTest, InvariantSubscriptAccumulator) {
  // The whole slice x(ind) accumulates a loop-invariant increment n
  // times: Gamma's trip-count form applies to a set-valued accumulator.
  std::string V = vectOk("n = 5;\nx = rand(1,9);\nind = 2:4;\nc = 0.25;\n"
                         "%! x(1,*) ind(1,*) c(1) n(1)\n"
                         "for i=1:n\n  x(ind) = x(ind) + c;\nend\n");
  EXPECT_TRUE(contains(V, "x(ind)=x(ind)+size(1:n,2)*c;")) << V;
}

TEST(VectorizerTest, InvariantSubscriptAccumulatesReducedTerm) {
  std::string V = vectOk("n = 5;\nx = rand(1,9);\nind = 2:4;\n"
                         "y = rand(1,n);\n"
                         "%! x(1,*) ind(1,*) y(1,*) n(1)\n"
                         "for i=1:n\n  x(ind) = x(ind) + y(i);\nend\n");
  EXPECT_TRUE(contains(V, "x(ind)=x(ind)+sum(y(1:n),2);")) << V;
}

TEST(VectorizerTest, MultiplicativeAccumulatorStaysSequential) {
  // s = s * x(i) is not an *additive* reduction; the paper's machinery
  // (and ours) leaves it sequential.
  std::string Source = "n = 5;\nx = rand(1,n)+0.5;\ns = 1;\n"
                       "%! x(1,*) s(1) n(1)\n"
                       "for i=1:n\n  s = s * x(i);\nend\n";
  VectorizeStats S = statsFor(Source);
  EXPECT_EQ(S.StmtsVectorized, 0u);
  PipelineResult R = vectorizeSource(Source);
  EXPECT_EQ(diffRun(Source, R.VectorizedSource), "");
}

TEST(VectorizerTest, HoistedInvariantAssignment) {
  // A loop-invariant elementwise statement hoists out of the loop (same
  // final state for nonempty ranges, like the paper's model).
  std::string V = vectOk("n = 5;\nx = rand(1,8);\ny = zeros(1,8);\n"
                         "%! x(1,*) y(1,*) n(1)\n"
                         "for i=1:n\n  y = x*2;\nend\n");
  EXPECT_FALSE(contains(V, "for ")) << V;
}

TEST(VectorizerTest, ReadOfOtherRowsBlocksOuterLoopOnly) {
  // A(i,j) reads A(i-1,j): carried by i, independent in j.
  std::string Source = "n = 5;\nA = rand(n,n);\n%! A(*,*) n(1)\n"
                       "for i=2:n\n for j=1:n\n"
                       "  A(i,j) = A(i-1,j)*0.5+1;\n end\nend\n";
  std::string V = vectOk(Source);
  EXPECT_TRUE(contains(V, "for i=")) << V;
  EXPECT_FALSE(contains(V, "for j=")) << V;
}

} // namespace

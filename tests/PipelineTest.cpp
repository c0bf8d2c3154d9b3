//===- PipelineTest.cpp - Driver API tests ----------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "gtest/gtest.h"

using namespace mvec;

namespace {

TEST(PipelineTest, ParseErrorSurfaces) {
  PipelineResult R = vectorizeSource("x = ;\n");
  EXPECT_FALSE(R.succeeded());
  EXPECT_TRUE(R.Diags.hasErrors());
}

TEST(PipelineTest, EmptyProgram) {
  PipelineResult R = vectorizeSource("");
  EXPECT_TRUE(R.succeeded());
  EXPECT_EQ(R.VectorizedSource, "");
  EXPECT_EQ(R.Stats.LoopNestsConsidered, 0u);
}

TEST(PipelineTest, ProgramWithoutLoopsPassesThrough) {
  PipelineResult R = vectorizeSource("x = 1+2;\ny = x*3;\n");
  EXPECT_TRUE(R.succeeded());
  EXPECT_EQ(R.VectorizedSource, "x=1+2;\ny=x*3;\n");
}

TEST(PipelineTest, RemarksExplainDecisions) {
  VectorizerOptions Opts;
  Opts.EmitRemarks = true;
  PipelineResult R = vectorizeSource("n = 4;\nx = zeros(1,n);\n%! x(1,*)\n"
                                     "for i=1:n\n  x(i) = i;\nend\n",
                                     Opts);
  ASSERT_TRUE(R.succeeded());
  bool SawVectorizedRemark = false;
  for (const Diagnostic &D : R.Diags.diagnostics())
    if (D.Severity == DiagSeverity::Remark &&
        D.Message.find("vectorized statement") != std::string::npos)
      SawVectorizedRemark = true;
  EXPECT_TRUE(SawVectorizedRemark) << R.Diags.str();
}

TEST(PipelineTest, RemarksExplainFailures) {
  VectorizerOptions Opts;
  Opts.EmitRemarks = true;
  PipelineResult R = vectorizeSource(
      "n = 4;\nv = zeros(1,n);\n%! v(1,*)\n"
      "for i=2:n\n  v(i) = v(i-1);\nend\n",
      Opts);
  ASSERT_TRUE(R.succeeded());
  bool SawReason = false;
  for (const Diagnostic &D : R.Diags.diagnostics())
    if (D.Severity == DiagSeverity::Remark &&
        D.Message.find("recurrence") != std::string::npos)
      SawReason = true;
  EXPECT_TRUE(SawReason) << R.Diags.str();
}

TEST(PipelineTest, IneligibleNestCounted) {
  PipelineResult R = vectorizeSource("for i=1:3\n  disp(i);\nend\n");
  EXPECT_TRUE(R.succeeded());
  EXPECT_EQ(R.Stats.IneligibleNests, 1u);
  EXPECT_EQ(R.Stats.LoopNestsImproved, 0u);
}

TEST(PipelineTest, CustomDatabaseIsUsed) {
  // With an empty database, pattern-dependent loops stay sequential.
  PatternDatabase Empty;
  std::string Source = "n = 4;\nA = rand(n,n); b = rand(1,n); a = "
                       "zeros(1,n);\n%! A(*,*) b(1,*) a(1,*) n(1)\n"
                       "for i=1:n\n  a(i) = A(i,i)*b(i);\nend\n";
  PipelineResult R = vectorizeSource(Source, {}, &Empty);
  EXPECT_TRUE(R.succeeded());
  EXPECT_EQ(R.Stats.StmtsVectorized, 0u);
}

TEST(PipelineTest, DiffRunDetectsDivergence) {
  EXPECT_EQ(diffRun("x = 1;", "x = 1;"), "");
  EXPECT_NE(diffRun("x = 1;", "x = 2;"), "");
  EXPECT_NE(diffRun("x = 1;", "y = 1;"), "");
  EXPECT_NE(diffRun("x = 1;", "x = 1; y = 2;"), "");
}

TEST(PipelineTest, DiffRunIgnoresLoopIndexVariables) {
  // After vectorization the index variable no longer exists; that must
  // not count as divergence.
  EXPECT_EQ(diffRun("for i=1:3\n x(i)=i;\nend\n", "x(1:3)=1:3;"), "");
}

TEST(PipelineTest, DiffRunComparesPrintedOutput) {
  EXPECT_NE(diffRun("disp(1);", "disp(2);"), "");
  EXPECT_EQ(diffRun("disp(7);", "disp(7);"), "");
}

TEST(PipelineTest, DiffRunReportsRuntimeErrors) {
  std::string Diff = diffRun("x = undefined_thing;", "x = 1;");
  EXPECT_NE(Diff.find("original program failed"), std::string::npos);
  Diff = diffRun("x = 1;", "x = undefined_thing;");
  EXPECT_NE(Diff.find("transformed program failed"), std::string::npos);
}

TEST(PipelineTest, VectorizeAndValidateHappyPath) {
  std::string Error;
  auto V = vectorizeAndValidate("n = 4;\nx = zeros(1,n);\n%! x(1,*)\n"
                                "for i=1:n\n  x(i) = 2*i;\nend\n",
                                Error);
  ASSERT_TRUE(V.has_value()) << Error;
  EXPECT_NE(V->find("x(1:n)=2*(1:n);"), std::string::npos) << *V;
}

TEST(PipelineTest, StatsAcrossMultipleNests) {
  PipelineResult R = vectorizeSource(
      "n = 4;\nx = zeros(1,n); y = zeros(1,n);\n%! x(1,*) y(1,*)\n"
      "for i=1:n\n  x(i) = i;\nend\n"
      "for j=1:n\n  y(j) = 2*j;\nend\n"
      "for k=1:n\n  y(k) = y(k-0)+1;\nend\n");
  EXPECT_TRUE(R.succeeded());
  EXPECT_EQ(R.Stats.LoopNestsConsidered, 3u);
  EXPECT_GE(R.Stats.StmtsVectorized, 2u);
}

TEST(PipelineTest, LoopInsideIfIsStillFound) {
  PipelineResult R = vectorizeSource(
      "n = 4;\nflag = 1;\nx = zeros(1,n);\n%! x(1,*) flag(1)\n"
      "if flag\n  for i=1:n\n    x(i) = i;\n  end\nend\n");
  ASSERT_TRUE(R.succeeded());
  EXPECT_EQ(R.Stats.StmtsVectorized, 1u);
  EXPECT_NE(R.VectorizedSource.find("x(1:n)=1:n;"), std::string::npos)
      << R.VectorizedSource;
  EXPECT_EQ(diffRun("n = 4;\nflag = 1;\nx = zeros(1,n);\n"
                    "if flag\n  for i=1:n\n    x(i) = i;\n  end\nend\n",
                    R.VectorizedSource),
            "");
}

TEST(PipelineTest, AnnotationsBeatInference) {
  // x is declared a column even though the straight-line code would infer
  // a row; the vectorizer must trust the annotation (and the transform
  // then fails validation only if the annotation were wrong — here we
  // just check the annotation is respected by looking for the transpose).
  PipelineResult R = vectorizeSource(
      "n = 4;\nx = rand(n,1);\ny = rand(1,n);\nz = zeros(n,1);\n"
      "%! x(*,1) y(1,*) z(*,1) n(1)\n"
      "for i=1:n\n  z(i) = x(i)+y(i);\nend\n");
  ASSERT_TRUE(R.succeeded());
  EXPECT_NE(R.VectorizedSource.find("'"), std::string::npos)
      << R.VectorizedSource;
}

TEST(OutputsMatchTest, IdenticalTranscriptsShortCircuit) {
  EXPECT_TRUE(detail::outputsMatch("", "", 0.0));
  std::string T = "x = 1.5\nans = 2\n";
  EXPECT_TRUE(detail::outputsMatch(T, T, 0.0));
}

TEST(OutputsMatchTest, WhitespaceIsInsignificantBetweenTokens) {
  EXPECT_TRUE(detail::outputsMatch("a 1.0 b", "a\t1.0\n b ", 0.0));
  // Missing or extra tokens still differ.
  EXPECT_FALSE(detail::outputsMatch("a 1.0", "a 1.0 b", 0.0));
  EXPECT_FALSE(detail::outputsMatch("a 1.0 b", "a 1.0", 0.0));
}

TEST(OutputsMatchTest, NumbersCompareWithRelativeTolerance) {
  // |1.0000001 - 1.0| <= 1e-6 * max(1, |a|, |b|)
  EXPECT_TRUE(detail::outputsMatch("x 1.0000001", "x 1.0", 1e-6));
  EXPECT_FALSE(detail::outputsMatch("x 1.0000001", "x 1.0", 1e-9));
  // The scale floor is 1, so tiny numbers compare near-absolutely.
  EXPECT_TRUE(detail::outputsMatch("1e-12", "0", 1e-9));
  // Large magnitudes scale the tolerance up.
  EXPECT_TRUE(detail::outputsMatch("1000000.001", "1000000.0", 1e-6));
  EXPECT_FALSE(detail::outputsMatch("1000001", "1000000", 1e-9));
  // Differing spellings of the same value match exactly.
  EXPECT_TRUE(detail::outputsMatch("1.50", "1.5", 0.0));
}

TEST(OutputsMatchTest, NaNMatchesNaNOnly) {
  // NaN != NaN numerically, but two runs that both print NaN agree.
  EXPECT_TRUE(detail::outputsMatch("x NaN", "x NaN", 1e-9));
  EXPECT_TRUE(detail::outputsMatch("nan", "NaN", 1e-9));
  EXPECT_FALSE(detail::outputsMatch("NaN", "0", 1e-9));
  EXPECT_FALSE(detail::outputsMatch("0", "NaN", 1e-9));
  EXPECT_FALSE(detail::outputsMatch("Inf", "NaN", 1e-9));
}

TEST(OutputsMatchTest, InfinitiesAndNonNumericTokens) {
  EXPECT_TRUE(detail::outputsMatch("Inf", "Inf", 0.0));
  EXPECT_FALSE(detail::outputsMatch("Inf", "-Inf", 1e-9));
  // Non-numeric tokens must match byte for byte.
  EXPECT_FALSE(detail::outputsMatch("abc", "abd", 1e9));
  // A number never matches a word, whatever the tolerance.
  EXPECT_FALSE(detail::outputsMatch("1.0", "one", 1e9));
  // Partial parses ("1.0x") are words, not numbers.
  EXPECT_FALSE(detail::outputsMatch("1.0x", "1.0", 1e9));
}

TEST(PipelineTest, SequentialFallbackIsFaithful) {
  // A program the vectorizer cannot improve must round-trip untouched.
  std::string Source = "n = 5;\nv = zeros(1,n);\nv(1) = 1;\n%! v(1,*)\n"
                       "for i=2:n\n  v(i) = v(i-1)*1.1;\nend\n";
  PipelineResult R = vectorizeSource(Source);
  ASSERT_TRUE(R.succeeded());
  EXPECT_EQ(R.Stats.StmtsVectorized, 0u);
  EXPECT_EQ(diffRun(Source, R.VectorizedSource), "");
}

TEST(PipelineTest, AnnotationCapsFailTheWriteThatWidens) {
  // Under CheckAnnotations an in-range scalar write never changes a
  // shape; the widening write grows on the general path and trips the
  // annotated cap there.
  const std::string Widening = "%! v(1,*)\nv = zeros(1, 3);\n"
                               "for i = 1:3\n  v(1, i) = i;\nend\n"
                               "v(2, 1) = 4;\n";
  const std::string InRange = "%! v(1,*)\nv = zeros(1, 3);\n"
                              "for i = 1:3\n  v(1, i) = i;\n  v(i) = v(i) * 2;\n"
                              "end\n";
  RunLimits Limits;
  Limits.CheckAnnotations = true;
  DiffOutcome Bad = diffRunLimited(Widening, Widening, Limits);
  EXPECT_EQ(Bad.Status, DiffStatus::Error);
  EXPECT_NE(Bad.Message.find("'v' exceeds its annotated shape (2x3)"),
            std::string::npos)
      << Bad.Message;
  DiffOutcome Good = diffRunLimited(InRange, InRange, Limits);
  EXPECT_TRUE(Good.agreed()) << Good.Message;
}

} // namespace

//===- CostModelTest.cpp - Profitability model tests ------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the cost-profile serialization contract (round-trip, checksum,
/// and the corrupt/truncated/version-skew fallbacks that must never
/// crash), the cache-key fingerprinting, and the end-to-end
/// vectorize-vs-keep-loop decisions the model makes through the pipeline.
///
//===----------------------------------------------------------------------===//

#include "cost/CostModel.h"
#include "driver/Pipeline.h"
#include "service/VectorizationService.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace mvec;

namespace {

/// Writes \p Contents to a unique temp file and returns the path; removed
/// in the destructor.
class TempFile {
public:
  explicit TempFile(const std::string &Contents) {
    static int Counter = 0;
    Path = ::testing::TempDir() + "costmodel_test_" +
           std::to_string(++Counter) + ".json";
    std::ofstream Out(Path);
    Out << Contents;
  }
  ~TempFile() { std::remove(Path.c_str()); }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

cost::CostProfile sampleProfile() {
  cost::CostProfile P = cost::defaultCostProfile();
  P.SimdLevel = "avx2";
  P.Calibrated = true;
  P.LoopIterNs = 12.5;
  P.ScalarOpNs = 33.25;
  P.MatMulNs = 0.125;
  return P;
}

//===----------------------------------------------------------------------===//
// Serialization round-trip
//===----------------------------------------------------------------------===//

TEST(CostProfile, RoundTrip) {
  cost::CostProfile P = sampleProfile();
  std::string Json = cost::serializeCostProfile(P);

  cost::CostProfile Back;
  std::string Error;
  ASSERT_TRUE(cost::parseCostProfile(Json, Back, Error)) << Error;
  EXPECT_EQ(Back.Version, P.Version);
  EXPECT_EQ(Back.SimdLevel, "avx2");
  EXPECT_TRUE(Back.Calibrated);
  EXPECT_DOUBLE_EQ(Back.LoopIterNs, 12.5);
  EXPECT_DOUBLE_EQ(Back.ScalarOpNs, 33.25);
  EXPECT_DOUBLE_EQ(Back.MatMulNs, 0.125);
  EXPECT_DOUBLE_EQ(Back.AssumedTripCount, P.AssumedTripCount);
  EXPECT_EQ(Back.checksum(), P.checksum());
}

TEST(CostProfile, DefaultIsUncalibrated) {
  cost::CostProfile P = cost::defaultCostProfile();
  EXPECT_FALSE(P.Calibrated);
  EXPECT_EQ(P.SimdLevel, "default");
  // The default must itself round-trip (calibrate_costs starts from it).
  cost::CostProfile Back;
  std::string Error;
  EXPECT_TRUE(
      cost::parseCostProfile(cost::serializeCostProfile(P), Back, Error))
      << Error;
}

//===----------------------------------------------------------------------===//
// Malformed-profile fallbacks: reject, diagnose, never crash
//===----------------------------------------------------------------------===//

TEST(CostProfile, RejectsMalformedJson) {
  cost::CostProfile Out;
  std::string Error;
  EXPECT_FALSE(cost::parseCostProfile("not json at all", Out, Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(cost::parseCostProfile("", Out, Error));
  EXPECT_FALSE(cost::parseCostProfile("{}", Out, Error));
}

TEST(CostProfile, RejectsTruncated) {
  std::string Json = cost::serializeCostProfile(sampleProfile());
  cost::CostProfile Out;
  std::string Error;
  // Every prefix must be rejected cleanly, whatever field the cut lands in.
  for (size_t Len = 0; Len < Json.size(); Len += 7)
    EXPECT_FALSE(cost::parseCostProfile(Json.substr(0, Len), Out, Error))
        << "prefix of length " << Len << " unexpectedly parsed";
}

TEST(CostProfile, RejectsVersionSkew) {
  std::string Json = cost::serializeCostProfile(sampleProfile());
  size_t At = Json.find("\"mvec_cost_profile\": 1");
  ASSERT_NE(At, std::string::npos);
  Json.replace(At, 22, "\"mvec_cost_profile\": 2");
  cost::CostProfile Out;
  std::string Error;
  EXPECT_FALSE(cost::parseCostProfile(Json, Out, Error));
  EXPECT_NE(Error.find("version"), std::string::npos) << Error;
}

TEST(CostProfile, RejectsChecksumMismatch) {
  cost::CostProfile P = sampleProfile();
  std::string Json = cost::serializeCostProfile(P);
  // Tamper with a coefficient without re-checksumming.
  size_t At = Json.find("33.25");
  ASSERT_NE(At, std::string::npos);
  Json.replace(At, 5, "44.25");
  cost::CostProfile Out;
  std::string Error;
  EXPECT_FALSE(cost::parseCostProfile(Json, Out, Error));
  EXPECT_NE(Error.find("checksum"), std::string::npos) << Error;
}

TEST(CostProfile, RejectsNonPositiveCoefficients) {
  cost::CostProfile P = sampleProfile();
  P.ElementwiseNs = 0.0;
  cost::CostProfile Out;
  std::string Error;
  EXPECT_FALSE(
      cost::parseCostProfile(cost::serializeCostProfile(P), Out, Error));
  P = sampleProfile();
  P.AssumedTripCount = 0.5; // must be >= 1
  EXPECT_FALSE(
      cost::parseCostProfile(cost::serializeCostProfile(P), Out, Error));
}

TEST(CostProfile, LoadFallsBackOnMissingFile) {
  std::string Diag;
  cost::CostProfile P = cost::loadCostProfileOrDefault(
      "/nonexistent/path/costs.mvec.json", Diag);
  EXPECT_FALSE(Diag.empty());
  EXPECT_FALSE(P.Calibrated); // the built-in default
}

TEST(CostProfile, LoadEmptyPathIsSilentDefault) {
  std::string Diag;
  cost::CostProfile P = cost::loadCostProfileOrDefault("", Diag);
  EXPECT_TRUE(Diag.empty());
  EXPECT_FALSE(P.Calibrated);
}

TEST(CostProfile, LoadFallsBackOnCorruptFile) {
  TempFile F("{\"mvec_cost_profile\": 1, \"garbage\"");
  std::string Diag;
  cost::CostProfile P = cost::loadCostProfileOrDefault(F.path(), Diag);
  EXPECT_FALSE(Diag.empty());
  EXPECT_NE(Diag.find(F.path()), std::string::npos)
      << "diagnostic should name the file: " << Diag;
  EXPECT_FALSE(P.Calibrated);
}

TEST(CostProfile, LoadAcceptsGoodFile) {
  TempFile F(cost::serializeCostProfile(sampleProfile()));
  std::string Diag;
  cost::CostProfile P = cost::loadCostProfileOrDefault(F.path(), Diag);
  EXPECT_TRUE(Diag.empty()) << Diag;
  EXPECT_TRUE(P.Calibrated);
  EXPECT_EQ(P.SimdLevel, "avx2");
}

TEST(CostProfile, LoadsFreshCalibration) {
  // The ctest fixture cost.calibrate-quick writes a profile with
  // calibrate_costs --quick and points this at it, closing the loop
  // between the calibration tool's output and the loader.
  const char *Path = std::getenv("MVEC_COST_PROFILE");
  if (!Path || !*Path)
    GTEST_SKIP() << "MVEC_COST_PROFILE not set";
  std::string Diag;
  cost::CostProfile P = cost::loadCostProfileOrDefault(Path, Diag);
  EXPECT_TRUE(Diag.empty()) << Diag;
  EXPECT_TRUE(P.Calibrated);
  EXPECT_NE(P.SimdLevel, "default") << "must record the measured level";
  cost::CostModel M{P};
  EXPECT_NE(M.fingerprint(), cost::builtinCostModel().fingerprint());

  // The freshly measured profile must drive the pipeline end to end.
  VectorizerOptions Opts;
  Opts.Cost = &M;
  PipelineResult R = vectorizeSource("%! a(1,*) b(1,*)\n"
                                     "a = zeros(1,50000);\n"
                                     "b = rand(1,50000);\n"
                                     "for i = 1:50000\n"
                                     "  a(i) = b(i)*2 + 1;\n"
                                     "end\n",
                                     Opts);
  ASSERT_TRUE(R.succeeded());
  EXPECT_GT(R.Stats.StmtsVectorized, 0u);
}

//===----------------------------------------------------------------------===//
// Fingerprints: cache keys must separate differently calibrated runs
//===----------------------------------------------------------------------===//

TEST(CostModel, FingerprintSeparatesProfiles) {
  cost::CostModel Default{cost::defaultCostProfile()};
  cost::CostModel Sample{sampleProfile()};
  EXPECT_NE(Default.fingerprint(), Sample.fingerprint());

  // Same coefficients calibrated at a different SIMD level must also key
  // differently — kernel speeds differ even if the measurement rounded
  // to the same numbers.
  cost::CostProfile P = sampleProfile();
  P.SimdLevel = "sse2";
  cost::CostModel Sse{P};
  EXPECT_NE(Sse.fingerprint(), Sample.fingerprint());
}

TEST(CostModel, OptionsFingerprintChangesWithModel) {
  VectorizerOptions Off;
  uint64_t FpOff = optionsFingerprint(Off);

  VectorizerOptions On = Off;
  On.Cost = &cost::builtinCostModel();
  uint64_t FpOn = optionsFingerprint(On);
  EXPECT_NE(FpOff, FpOn);

  cost::CostModel Calibrated{sampleProfile()};
  On.Cost = &Calibrated;
  EXPECT_NE(optionsFingerprint(On), FpOn);
  EXPECT_NE(optionsFingerprint(On), FpOff);
}

//===----------------------------------------------------------------------===//
// Estimation primitives
//===----------------------------------------------------------------------===//

TEST(CostModel, LoopAndVectorCosts) {
  cost::CostModel M{cost::defaultCostProfile()};
  const cost::CostProfile &P = M.profile();

  EXPECT_DOUBLE_EQ(M.loopCost(10, 3),
                   10 * (P.LoopIterNs + 3 * P.ScalarOpNs));

  cost::KernelCounts K;
  K.Elementwise = 2;
  K.MatMul = 1;
  EXPECT_DOUBLE_EQ(M.kernelCost(K, 100),
                   100 * (2 * P.ElementwiseNs + P.MatMulNs));
  EXPECT_DOUBLE_EQ(M.vectorCost(K, 100, 5),
                   5 * (P.VectorStmtNs + M.kernelCost(K, 100) + P.LoopIterNs));
}

//===----------------------------------------------------------------------===//
// End-to-end decisions through the pipeline
//===----------------------------------------------------------------------===//

TEST(CostPipeline, TinyTripKeepsLoop) {
  // 2-iteration inner loop under a hot shell: vector dispatch overhead
  // dwarfs the work, so the model must keep the scalar loop. The decay
  // factor blocks the reduction folder from collapsing the shell.
  const char *Source = "%! w(1,*) acc(1,*)\n"
                       "w = rand(1,2);\n"
                       "acc = zeros(1,2);\n"
                       "for r = 1:100000\n"
                       "  for j = 1:2\n"
                       "    acc(j) = acc(j)*0.999 + w(j);\n"
                       "  end\n"
                       "end\n";
  PipelineResult Off = vectorizeSource(Source);
  ASSERT_TRUE(Off.succeeded());
  EXPECT_GT(Off.Stats.StmtsVectorized, 0u) << "paper behavior: vectorize";
  EXPECT_EQ(Off.Stats.StmtsCostKept, 0u);

  VectorizerOptions Opts;
  Opts.Cost = &cost::builtinCostModel();
  PipelineResult On = vectorizeSource(Source, Opts);
  ASSERT_TRUE(On.succeeded());
  EXPECT_GT(On.Stats.StmtsCostKept, 0u);
  EXPECT_GT(On.Stats.NestsKeptLoop, 0u);
  // The kept-loop output still re-renders the scalar nest.
  EXPECT_NE(On.VectorizedSource.find("acc(j)"), std::string::npos)
      << On.VectorizedSource;
}

TEST(CostPipeline, LargeTripVectorizes) {
  const char *Source = "%! a(1,*) b(1,*)\n"
                       "a = zeros(1,50000);\n"
                       "b = rand(1,50000);\n"
                       "for i = 1:50000\n"
                       "  a(i) = b(i)*2 + 1;\n"
                       "end\n";
  VectorizerOptions Opts;
  Opts.Cost = &cost::builtinCostModel();
  PipelineResult On = vectorizeSource(Source, Opts);
  ASSERT_TRUE(On.succeeded());
  EXPECT_GT(On.Stats.StmtsVectorized, 0u);
  EXPECT_EQ(On.Stats.StmtsCostKept, 0u);
  EXPECT_NE(On.VectorizedSource.find("a(1:50000)"), std::string::npos)
      << On.VectorizedSource;
}

TEST(CostPipeline, UnknownBoundsAssumeLargeAndVectorize) {
  // Symbolic bounds resist static trip-count evaluation; the model's
  // "assume large" fallback must preserve the paper's vectorize-default.
  const char *Source = "%! a(1,*) b(1,*) n(1)\n"
                       "n = 1000;\n"
                       "a = zeros(1,n);\n"
                       "b = rand(1,n);\n"
                       "for i = 1:n\n"
                       "  a(i) = b(i)*2 + 1;\n"
                       "end\n";
  VectorizerOptions Opts;
  Opts.Cost = &cost::builtinCostModel();
  PipelineResult On = vectorizeSource(Source, Opts);
  ASSERT_TRUE(On.succeeded());
  EXPECT_GT(On.Stats.StmtsVectorized, 0u);
  EXPECT_EQ(On.Stats.StmtsCostKept, 0u) << On.VectorizedSource;
}

TEST(CostPipeline, ModelOffMatchesDefaultOutput) {
  // With no model attached the output must be byte-identical to the
  // pre-cost-model pipeline on a program the model would have re-decided.
  const char *Source = "%! w(1,*) acc(1,*)\n"
                       "w = rand(1,2);\n"
                       "acc = zeros(1,2);\n"
                       "for r = 1:100000\n"
                       "  for j = 1:2\n"
                       "    acc(j) = acc(j)*0.999 + w(j);\n"
                       "  end\n"
                       "end\n";
  PipelineResult A = vectorizeSource(Source);
  VectorizerOptions Defaulted; // Cost left null
  PipelineResult B = vectorizeSource(Source, Defaulted);
  ASSERT_TRUE(A.succeeded());
  ASSERT_TRUE(B.succeeded());
  EXPECT_EQ(A.VectorizedSource, B.VectorizedSource);
}

TEST(CostPipeline, DecisionLogRecordsBothVerdicts) {
  const char *Source = "%! w(1,*) acc(1,*) a(1,*) b(1,*)\n"
                       "w = rand(1,2);\n"
                       "acc = zeros(1,2);\n"
                       "a = zeros(1,50000);\n"
                       "b = rand(1,50000);\n"
                       "for r = 1:100000\n"
                       "  for j = 1:2\n"
                       "    acc(j) = acc(j)*0.999 + w(j);\n"
                       "  end\n"
                       "end\n"
                       "for i = 1:50000\n"
                       "  a(i) = b(i)*2 + 1;\n"
                       "end\n";
  VectorizerOptions Opts;
  Opts.Cost = &cost::builtinCostModel();
  std::vector<cost::CostDecision> Log;
  Opts.CostLog = &Log;
  PipelineResult R = vectorizeSource(Source, Opts);
  ASSERT_TRUE(R.succeeded());
  ASSERT_GE(Log.size(), 2u);

  bool SawKept = false, SawVectorized = false;
  for (const cost::CostDecision &D : Log) {
    EXPECT_FALSE(D.Stmt.empty());
    EXPECT_FALSE(D.Detail.empty());
    if (D.Vectorized) {
      SawVectorized = true;
      EXPECT_GT(D.ChosenLevel, 0u);
      EXPECT_LE(D.VectorNs, D.LoopNs);
    } else {
      SawKept = true;
      EXPECT_EQ(D.ChosenLevel, 0u);
      EXPECT_GT(D.VectorNs, D.LoopNs);
    }
  }
  EXPECT_TRUE(SawKept);
  EXPECT_TRUE(SawVectorized);
}

TEST(CostPipeline, CalibratedProfileDrivesSameTinyTripDecision) {
  // A plausibly calibrated profile (faster kernels than the conservative
  // default, nonzero dispatch cost) must still keep a 2-element statement
  // in loop form under a hot shell.
  cost::CostProfile P = cost::defaultCostProfile();
  P.Calibrated = true;
  P.SimdLevel = "avx2";
  P.VectorStmtNs = 700.0;
  P.ElementwiseNs = 5.0;
  P.LoopIterNs = 4.0;
  P.ScalarOpNs = 11.0;
  cost::CostModel M{P};

  const char *Source = "%! w(1,*) acc(1,*)\n"
                       "w = rand(1,2);\n"
                       "acc = zeros(1,2);\n"
                       "for r = 1:100000\n"
                       "  for j = 1:2\n"
                       "    acc(j) = acc(j)*0.999 + w(j);\n"
                       "  end\n"
                       "end\n";
  VectorizerOptions Opts;
  Opts.Cost = &M;
  PipelineResult On = vectorizeSource(Source, Opts);
  ASSERT_TRUE(On.succeeded());
  EXPECT_GT(On.Stats.StmtsCostKept, 0u);
}

TEST(CostPipeline, AdversarialWorkloadDecisions) {
  // The micro-workloads the model exists for, each under a hot shell loop
  // (EXPERIMENTS.md, "Profitability model"). Only the 2-element nest is
  // cheaper as a loop; a 3x3 repmat broadcast and a 2x2 transpose still
  // pay off vectorized, and a wide elementwise nest clearly does.
  struct Workload {
    const char *Name;
    const char *Source;
    bool KeepsLoop;
  };
  const Workload Workloads[] = {
      {"trip-count-2",
       "%! w(1,*) acc(1,*)\n"
       "w = rand(1,2);\n"
       "acc = zeros(1,2);\n"
       "for r = 1:200000\n"
       "  for j = 1:2\n"
       "    acc(j) = acc(j)*0.999 + w(j);\n"
       "  end\n"
       "end\n",
       true},
      {"repmat-broadcast-3x3",
       "%! A(*,*) C(*,1)\n"
       "A = rand(3,3);\n"
       "C = rand(3,1);\n"
       "for r = 1:100000\n"
       "  for i = 1:3\n"
       "    for j = 1:3\n"
       "      A(i,j) = A(i,j)*0.9 + C(i);\n"
       "    end\n"
       "  end\n"
       "end\n",
       false},
      {"transpose-churn-2x2",
       "%! A(*,*) B(*,*)\n"
       "A = rand(2,2);\n"
       "B = rand(2,2);\n"
       "for r = 1:100000\n"
       "  for i = 1:2\n"
       "    for j = 1:2\n"
       "      A(i,j) = A(i,j)*0.5 + B(j,i);\n"
       "    end\n"
       "  end\n"
       "end\n",
       false},
      {"wide-elementwise-100k",
       "%! a(1,*) b(1,*) c(1,*)\n"
       "b = rand(1,100000);\n"
       "c = rand(1,100000);\n"
       "a = zeros(1,100000);\n"
       "for r = 1:50\n"
       "  for i = 1:100000\n"
       "    a(i) = b(i)*0.5 + c(i);\n"
       "  end\n"
       "end\n",
       false},
  };
  VectorizerOptions Opts;
  Opts.Cost = &cost::builtinCostModel();
  for (const Workload &W : Workloads) {
    PipelineResult Off = vectorizeSource(W.Source);
    PipelineResult On = vectorizeSource(W.Source, Opts);
    ASSERT_TRUE(Off.succeeded() && On.succeeded()) << W.Name;
    EXPECT_GT(Off.Stats.StmtsVectorized, 0u) << W.Name;
    if (W.KeepsLoop) {
      EXPECT_GT(On.Stats.StmtsCostKept, 0u) << W.Name;
      EXPECT_NE(On.VectorizedSource, Off.VectorizedSource) << W.Name;
    } else {
      EXPECT_EQ(On.Stats.StmtsCostKept, 0u) << W.Name;
      EXPECT_EQ(On.VectorizedSource, Off.VectorizedSource) << W.Name;
    }
  }
}

} // namespace

//===- GoldenTest.cpp - Byte-exact round-trip tests -------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Locks the compile path's observable output in place: for every example
// script, the vectorized source and the diagnostic transcript (remarks +
// stats line, exactly as mvec_tool prints them) must match the checked-in
// reference byte for byte. Any perf work on the cold path — memoized
// analyses, nest caching, printer changes — must leave these bytes alone.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace mvec;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The diagnostic transcript mvec_tool would print for \p Result:
/// remarks (when enabled) followed by the one-line stats summary.
std::string diagTranscript(const PipelineResult &Result,
                           const std::string &DisplayName) {
  std::string Out = Result.Diags.str(DisplayName);
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "%s: %u loop nest(s) seen, %u improved; %u statement(s) "
                "vectorized, %u left sequential\n",
                DisplayName.c_str(), Result.Stats.LoopNestsConsidered,
                Result.Stats.LoopNestsImproved, Result.Stats.StmtsVectorized,
                Result.Stats.StmtsSequential);
  Out += Line;
  return Out;
}

class GoldenTest : public ::testing::TestWithParam<const char *> {
protected:
  std::string scriptPath() const {
    return std::string(MVEC_EXAMPLES_DIR "/") + GetParam() + ".m";
  }
  std::string goldenPath(const char *Suffix) const {
    return std::string(MVEC_GOLDEN_DIR "/") + GetParam() + Suffix;
  }
  std::string displayName() const {
    return std::string("examples/matlab/") + GetParam() + ".m";
  }
};

TEST_P(GoldenTest, VectorizedSourceAndDiagnosticsAreByteIdentical) {
  std::string Source = readFile(scriptPath());
  VectorizerOptions Opts;
  Opts.EmitRemarks = true;
  PipelineResult Result = vectorizeSource(Source, Opts);
  ASSERT_TRUE(Result.succeeded()) << Result.Diags.str(displayName());

  EXPECT_EQ(readFile(goldenPath(".vectorized.m")), Result.VectorizedSource);
  EXPECT_EQ(readFile(goldenPath(".diag.txt")),
            diagTranscript(Result, displayName()));
}

INSTANTIATE_TEST_SUITE_P(Examples, GoldenTest,
                         ::testing::Values("fig4", "gather", "histeq",
                                           "menon_pingali", "stencil"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

} // namespace

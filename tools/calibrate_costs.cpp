//===- calibrate_costs.cpp - Cost-profile calibration tool ----------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the per-kernel-class coefficients of mvec::cost::CostProfile
/// against the *active* SIMD dispatch level and emits the checksummed
/// costs.mvec.json the vectorizer's profitability model loads. Each
/// coefficient comes from a micro-program chosen so one term dominates:
///
///   loop_iter_ns / scalar_op_ns   two interpreted loops whose bodies
///                                 differ only in scalar-op count (two
///                                 equations, two unknowns)
///   vector_stmt_ns                a 2-element vector statement repeated
///                                 under a shell loop (fixed dispatch
///                                 cost, element work negligible)
///   elementwise_ns / fused_mul_add_ns
///                                 wide (100k-element) pointwise
///                                 statements, fixed cost amortized away
///   matmul_ns                     a 128x128 native product (t / N^3)
///   reduce_ns                     sum() over a wide vector
///   repmat_ns / transpose_ns      materialization of a 300x300 temporary
///
/// The solved values are clamped to be positive (a noisy quick run must
/// still produce a loadable profile) and assumed_trip_count keeps its
/// conservative default — calibration measures speeds, not workloads.
///
/// Usage: calibrate_costs [output.json] [--quick]
///
/// The profile is measured at the kernel level MVEC_SIMD selects (default:
/// the best one the host supports) and records that level's name.
///
//===----------------------------------------------------------------------===//

#include "cost/CostModel.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "interp/simd/SimdDispatch.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

using namespace mvec;

namespace {

/// Parses \p Source, aborting on errors (these are fixed micro-programs;
/// a parse failure is a harness bug, not a condition to handle).
Program parseOrDie(const std::string &Source) {
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab(Source, Diags);
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "calibrate_costs: micro-program does not parse:\n%s",
                 Diags.str().c_str());
    std::abort();
  }
  return std::move(R.Prog);
}

/// Seconds per execution of \p Timed in a workspace prepared by \p Setup,
/// measured over enough repetitions to fill \p BudgetSecs.
double timePerRun(const std::string &Setup, const std::string &Timed,
                  double BudgetSecs) {
  Program SetupProg = parseOrDie(Setup);
  Program TimedProg = parseOrDie(Timed);
  Interpreter I;
  I.seedRandom(42);
  if (!I.run(SetupProg) || !I.run(TimedProg)) { // warm-up run included
    std::fprintf(stderr, "calibrate_costs: micro-program failed: %s\n",
                 I.errorMessage().c_str());
    std::abort();
  }
  uint64_t Runs = 0;
  auto Start = std::chrono::steady_clock::now();
  double Elapsed = 0;
  do {
    if (!I.run(TimedProg)) {
      std::fprintf(stderr, "calibrate_costs: micro-program failed: %s\n",
                   I.errorMessage().c_str());
      std::abort();
    }
    ++Runs;
    Elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            Start)
                  .count();
  } while (Elapsed < BudgetSecs);
  return Elapsed / static_cast<double>(Runs);
}

double clampNs(double V) { return std::max(V, 0.01); }

} // namespace

int main(int argc, char **argv) {
  std::string OutPath = "costs.mvec.json";
  double Budget = 0.3;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--quick") == 0)
      Budget = 0.03; // the ctest round trip: prove the tool runs and
                     // emits a loadable profile; the numbers are noisy
    else
      OutPath = argv[I];
  }

  cost::CostProfile P = cost::defaultCostProfile();
  P.SimdLevel = simd::levelName(simd::activeLevel());
  P.Calibrated = true;

  std::printf("calibrate_costs: %.2fs budget per probe, simd=%s\n",
              Budget, P.SimdLevel.c_str());

  // Interpreter loop overhead: an empty loop prices the header directly;
  // an op-heavy body prices the per-op increment. The op count mirrors
  // the code generator's census (one per AST node): "x=i*2+i*3;" is 8.
  {
    constexpr double N = 20000, Ops2 = 8;
    double T1 = timePerRun("x = 0;\n", "for i = 1:20000\nend\n", Budget);
    double T2 = timePerRun(
        "x = 0;\n", "for i = 1:20000\n  x = i*2 + i*3;\nend\n", Budget);
    P.LoopIterNs = clampNs(T1 * 1e9 / N);
    P.ScalarOpNs = clampNs((T2 - T1) * 1e9 / (N * Ops2));
  }

  // Wide pointwise statements: the fixed dispatch cost is ~ppm at 100k
  // elements. The elementwise statement counts 4 kernels (two slices,
  // the add, the store); the FMA statement counts 4 elementwise + 1 fused.
  double ElementwiseT = timePerRun(
      "b = rand(1,100000); c = rand(1,100000); a = zeros(1,100000);\n",
      "a(1:100000) = b(1:100000) + c(1:100000);\n", Budget);
  P.ElementwiseNs = clampNs(ElementwiseT * 1e9 / (4.0 * 100000));
  {
    double T = timePerRun("b = rand(1,100000); c = rand(1,100000); "
                          "d = rand(1,100000); a = zeros(1,100000);\n",
                          "a(1:100000) = b(1:100000) .* c(1:100000) + "
                          "d(1:100000);\n",
                          Budget);
    P.FusedMulAddNs =
        clampNs((T * 1e9 - 4.0 * 100000 * P.ElementwiseNs) / 100000);
  }

  // Fixed per-statement dispatch cost: a 2-element statement's runtime is
  // almost entirely overhead. The shell loop contributes one iteration's
  // LoopIterNs per statement execution.
  {
    constexpr double M = 2000;
    double T = timePerRun(
        "a = rand(1,2); b = rand(1,2);\n",
        "for r = 1:2000\n  a(1:2) = a(1:2)*0.5 + b(1:2);\nend\n", Budget);
    P.VectorStmtNs = clampNs(T * 1e9 / M - P.LoopIterNs -
                             2 * 4.0 * P.ElementwiseNs);
  }

  // Native matrix product: t / N^3 multiply-adds at N=128.
  {
    constexpr double N = 128;
    double T = timePerRun(
        "A = rand(128,128); B = rand(128,128); C = zeros(128,128);\n",
        "C(1:128,1:128) = A(1:128,1:128) * B(1:128,1:128);\n", Budget);
    P.MatMulNs = clampNs(T * 1e9 / (N * N * N));
  }

  // Reduction: sum over a wide vector (slice + store amortized out).
  {
    double T = timePerRun("a = rand(1,100000); s = 0;\n",
                          "s = sum(a(1:100000));\n", Budget);
    P.ReduceNs = clampNs(T * 1e9 / 100000);
  }

  // Materialization costs: 300x300 temporaries.
  {
    constexpr double Elems = 300.0 * 300.0;
    double T = timePerRun("b = rand(300,1); A = zeros(300,300);\n",
                          "A(1:300,1:300) = repmat(b(1:300),1,300);\n",
                          Budget);
    P.RepmatNs = clampNs(T * 1e9 / Elems);
    T = timePerRun("A = rand(300,300); B = zeros(300,300);\n",
                   "B(1:300,1:300) = A(1:300,1:300)';\n", Budget);
    P.TransposeNs = clampNs(T * 1e9 / Elems);
  }

  std::printf("  loop_iter_ns        %10.2f\n", P.LoopIterNs);
  std::printf("  scalar_op_ns        %10.2f\n", P.ScalarOpNs);
  std::printf("  vector_stmt_ns      %10.2f\n", P.VectorStmtNs);
  std::printf("  elementwise_ns      %10.3f\n", P.ElementwiseNs);
  std::printf("  fused_mul_add_ns    %10.3f\n", P.FusedMulAddNs);
  std::printf("  matmul_ns           %10.3f\n", P.MatMulNs);
  std::printf("  reduce_ns           %10.3f\n", P.ReduceNs);
  std::printf("  repmat_ns           %10.3f\n", P.RepmatNs);
  std::printf("  transpose_ns        %10.3f\n", P.TransposeNs);
  std::printf("  assumed_trip_count  %10.0f (not measured; conservative)\n",
              P.AssumedTripCount);

  std::string Json = cost::serializeCostProfile(P);
  // Round-trip sanity: the file this tool writes must load.
  {
    cost::CostProfile Back;
    std::string Error;
    if (!cost::parseCostProfile(Json, Back, Error)) {
      std::fprintf(stderr,
                   "calibrate_costs: emitted profile does not load: %s\n",
                   Error.c_str());
      return 1;
    }
  }
  std::ofstream Out(OutPath);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
    return 1;
  }
  Out << Json;
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}

//===- interp_throughput.cpp - Interpreter execution-engine throughput -----===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the raw execution engine — parse once, run many times — on the
/// three workload shapes every other subsystem funnels into it:
///
///   scalar-loop:  scalar-heavy loop nests (the fuzz generator's staple),
///                 dominated by variable resolution + statement dispatch.
///   matrix-kernel: vectorized statements (elementwise chains, matmul),
///                 dominated by MatrixOps kernels and temporaries.
///   accumulator:  A(i) = ... append loops that grow a vector element by
///                 element, dominated by Value::growTo reallocation.
///
/// Emits BENCH_interp.json with scripts/sec and ns per executed statement.
/// The "baseline" numbers in the JSON were measured with this same binary
/// against the pre-engine interpreter (string-keyed std::map workspace,
/// deep-copying Value, per-call builtin string dispatch) on the same
/// machine class, so the speedup column tracks the engine rewrite itself.
///
/// Usage: interp_throughput [output.json] [--quick]
///
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "interp/simd/SimdDispatch.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace mvec;

namespace {

struct WorkloadSpec {
  const char *Name;
  const char *Source;
  /// scripts/sec measured at the seed commit (pre-engine interpreter),
  /// Release build. Recorded so the JSON always carries before/after.
  double BaselineScriptsPerSec;
};

// Sources mirror what the fuzz generator and the paper benchmarks feed the
// interpreter. Kept small enough that one run is microseconds; the harness
// loops them for a fixed wall-time budget.
const WorkloadSpec Workloads[] = {
    {"scalar_loop",
     "s = 0;\n"
     "t = 1;\n"
     "for i = 1:120\n"
     "  a = i * 2 + 1;\n"
     "  b = a - i / 3;\n"
     "  if mod(i, 3) == 0\n"
     "    s = s + a * b;\n"
     "  else\n"
     "    s = s - b;\n"
     "  end\n"
     "  t = t + s * 0.001;\n"
     "end\n",
     /*BaselineScriptsPerSec=*/8008.0},
    {"matrix_kernel",
     "A = rand(48, 48);\n"
     "B = rand(48, 48);\n"
     "C = A .* B + A;\n"
     "D = C * B;\n"
     "e = sum(sum(D));\n"
     "F = 2 * A + B;\n"
     "g = sum(F(:));\n",
     /*BaselineScriptsPerSec=*/11654.0},
    {"accumulator",
     "n = 400;\n"
     "for i = 1:n\n"
     "  A(i) = i * 0.5;\n"
     "end\n"
     "s = sum(A);\n",
     /*BaselineScriptsPerSec=*/4523.0},
};

struct Sample {
  std::string Name;
  double ScriptsPerSec = 0;
  double NsPerStmt = 0;
  double Baseline = 0;
  uint64_t Runs = 0;
};

Sample runWorkload(const WorkloadSpec &Spec, double BudgetSecs) {
  DiagnosticEngine Diags;
  ParseResult Parsed = parseMatlab(Spec.Source, Diags);
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "workload '%s' does not parse:\n%s", Spec.Name,
                 Diags.str().c_str());
    std::exit(1);
  }

  // Warm up once (also validates the program runs).
  {
    Interpreter I;
    I.seedRandom(42);
    if (!I.run(Parsed.Prog)) {
      std::fprintf(stderr, "workload '%s' failed: %s\n", Spec.Name,
                   I.errorMessage().c_str());
      std::exit(1);
    }
  }

  uint64_t Runs = 0, Stmts = 0;
  auto Start = std::chrono::steady_clock::now();
  double Elapsed = 0;
  while (Elapsed < BudgetSecs) {
    // A fresh interpreter per run is the service/fuzz usage pattern: each
    // job executes in a clean workspace.
    for (int Rep = 0; Rep != 16; ++Rep) {
      Interpreter I;
      I.seedRandom(42);
      if (!I.run(Parsed.Prog)) {
        std::fprintf(stderr, "workload '%s' failed mid-benchmark: %s\n",
                     Spec.Name, I.errorMessage().c_str());
        std::exit(1);
      }
      Stmts += I.stepsExecuted();
      ++Runs;
    }
    Elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            Start)
                  .count();
  }

  Sample S;
  S.Name = Spec.Name;
  S.Runs = Runs;
  S.ScriptsPerSec = static_cast<double>(Runs) / Elapsed;
  S.NsPerStmt = Elapsed * 1e9 / static_cast<double>(Stmts);
  S.Baseline = Spec.BaselineScriptsPerSec;
  return S;
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath = "BENCH_interp.json";
  double BudgetSecs = 1.5;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--quick") == 0)
      BudgetSecs = 0.2; // CI smoke: just prove it runs and emits valid JSON
    else
      OutPath = argv[I];
  }

  std::printf("interp_throughput: %.1fs budget per workload, simd=%s\n\n",
              BudgetSecs, mvec::simd::levelName(mvec::simd::activeLevel()));
  std::printf("%-16s %14s %12s %16s %10s\n", "workload", "scripts/sec",
              "ns/stmt", "baseline (seed)", "speedup");

  std::vector<Sample> Samples;
  for (const WorkloadSpec &Spec : Workloads) {
    Sample S = runWorkload(Spec, BudgetSecs);
    double Speedup = S.Baseline > 0 ? S.ScriptsPerSec / S.Baseline : 0.0;
    std::printf("%-16s %14.0f %12.1f %16.0f %9.2fx\n", S.Name.c_str(),
                S.ScriptsPerSec, S.NsPerStmt, S.Baseline, Speedup);
    Samples.push_back(std::move(S));
  }

  std::ofstream Out(OutPath);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
    return 1;
  }
  Out << "{\n  \"benchmark\": \"interp_throughput\",\n  \"simd\": \""
      << mvec::simd::levelName(mvec::simd::activeLevel())
      << "\",\n  \"workloads\": [\n";
  for (size_t I = 0; I != Samples.size(); ++I) {
    const Sample &S = Samples[I];
    double Speedup = S.Baseline > 0 ? S.ScriptsPerSec / S.Baseline : 0.0;
    Out << "    {\"name\": \"" << S.Name << "\", \"scripts_per_sec\": "
        << S.ScriptsPerSec << ", \"ns_per_stmt\": " << S.NsPerStmt
        << ", \"baseline_scripts_per_sec\": " << S.Baseline
        << ", \"speedup_vs_baseline\": " << Speedup << "}"
        << (I + 1 == sizeof(Workloads) / sizeof(Workloads[0]) ? "\n" : ",\n");
  }
  Out << "  ]\n}\n";
  std::printf("\nwrote %s\n", OutPath.c_str());
  return 0;
}

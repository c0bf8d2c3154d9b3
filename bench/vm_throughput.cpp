//===- vm_throughput.cpp - Bytecode tier vs tree-walker throughput --------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the mvec::vm execution tier against the tree-walker on the
/// same three workload shapes as interp_throughput (parse once, run
/// many):
///
///   walker:   Interpreter::run on the prepared AST — the reference tier.
///   vm cold:  compileProgram + execute per run — what the first request
///             for a source pays when the CodeCache misses everywhere.
///   vm warm:  execute of a cached CompiledProgram — the steady state a
///             shard reaches once the content-addressed cache is hot.
///
/// Emits BENCH_vm.json with scripts/sec per tier, the warm speedup over
/// the walker, and the cold penalty (compile amortized over one run).
///
/// Usage: vm_throughput [output.json] [--quick]
///
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "interp/simd/SimdDispatch.h"
#include "vm/Compiler.h"
#include "vm/VM.h"

#include <algorithm>
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
};

// Identical sources to interp_throughput so the two JSON files compare
// like for like.
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
     "end\n"},
    {"matrix_kernel",
     "A = rand(48, 48);\n"
     "B = rand(48, 48);\n"
     "C = A .* B + A;\n"
     "D = C * B;\n"
     "e = sum(sum(D));\n"
     "F = 2 * A + B;\n"
     "g = sum(F(:));\n"},
    {"accumulator",
     "n = 400;\n"
     "for i = 1:n\n"
     "  A(i) = i * 0.5;\n"
     "end\n"
     "s = sum(A);\n"},
};

struct Tiers {
  std::string Name;
  double Walker = 0; ///< scripts/sec, Interpreter::run
  double Cold = 0;   ///< scripts/sec, compile + execute each run
  double Warm = 0;   ///< scripts/sec, execute of a cached program
};

template <typename RunOnce>
double measure(double BudgetSecs, RunOnce Run) {
  uint64_t Runs = 0;
  auto Start = std::chrono::steady_clock::now();
  double Elapsed = 0;
  while (Elapsed < BudgetSecs) {
    for (int Rep = 0; Rep != 16; ++Rep) {
      Run();
      ++Runs;
    }
    Elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            Start)
                  .count();
  }
  return static_cast<double>(Runs) / Elapsed;
}

/// Shared-machine noise can skew a single long sample by tens of
/// percent, so each tier is sampled in kTrials short trials interleaved
/// with the other tiers (walker, cold, warm, walker, ...) and scored by
/// its best trial. The max is the least-perturbed estimate of real
/// throughput, and interleaving makes a noisy stretch of wall clock hit
/// every tier instead of whichever one it happened to land on.
constexpr int kTrials = 5;

void checkOk(bool Ok, const char *Name, const char *Tier,
             const Interpreter &I) {
  if (!Ok) {
    std::fprintf(stderr, "workload '%s' failed under %s: %s\n", Name, Tier,
                 I.errorMessage().c_str());
    std::exit(1);
  }
}

Tiers runWorkload(const WorkloadSpec &Spec, double BudgetSecs) {
  DiagnosticEngine Diags;
  ParseResult Parsed = parseMatlab(Spec.Source, Diags);
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "workload '%s' does not parse:\n%s", Spec.Name,
                 Diags.str().c_str());
    std::exit(1);
  }
  vm::CompiledProgram Cached = vm::compileProgram(Parsed.Prog, Spec.Source);

  // Warm up each tier once; also proves both engines accept the program.
  {
    Interpreter A, V;
    A.seedRandom(42);
    V.seedRandom(42);
    checkOk(A.run(Parsed.Prog), Spec.Name, "walker", A);
    checkOk(vm::execute(Cached, V), Spec.Name, "vm", V);
  }

  Tiers T;
  T.Name = Spec.Name;
  double Slice = BudgetSecs / kTrials;
  for (int Trial = 0; Trial != kTrials; ++Trial) {
    T.Walker = std::max(T.Walker, measure(Slice, [&] {
                 Interpreter I;
                 I.seedRandom(42);
                 checkOk(I.run(Parsed.Prog), Spec.Name, "walker", I);
               }));
    T.Cold = std::max(T.Cold, measure(Slice, [&] {
               Interpreter I;
               I.seedRandom(42);
               vm::CompiledProgram CP =
                   vm::compileProgram(Parsed.Prog, Spec.Source);
               checkOk(vm::execute(CP, I), Spec.Name, "vm-cold", I);
             }));
    T.Warm = std::max(T.Warm, measure(Slice, [&] {
               Interpreter I;
               I.seedRandom(42);
               checkOk(vm::execute(Cached, I), Spec.Name, "vm-warm", I);
             }));
  }
  return T;
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath = "BENCH_vm.json";
  double BudgetSecs = 1.5;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--quick") == 0)
      BudgetSecs = 0.2; // CI smoke: just prove it runs and emits valid JSON
    else
      OutPath = argv[I];
  }

  std::printf("vm_throughput: %.1fs budget per tier per workload, simd=%s\n\n",
              BudgetSecs, mvec::simd::levelName(mvec::simd::activeLevel()));
  std::printf("%-16s %12s %12s %12s %10s %10s\n", "workload", "walker/s",
              "vm-cold/s", "vm-warm/s", "warm-spd", "cold-spd");

  std::vector<Tiers> Results;
  for (const WorkloadSpec &Spec : Workloads) {
    Tiers T = runWorkload(Spec, BudgetSecs);
    std::printf("%-16s %12.0f %12.0f %12.0f %9.2fx %9.2fx\n", T.Name.c_str(),
                T.Walker, T.Cold, T.Warm, T.Warm / T.Walker,
                T.Cold / T.Walker);
    Results.push_back(std::move(T));
  }

  std::ofstream Out(OutPath);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
    return 1;
  }
  Out << "{\n  \"benchmark\": \"vm_throughput\",\n  \"workloads\": [\n";
  for (size_t I = 0; I != Results.size(); ++I) {
    const Tiers &T = Results[I];
    Out << "    {\"name\": \"" << T.Name
        << "\", \"walker_scripts_per_sec\": " << T.Walker
        << ", \"vm_cold_scripts_per_sec\": " << T.Cold
        << ", \"vm_warm_scripts_per_sec\": " << T.Warm
        << ", \"warm_speedup_vs_walker\": " << T.Warm / T.Walker
        << ", \"cold_speedup_vs_walker\": " << T.Cold / T.Walker << "}"
        << (I + 1 == Results.size() ? "\n" : ",\n");
  }
  Out << "  ]\n}\n";
  std::printf("\nwrote %s\n", OutPath.c_str());
  return 0;
}

//===- BenchUtils.h - Shared benchmark harness ------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the paper-reproduction benchmarks. Each benchmark
/// binary prints a "paper table" section first — the same rows the paper's
/// evaluation reports (input time, vectorized time, speedup), measured on
/// the simulated MATLAB environment — then runs google-benchmark timings
/// on scaled-down versions of the same kernels.
///
/// Absolute numbers differ from the paper (MATLAB 7.2 on a Pentium D vs.
/// our interpreter); the reproduced quantity is the *shape*: vectorized
/// code wins, and the factor grows with problem size / nest depth.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_BENCH_BENCHUTILS_H
#define MVEC_BENCH_BENCHUTILS_H

#include "driver/Pipeline.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"

#include <chrono>
#include <cstdio>
#include <string>

namespace mvecbench {

using namespace mvec;

/// A workload split into setup code (untimed) and a kernel (timed).
struct Workload {
  std::string Name;
  std::string Setup;  ///< includes %! annotations used by the vectorizer
  std::string Kernel; ///< the loop nest the paper times
};

/// Parsed and vectorized form of a workload, ready to execute.
class PreparedWorkload {
public:
  /// Parses and vectorizes; aborts with a message on failure (benchmarks
  /// must not run on broken transformations).
  explicit PreparedWorkload(const Workload &W) : Name(W.Name) {
    DiagnosticEngine Diags;
    OriginalSetup = parseMatlab(W.Setup, Diags);
    OriginalKernel = parseMatlab(W.Kernel, Diags);
    if (Diags.hasErrors()) {
      std::fprintf(stderr, "benchmark '%s' does not parse:\n%s", Name.c_str(),
                   Diags.str().c_str());
      std::abort();
    }
    PipelineResult R = vectorizeSource(W.Setup + W.Kernel);
    if (!R.succeeded() || R.Stats.StmtsVectorized == 0) {
      std::fprintf(stderr,
                   "benchmark '%s': vectorization failed or was a no-op\n%s",
                   Name.c_str(), R.Diags.str().c_str());
      std::abort();
    }
    VectorizedSource = R.VectorizedSource;
    // Validate semantic equivalence once, up front.
    std::string Diff = diffRun(W.Setup + W.Kernel, VectorizedSource);
    if (!Diff.empty()) {
      std::fprintf(stderr, "benchmark '%s': semantic divergence: %s\n",
                   Name.c_str(), Diff.c_str());
      std::abort();
    }
    // Reparse the vectorized setup + kernel program; its kernel is the
    // statement tail that starts at KernelStart below.
    DiagnosticEngine D2;
    VectorizedFull = parseMatlab(VectorizedSource, D2);
    if (D2.hasErrors()) {
      std::fprintf(stderr, "benchmark '%s': vectorized source reparse:\n%s",
                   Name.c_str(), D2.str().c_str());
      std::abort();
    }
    // Kernel-only vectorized program: vectorize setup+kernel but execute
    // against a pre-run setup workspace. We recover the kernel statements
    // as the tail of the vectorized program: statements produced from the
    // setup prefix are identical in count to the setup program.
    KernelStart = OriginalSetup.Prog.Stmts.size();
  }

  /// Fresh interpreter with the setup already executed.
  Interpreter makeSetupWorkspace(uint64_t Seed = 42) const {
    Interpreter I;
    I.seedRandom(Seed);
    if (!I.run(OriginalSetup.Prog)) {
      std::fprintf(stderr, "benchmark '%s': setup failed: %s\n", Name.c_str(),
                   I.errorMessage().c_str());
      std::abort();
    }
    return I;
  }

  /// Executes the original loop kernel in \p Workspace. Kernels are
  /// idempotent w.r.t. their inputs, so repeated in-place runs (as the
  /// paper's own 100-run averaging does) measure only the kernel.
  void runOriginalKernel(Interpreter &Workspace) const {
    if (!Workspace.run(OriginalKernel.Prog)) {
      std::fprintf(stderr, "benchmark '%s': kernel failed: %s\n",
                   Name.c_str(), Workspace.errorMessage().c_str());
      std::abort();
    }
  }

  /// Executes the vectorized kernel statements in \p Workspace.
  void runVectorizedKernel(Interpreter &Workspace) const {
    if (!Workspace.run(vectorizedTail())) {
      std::fprintf(stderr, "benchmark '%s': vectorized kernel failed: %s\n",
                   Name.c_str(), Workspace.errorMessage().c_str());
      std::abort();
    }
  }

  /// The vectorized statements corresponding to the kernel.
  const Program &vectorizedTail() const {
    if (Tail.Stmts.empty())
      for (size_t S = KernelStart; S < VectorizedFull.Prog.Stmts.size(); ++S)
        Tail.Stmts.push_back(VectorizedFull.Prog.Stmts[S]->clone());
    return Tail;
  }

  std::string Name;
  ParseResult OriginalSetup;
  ParseResult OriginalKernel;
  ParseResult VectorizedFull;
  std::string VectorizedSource;
  size_t KernelStart = 0;

private:
  mutable Program Tail;
};

/// Times \p Fn (seconds, best of \p Reps).
template <typename Fn> double timeSeconds(Fn &&F, int Reps = 3) {
  double Best = 1e300;
  for (int R = 0; R != Reps; ++R) {
    auto Start = std::chrono::steady_clock::now();
    F();
    auto End = std::chrono::steady_clock::now();
    double Secs = std::chrono::duration<double>(End - Start).count();
    if (Secs < Best)
      Best = Secs;
  }
  return Best;
}

/// Prints one paper-table row: measured input/vectorized/speedup plus the
/// paper's reported numbers for side-by-side comparison.
inline void printPaperRow(const std::string &Label, double InputSecs,
                          double VectSecs, const char *PaperInput,
                          const char *PaperVect, const char *PaperSpeedup) {
  std::printf("%-34s %10.4fs %10.4fs %9.1fx | paper: %8s %8s %8s\n",
              Label.c_str(), InputSecs, VectSecs,
              VectSecs > 0 ? InputSecs / VectSecs : 0.0, PaperInput,
              PaperVect, PaperSpeedup);
}

inline void printPaperHeader(const char *Title) {
  std::printf("\n=== %s ===\n", Title);
  std::printf("%-34s %11s %11s %10s | %s\n", "workload", "input", "vect.",
              "speedup", "paper (input, vect., speedup)");
}

} // namespace mvecbench

#endif // MVEC_BENCH_BENCHUTILS_H

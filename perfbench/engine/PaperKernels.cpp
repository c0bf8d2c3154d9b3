//===- PaperKernels.cpp - The paper-kernels workload ----------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's timed programs at the paper's sizes: the Fig. 3 histeq
/// loop portion (800x600), the Fig. 4 compound nest, the three Table 2
/// patterns, and Table 3 ex.1-3 (i=500 p=5000, N=1000, n=40). Inputs come
/// from the interpreter's RNG seeded with the workload seed. Each program
/// is vectorized and compiled to bytecode during set-up; the timed part
/// runs the original loop and the vectorized kernel under both engines.
/// Nearly all time is in interp, interp/simd and vm.
///
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "cost/CostModel.h"

#include <algorithm>

using namespace mvec;

namespace perfbench {
namespace {

struct KernelSpec {
  const char *Name;
  std::string Setup;
  std::string Kernel;
  /// Calls per measurement. Fixed (never calibrated at run time) so the
  /// pooled per-call samples mix the programs in the same proportions on
  /// every host; chosen so each measurement lasts well above clock
  /// resolution (tens of ms on a 2020s x86 core).
  unsigned LoopReps;
  unsigned VecReps;
};

std::vector<KernelSpec> paperKernels() {
  return {
      {"fig3-histeq",
       "%! im(*,*) im2(*,*) heq(1,*) h(1,*)\n"
       "im = floor(256*rand(800,600).^2);\nim2 = zeros(800,600);\n"
       "h = hist(im(:),[0:255]);\nheq = 255*cumsum(h(:))/sum(h(:));\n",
       "for i=1:size(im,1)\n for j=1:size(im,2)\n"
       "  im2(i,j) = heq(im(i,j)+1);\n end\nend\n",
       1, 16},
      // Fig. 4 at 400x401 (the paper's 1500x1501 would take minutes per
      // loop run in an interpreter); the structure is the paper's.
      {"fig4-compound",
       "%! A(*,*) B(*,*) C(*,*) D(*,*) a(1,*) ind(1,*)\n"
       "A = rand(400,401);\nB = rand(400,401);\nC = rand(400,401);\n"
       "D = rand(401,401);\na = rand(1,800);\nind = 1:200;\n",
       "for i=2:2:400\n B(i,1) = D(i,i)*A(i,i)+C(i,:)*D(:,i);\n"
       " for j=3:2:401\n  A(i,j) = B(i,ind)*C(ind,j)+D(j,i)'-a(2*i-1);\n"
       " end\nend\n",
       1, 8},
      {"table2-pattern1-dot",
       "%! X(*,*) Y(*,*) a(1,*) n(1)\n"
       "n = 1000;\nX = rand(n,n);\nY = rand(n,n);\na = zeros(1,n);\n",
       "for i=1:n\n  a(i) = X(i,:)*Y(:,i);\nend\n", 8, 16},
      {"table2-pattern2-repmat",
       "%! A(*,*) B(*,*) C(*,1) m(1) n(1)\n"
       "m = 500; n = 500;\nB = rand(m,n);\nC = rand(m,1);\nA = zeros(m,n);\n",
       "for i=1:m\n for j=1:n\n  A(i,j) = B(i,j)+C(i);\n end\nend\n", 1,
       32},
      {"table2-pattern3-diagonal",
       "%! A(*,*) b(1,*) a(1,*) n(1)\n"
       "n = 1000;\nA = rand(n,n);\nb = rand(1,n);\na = zeros(1,n);\n",
       "for i=1:n\n  a(i) = A(i,i)*b(i);\nend\n", 64, 512},
      {"table3-ex1",
       "%! X(*,*) L(*,*) i(1) p(1)\n"
       "i = 500; p = 5000;\nX = rand(500,5000);\nL = rand(500,500);\n",
       "for k=1:p\n for j=1:(i-1)\n  X(i,k) = X(i,k) - L(i,j)*X(j,k);\n"
       " end\nend\n",
       1, 8},
      {"table3-ex2",
       "%! a(*,*) x_se(*,1) f(*,1) phi(1,*) N(1) k(1)\n"
       "N = 1000; k = 1;\na = rand(N,N);\nx_se = rand(N,1);\nf = rand(N,1);\n"
       "phi = zeros(1,4);\n",
       "for i=1:N\n for j=1:N\n  phi(k) = phi(k) + a(i,j)*x_se(i)*f(j);\n"
       " end\nend\n",
       1, 16},
      {"table3-ex3",
       "%! x(*,1) A(*,*) B(*,*) C(*,*) y(*,1) n(1)\n"
       "n = 40;\nx = rand(n,1);\nA = rand(n,n);\nB = rand(n,n);\n"
       "C = rand(n,n);\ny = zeros(n,1);\n",
       "for i=1:n\n for j=1:n\n  for k=1:n\n   for l=1:n\n"
       "    y(i) = y(i) + x(j)*A(i,k)*B(l,k)*C(l,j);\n"
       "   end\n  end\n end\nend\n",
       1, 1024},
  };
}

/// vectorizeSource calls per program per pass: 2048 pooled compile
/// timings a pass, so the p99 rests on at least twenty samples per pass.
constexpr unsigned CompileReps = 256;

class PaperKernels : public Workload {
public:
  bool setup(uint64_t Seed, std::string &Error) override {
    Specs = paperKernels();
    Programs.clear();
    Programs.resize(Specs.size());
    for (size_t I = 0; I != Specs.size(); ++I)
      if (!Programs[I].prepare(Specs[I].Name, Specs[I].Setup,
                               Specs[I].Kernel, Seed, Error))
        return false;
    return true;
  }

  bool command(const std::vector<std::string> &Args, Json &Out) override {
    if (Args.size() != 3 || Args[0] != "run")
      return false;
    double Seconds = std::stod(Args[1]);
    bool Trace = Args[2] == "1";
    Samples S;
    auto Start = Clock::now();
    unsigned Pass = 0;
    double LongestPass = 0;
    for (auto PassStart = Start;; PassStart = Clock::now()) {
      bool Traced = Trace && Pass % 2 == 1;
      tracer().setEnabled(Traced);
      for (size_t I = 0; I != Specs.size(); ++I)
        measure(I, Pass, Traced, S);
      tracer().setEnabled(false);
      ++Pass;
      // Passes are long (seconds), so never start one that would overrun
      // the budget; but every run makes at least two, so each program's
      // median spans two moments of a host whose speed drifts (and the
      // traced run has an untraced and a traced pass).
      auto Now = Clock::now();
      LongestPass = std::max(
          LongestPass, std::chrono::duration<double>(Now - PassStart).count());
      double Elapsed = std::chrono::duration<double>(Now - Start).count();
      if (Pass >= 2 && Elapsed + LongestPass > Seconds)
        break;
    }
    S.Counts["passes"] = Pass;
    Out.field("wall_s",
              std::chrono::duration<double>(Clock::now() - Start).count());
    S.writeTo(Out);
    Out.key("spans");
    tracer().drainTo(Out);
    return true;
  }

private:
  void measure(size_t I, unsigned Pass, bool Traced, Samples &S) {
    const PreparedProgram &P = Programs[I];
    const std::string Source = Specs[I].Setup + Specs[I].Kernel;
    if (Pass == 0) {
      const VectorizeStats &St = P.stats();
      ++S.Attempted;
      S.Counts["vectorizer.stmts_vectorized"] += St.StmtsVectorized;
      S.Counts["vectorizer.stmts_sequential"] += St.StmtsSequential;
      S.Counts["vectorizer.nests_ineligible"] += St.IneligibleNests;
      if (St.StmtsVectorized == 0)
        S.violation(P.name() + ": nothing vectorized");
    }
    for (unsigned R = 0; R != CompileReps; ++R) {
      auto T0 = Clock::now();
      PipelineResult Result;
      {
        Tracer::Scope Span(tracer(), "driver.vectorizeSource");
        Result = vectorizeSource(Source);
      }
      double Ms = msSince(T0, Clock::now());
      S.add("compile_ms", Ms);
      S.add("compile." + P.name(), Ms);
      if (Result.VectorizedSource != P.vectorizedSource())
        S.violation(P.name() + ": vectorizer output is not stable");
    }
    if (Traced) {
      // Both cost modes, so the per-layer vectorizer rows exist here too;
      // the kernels themselves are timed in the default (cost off) form.
      // The first traced pass also validates each whole program at the
      // paper's size, for the validation rows.
      bool First = Pass == 1;
      traceLayers(Source, P.vectorizedSource(), false, First, First, S);
      VectorizerOptions CostOn;
      CostOn.Cost = &cost::builtinCostModel();
      traceLayers(Source, vectorizeSource(Source, CostOn).VectorizedSource,
                  true, false, false, S);
      if (First) {
        Tracer::Scope Span(tracer(), "driver.diffRunLimited");
        DiffOutcome D = diffRunLimited(Source, P.vectorizedSource(), {});
        if (!D.agreed())
          S.violation(P.name() + ": " + D.Message);
      }
    }
    size_t Before = S.Violations.size();
    timeRunForms(P, Specs[I].LoopReps, Specs[I].VecReps, Pass == 0, 0, S);
    if (Pass == 0 && S.Violations.size() != Before)
      ++S.Failed;
  }

  std::vector<KernelSpec> Specs;
  std::vector<PreparedProgram> Programs;
};

} // namespace

std::unique_ptr<Workload> makePaperKernels() {
  return std::make_unique<PaperKernels>();
}

} // namespace perfbench

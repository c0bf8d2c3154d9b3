//===- Common.h - Shared pieces of the perfbench measurement engine ------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement engine is a long-lived child of perfbench/run.py. It
/// reads one command per line on stdin and answers each with one JSON
/// object on one stdout line; run.py owns every policy decision (how long
/// each phase runs, which rate to offer next) and all statistics. This
/// header holds what the workloads share: the JSON writer, the span
/// tracer, seeded randomness, and a prepared program that can be run
/// loop-form or vectorized under either execution engine.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "driver/Pipeline.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "vm/Bytecode.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0, Clock::time_point T1) {
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

/// splitmix64: the benchmark's own input randomness, independent of any
/// generator inside the program under test.
class SeededRng {
public:
  explicit SeededRng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return (next() >> 11) * (1.0 / 9007199254740992.0); }

private:
  uint64_t State;
};

/// Minimal streaming JSON object writer (the engine's only output format).
class Json {
public:
  Json &key(const std::string &K);
  Json &num(double V);
  Json &integer(uint64_t V);
  Json &str(const std::string &S);
  Json &boolean(bool B);
  /// Splices an already-serialized JSON value (the daemon's STATS body).
  Json &raw(const std::string &Text);
  Json &beginObject();
  Json &endObject();
  Json &beginArray();
  Json &endArray();
  Json &numArray(const std::vector<double> &Values);

  template <typename T> Json &field(const std::string &K, T V) {
    key(K);
    if constexpr (std::is_same_v<T, bool>)
      return boolean(V);
    else if constexpr (std::is_integral_v<T>)
      return integer(static_cast<uint64_t>(V));
    else if constexpr (std::is_floating_point_v<T>)
      return num(V);
    else
      return str(V);
  }

  const std::string &text() const { return Out; }

private:
  void separate();
  void quote(const std::string &S);
  std::string Out;
  bool NeedComma = false;
};

/// In-memory span recorder. Spans are recorded only when enabled, so the
/// untraced run pays one branch per boundary. Each span keeps the index
/// of the span that was open when it began (its cause), so self time can
/// be derived from the records.
class Tracer {
public:
  struct Span {
    const char *Name;
    int32_t Parent;
    int64_t StartNs;
    int64_t DurNs;
  };

  void setEnabled(bool On) { Enabled = On; }

  /// RAII span around one call into a layer.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int32_t Index = -1;
    int32_t SavedOpen = -1;
    Clock::time_point Start;
  };

  /// Records a span timed elsewhere (a request sent on one thread and
  /// answered on another); the caller serializes calls.
  void record(const char *Name, Clock::time_point Start,
              Clock::time_point End);

  /// Writes the recorded spans as an array of [name, parent, start, dur]
  /// and forgets them.
  void drainTo(Json &J);

private:
  bool Enabled = false;
  int32_t Open = -1;
  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
};

Tracer &tracer();

/// Named counters recorded alongside spans (exact, deterministic counts).
using Counters = std::map<std::string, uint64_t>;

/// One program prepared for timing: a setup part (untimed; builds the
/// inputs) and a kernel part (timed), the kernel's vectorized form, and
/// warm VM programs for both forms. Whole-script programs have an empty
/// setup.
class PreparedProgram {
public:
  /// Parses, vectorizes (default options, no caches) and VM-compiles.
  /// Returns false with \p Error set when any step fails.
  bool prepare(std::string Name, std::string Setup, std::string Kernel,
               uint64_t Seed, std::string &Error);

  enum class Form { Loop, Vectorized };
  enum class Engine { Ast, Vm };

  /// Runs the chosen kernel \p Reps times back to back in one workspace
  /// freshly built from the setup result, appending each call's ms to
  /// \p CallMs. With more than one rep, an untimed first call pays the
  /// copy-on-write of the shared setup values. When \p Workspace is
  /// non-null it receives the workspace after the first call. Returns
  /// false when a run fails.
  bool time(Form F, Engine E, unsigned Reps, std::vector<double> &CallMs,
            std::map<std::string, mvec::Value> *Workspace = nullptr) const;

  /// Lowers both kernel forms to bytecode again; returns the ms taken.
  double recompileMs() const;

  /// Compares \p Got against the loop-form reference \p Ref, ignoring
  /// loop index variables. Returns an empty string on agreement.
  std::string compare(const std::map<std::string, mvec::Value> &Ref,
                      const std::map<std::string, mvec::Value> &Got) const;

  const std::string &name() const { return Name; }
  const std::string &vectorizedSource() const { return VectorizedSource; }
  const mvec::VectorizeStats &stats() const { return Stats; }

private:
  std::string Name;
  std::string VectorizedSource;
  mvec::VectorizeStats Stats;
  uint64_t Seed = 1;
  mvec::ParseResult Kernel;
  std::string KernelSource, VecKernelSource;
  mvec::Program VecKernel;
  mvec::vm::CompiledProgram VmLoop, VmVec;
  std::map<std::string, mvec::Value> SetupWorkspace;
  std::vector<std::string> IndexVars;
};

/// Process-wide peak resident set in KiB: this process plus the largest
/// child it has reaped (sandbox workers).
uint64_t peakRssKb();

/// Prints one JSON line on stdout and flushes (the engine's reply).
void reply(const Json &J);

/// The paper's programs at small sizes: the eleven bench/Corpus.h
/// programs, with the Table 3 examples named as in paper-kernels so
/// per-program rows line up.
struct NamedSource {
  std::string Name;
  std::string Source;
};
const std::vector<NamedSource> &paperCorpus();

} // namespace perfbench

#endif // PERFBENCH_COMMON_H

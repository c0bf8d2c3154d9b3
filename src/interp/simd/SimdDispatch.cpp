//===- SimdDispatch.cpp - cpuid-based kernel table selection --------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/simd/SimdDispatch.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace mvec::simd {

namespace detail {
const KernelTable &scalarTable();
#ifdef MVEC_SIMD_X86
const KernelTable &sse2Table();
const KernelTable &avx2Table();
#endif
} // namespace detail

namespace {

const KernelTable *tableFor(Level L) {
  switch (L) {
  case Level::Scalar:
    return &detail::scalarTable();
#ifdef MVEC_SIMD_X86
  case Level::Sse2:
    return &detail::sse2Table();
  case Level::Avx2:
    return &detail::avx2Table();
#else
  default:
    break;
#endif
  }
  return nullptr;
}

bool cpuSupports(Level L) {
  switch (L) {
  case Level::Scalar:
    return true;
#ifdef MVEC_SIMD_X86
  case Level::Sse2:
    return __builtin_cpu_supports("sse2");
  case Level::Avx2:
    // AVX2 kernels also use AVX encodings of the 128-bit ops; the OS must
    // save ymm state, which cpu_supports("avx2") implies on GCC/Clang.
    return __builtin_cpu_supports("avx2");
#else
  default:
    return false;
#endif
  }
  return false;
}

/// The active table. Null until first use; kernels() initializes it from
/// detection + MVEC_SIMD, tools may re-point it via setLevel().
std::atomic<const KernelTable *> ActiveTable{nullptr};
std::once_flag InitOnce;

constexpr const char *kLevelValues = "auto|scalar|sse2|avx2";

/// The one name -> level parse: "auto" and "best" name the strongest
/// supported level. False for an unknown name.
bool parseLevel(const std::string &Spec, Level &Out) {
  if (Spec == "auto" || Spec == "best") {
    Out = bestSupportedLevel();
    return true;
  }
  for (Level L : {Level::Scalar, Level::Sse2, Level::Avx2})
    if (Spec == levelName(L)) {
      Out = L;
      return true;
    }
  return false;
}

void initFromEnvironment() {
  Level Chosen = bestSupportedLevel();
  if (const char *Env = std::getenv("MVEC_SIMD"); Env && *Env) {
    Level EnvLevel = Level::Scalar;
    if (!parseLevel(Env, EnvLevel)) {
      std::fprintf(stderr,
                   "mvec: ignoring MVEC_SIMD=%s (expected %s); using %s\n",
                   Env, kLevelValues, levelName(Chosen));
    } else if (!levelSupported(EnvLevel)) {
      std::fprintf(
          stderr,
          "mvec: MVEC_SIMD=%s not supported on this host/build; using %s\n",
          Env, levelName(Chosen));
    } else {
      Chosen = EnvLevel;
    }
  }
  ActiveTable.store(tableFor(Chosen), std::memory_order_release);
}

} // namespace

DispatchCounters &dispatchCounters() {
  static DispatchCounters Counters;
  return Counters;
}

const KernelTable &kernels() {
  const KernelTable *T = ActiveTable.load(std::memory_order_acquire);
  if (T)
    return *T;
  std::call_once(InitOnce, initFromEnvironment);
  return *ActiveTable.load(std::memory_order_acquire);
}

Level activeLevel() { return kernels().Isa; }

const char *levelName(Level L) {
  switch (L) {
  case Level::Scalar:
    return "scalar";
  case Level::Sse2:
    return "sse2";
  case Level::Avx2:
    return "avx2";
  }
  return "?";
}

std::vector<Level> compiledLevels() {
  std::vector<Level> Levels{Level::Scalar};
#ifdef MVEC_SIMD_X86
  Levels.push_back(Level::Sse2);
  Levels.push_back(Level::Avx2);
#endif
  return Levels;
}

bool levelSupported(Level L) { return tableFor(L) && cpuSupports(L); }

Level bestSupportedLevel() {
  Level Best = Level::Scalar;
  for (Level L : compiledLevels())
    if (levelSupported(L))
      Best = L;
  return Best;
}

bool setLevel(Level L, std::string *Err) {
  if (!levelSupported(L)) {
    if (Err)
      *Err = std::string("simd level '") + levelName(L) +
             "' is not supported on this host/build";
    return false;
  }
  // Ensure first-use init can't race in later and clobber the pin.
  std::call_once(InitOnce, initFromEnvironment);
  ActiveTable.store(tableFor(L), std::memory_order_release);
  return true;
}

bool configureFromString(const std::string &Spec, std::string *Err) {
  Level L = Level::Scalar;
  if (parseLevel(Spec, L))
    return setLevel(L, Err);
  if (Err)
    *Err =
        "unknown simd level '" + Spec + "' (expected " + kLevelValues + ")";
  return false;
}

} // namespace mvec::simd

//===- CodeCache.h - Content-addressed compiled-program cache ---*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "warm path all the way down" piece: compiled programs cached by
/// source content in an in-memory LRU of shared immutable programs, keyed
/// by the source's FNV-1a hash. Programs are not persisted: compiling
/// one afresh costs less than loading a stored one did (DESIGN.md §5i).
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_VM_CODECACHE_H
#define MVEC_VM_CODECACHE_H

#include "support/LruCache.h"
#include "vm/Bytecode.h"

#include <cstdint>
#include <memory>
#include <string>

namespace mvec {

struct Program;
struct ServiceMetrics;

namespace vm {

class CodeCache {
public:
  /// \p Capacity bounds the cache (0 disables it; programs are still
  /// served, compiled per call). Hits, misses, compiles and compile
  /// latency are counted in \p Metrics, which is not owned.
  CodeCache(size_t Capacity, ServiceMetrics &Metrics);

  /// Returns the compiled form of \p Source, from the cache or a fresh
  /// lowering of \p P (which must be the parse of \p Source).
  /// Thread-safe; the returned program is immutable and shared.
  std::shared_ptr<const CompiledProgram> obtain(const std::string &Source,
                                                const Program &P);

  size_t size() const { return Memory.size(); }

private:
  /// Lowering is deterministic, so when two threads race to compile one
  /// source the programs they insert are identical and the later put()
  /// overwriting the earlier is harmless.
  LruCache<uint64_t, std::shared_ptr<const CompiledProgram>> Memory;
  ServiceMetrics &Metrics;
};

} // namespace vm
} // namespace mvec

#endif // MVEC_VM_CODECACHE_H

//===- CodeCache.h - Content-addressed compiled-program cache ---*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "warm path all the way down" piece: compiled programs cached by
/// source content. Two tiers, mirroring the service's result cache — an
/// in-memory LRU of shared immutable programs, and an optional
/// write-through to the service's ResultStore so a daemon's DiskStore
/// persists bytecode beside results and a restarted shard re-executes
/// without re-lowering. Keys come from codeKeyFor (source hash x format
/// version); a persisted entry that fails deserialization or hash check
/// is silently a miss.
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

class ResultStore;
struct Program;
struct ServiceMetrics;

namespace vm {

class CodeCache {
public:
  /// \p Capacity bounds the in-memory tier (0 disables it; programs are
  /// still served, compiled per call or loaded from \p Disk). Hits,
  /// misses, compiles and compile latency are counted in \p Metrics.
  /// \p Disk may be null; neither is owned.
  CodeCache(size_t Capacity, ServiceMetrics &Metrics,
            ResultStore *Disk = nullptr);

  /// Returns the compiled form of \p Source, from memory, disk, or a
  /// fresh lowering of \p P (which must be the parse of \p Source).
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
  ResultStore *Disk;
};

} // namespace vm
} // namespace mvec

#endif // MVEC_VM_CODECACHE_H

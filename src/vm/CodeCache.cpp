//===- CodeCache.cpp - Content-addressed compiled-program cache -----------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/CodeCache.h"

#include "service/ServiceMetrics.h"
#include "support/ContentHash.h"
#include "vm/Compiler.h"

#include <chrono>

using namespace mvec;
using namespace mvec::vm;

CodeCache::CodeCache(size_t Capacity, ServiceMetrics &Metrics)
    : Memory(Capacity), Metrics(Metrics) {}

std::shared_ptr<const CompiledProgram>
CodeCache::obtain(const std::string &Source, const Program &P) {
  uint64_t Key = fnv1aHash(Source);
  if (auto CP = Memory.get(Key)) {
    Metrics.CodeCacheHits.fetch_add(1, std::memory_order_relaxed);
    return *CP;
  }

  Metrics.CodeCacheMisses.fetch_add(1, std::memory_order_relaxed);
  auto Start = std::chrono::steady_clock::now();
  auto CP = std::make_shared<const CompiledProgram>(compileProgram(P, Source));
  double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  Metrics.BytecodeCompiles.fetch_add(1, std::memory_order_relaxed);
  Metrics.CompileLatency.record(Seconds);

  Memory.put(Key, CP);
  return CP;
}

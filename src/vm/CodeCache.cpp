//===- CodeCache.cpp - Content-addressed compiled-program cache -----------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/CodeCache.h"

#include "service/ResultStore.h"
#include "service/ServiceMetrics.h"
#include "support/ContentHash.h"
#include "vm/Compiler.h"
#include "vm/Serialize.h"

#include <chrono>

using namespace mvec;
using namespace mvec::vm;

CodeCache::CodeCache(size_t Capacity, ServiceMetrics &Metrics,
                     ResultStore *Disk)
    : Memory(Capacity), Metrics(Metrics), Disk(Disk) {}

std::shared_ptr<const CompiledProgram>
CodeCache::obtain(const std::string &Source, const Program &P) {
  uint64_t Key = codeKeyFor(Source);
  if (auto CP = Memory.get(Key)) {
    Metrics.CodeCacheHits.fetch_add(1, std::memory_order_relaxed);
    return *CP;
  }

  // Second tier: persisted bytecode. Corruption of any kind — failed
  // deserialization, a wrong status, a source-hash mismatch — is a miss.
  if (Disk) {
    if (auto Stored = Disk->load(Key)) {
      if (Stored->Status == JobStatus::Succeeded) {
        if (auto Decoded = deserializeProgram(Stored->VectorizedSource)) {
          if (Decoded->SourceHash == fnv1aHash(Source)) {
            auto CP = std::make_shared<const CompiledProgram>(
                std::move(*Decoded));
            Metrics.CodeCacheHits.fetch_add(1, std::memory_order_relaxed);
            Memory.put(Key, CP);
            return CP;
          }
        }
      }
    }
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
  if (Disk) {
    JobResult Result;
    Result.Status = JobStatus::Succeeded;
    Result.Name = "bytecode";
    Result.VectorizedSource = serializeProgram(*CP);
    Disk->store(Key, Result);
  }
  return CP;
}

//===- NestCache.cpp - Loop-nest vectorization result cache -----------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vectorizer/NestCache.h"

#include "cost/CostModel.h"
#include "support/Arena.h"
#include "support/ContentHash.h"

using namespace mvec;

uint64_t mvec::optionsFingerprint(const VectorizerOptions &Opts) {
  uint64_t Bits = 0;
  auto Pack = [&Bits](bool Flag) { Bits = (Bits << 1) | (Flag ? 1 : 0); };
  Pack(Opts.EnableTransposes);
  Pack(Opts.EnablePatterns);
  Pack(Opts.EnableReductions);
  Pack(Opts.EnableReassociation);
  Pack(Opts.NormalizeLoops);
  Pack(Opts.DistributeTransposes);
  Pack(Opts.EmitRemarks);
  // An active cost model changes which form a nest compiles to, so its
  // calibration fingerprint (profile checksum + SIMD level) becomes part
  // of the options identity: NestCache, the result cache, and the daemon
  // DiskStore all key off this value and must never serve a result
  // produced under a different calibration.
  Pack(Opts.Cost != nullptr);
  if (Opts.Cost)
    Bits = fnv1aMix(Opts.Cost->fingerprint(), Bits);
  return Bits;
}

std::optional<NestCache::Outcome> NestCache::lookup(const std::string &Key) {
  std::optional<Entry> Hit = Entries.get(Key);
  if (!Hit) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  Hits.fetch_add(1, std::memory_order_relaxed);
  const Outcome &E = **Hit;
  Outcome O;
  O.Replaced = E.Replaced;
  O.Delta = E.Delta;
  // Cloning is the expensive half of a hit; it runs outside the cache
  // lock, and the clones land in the calling thread's active arena scope
  // — exactly where the driver wants them spliced.
  O.Stmts.reserve(E.Stmts.size());
  for (const StmtPtr &S : E.Stmts)
    O.Stmts.push_back(S->clone());
  return O;
}

void NestCache::insert(const std::string &Key, bool Replaced,
                       const std::vector<StmtPtr> *Stmts,
                       const VectorizeStats &Delta) {
  // Cached statements outlive any one program, so their nodes must come
  // from the heap no matter what arena the caller is running under.
  auto E = std::make_shared<Outcome>();
  E->Replaced = Replaced;
  E->Delta = Delta;
  if (Stmts) {
    ArenaScope ForceHeap(nullptr);
    E->Stmts.reserve(Stmts->size());
    for (const StmtPtr &S : *Stmts)
      E->Stmts.push_back(S->clone());
  }
  Entries.put(Key, std::move(E));
}

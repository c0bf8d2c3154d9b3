//===- NestCache.h - Loop-nest vectorization result cache -------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, content-addressed cache of per-loop-nest vectorization
/// outcomes, sitting below the service layer's whole-script result cache:
/// two different scripts that share a loop nest (same printed text, same
/// shapes and guard facts for every mentioned variable, same index-liveness
/// verdicts, same configuration) reuse the nest's replacement statements
/// without re-running dependence analysis and dimension checking.
///
/// The key is the full context string, so two contexts can never share an
/// entry. Values are heap-owned AST clones (allocated outside any arena
/// scope); lookup re-clones them under the caller's active arena, so a
/// cached nest can be spliced into any program. Negative outcomes
/// ("analysis ran, nothing improved") are cached too — they are exactly
/// the expensive case.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_VECTORIZER_NESTCACHE_H
#define MVEC_VECTORIZER_NESTCACHE_H

#include "frontend/AST.h"
#include "support/LruCache.h"
#include "vectorizer/Options.h"
#include "vectorizer/Vectorizer.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace mvec {

/// Packs every output-affecting VectorizerOptions toggle into a bitmask.
/// New options must be added here, or distinct configurations would share
/// cache entries (both in this cache and in the service's result cache).
uint64_t optionsFingerprint(const VectorizerOptions &Opts);

/// Bounded LRU map from a nest context key to the nest's vectorization
/// outcome. All methods are safe to call concurrently; clones handed out
/// by lookup() belong to the calling thread's active arena scope.
class NestCache {
public:
  /// \p Capacity of zero disables caching (every lookup misses, inserts
  /// are dropped).
  explicit NestCache(size_t Capacity = 1024) : Entries(Capacity) {}

  /// What the driver did with one nest.
  struct Outcome {
    /// False when analysis ran but nothing improved (the nest stays).
    bool Replaced = false;
    /// Replacement statements when Replaced (possibly empty: a provably
    /// zero-trip nest is deleted outright).
    std::vector<StmtPtr> Stmts;
    /// Statistics the nest's analysis contributed, replayed on a hit.
    VectorizeStats Delta;
  };

  /// Returns a clone of the outcome stored under \p Key (statements
  /// cloned under the caller's arena scope) and refreshes its recency;
  /// counts a hit or a miss.
  std::optional<Outcome> lookup(const std::string &Key);

  /// Stores \p Replaced / \p Stmts / \p Delta under \p Key, evicting the
  /// least recently used entry when full. \p Stmts may be null when the
  /// nest was kept; the statements are cloned to the heap, the caller
  /// keeps ownership of the originals.
  void insert(const std::string &Key, bool Replaced,
              const std::vector<StmtPtr> *Stmts, const VectorizeStats &Delta);

  size_t size() const { return Entries.size(); }
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }

private:
  /// Shared so a lookup pins an entry with one refcount bump and clones
  /// its statements after the cache lock is released; eviction under a
  /// concurrent reader only drops a reference.
  using Entry = std::shared_ptr<const Outcome>;

  LruCache<std::string, Entry> Entries;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
};

} // namespace mvec

#endif // MVEC_VECTORIZER_NESTCACHE_H

//===- ResultStore.h - Persistent result-store interface --------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seam between the service's in-memory result cache and a durable
/// second tier. The service consults the store only on a memory miss and
/// writes through on success; the store owns its own durability story
/// (the daemon's DiskStore does atomic write-then-rename with checksums).
/// Declared here — not in src/daemon — so the service layer never depends
/// on the daemon that embeds it.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_SERVICE_RESULTSTORE_H
#define MVEC_SERVICE_RESULTSTORE_H

#include "service/Job.h"

#include <cstdint>
#include <optional>

namespace mvec {

/// A persistent, content-addressed map from cache key to successful
/// JobResult. Implementations must be safe to call from every service
/// worker concurrently, and must treat any entry they cannot prove intact
/// as a miss — the pipeline below is always able to recompute.
class ResultStore {
public:
  virtual ~ResultStore() = default;

  /// Returns the stored result for \p Key, or nullopt on miss/corruption.
  /// Returned results carry clean serving flags (CacheHit/DiskHit false);
  /// the service layer stamps how the result was actually served.
  virtual std::optional<JobResult> load(uint64_t Key) = 0;

  /// Durably records \p Result under \p Key. Only successful results are
  /// ever handed in. Failures must be swallowed or thrown — never allowed
  /// to corrupt an existing entry (write-then-rename, not in-place).
  virtual void store(uint64_t Key, const JobResult &Result) = 0;
};

} // namespace mvec

#endif // MVEC_SERVICE_RESULTSTORE_H

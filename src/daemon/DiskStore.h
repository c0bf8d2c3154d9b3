//===- DiskStore.h - On-disk content-addressed result store -----*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent tier under the service's in-memory result cache: a
/// directory of content-addressed entries, one file per cache key, so a
/// warm result survives daemon restarts. The file name is the canonical
/// hex spelling of the key (support/ContentHash.h) under a two-hex-digit
/// fan-out directory:
///
///   <dir>/ab/abcdef0123456789.mvr
///
/// Entry format (version MVRS1): one ASCII header line
///
///   MVRS1 <src-len> <msg-len> <status> <6 stat fields> <checksum-hex>\n
///
/// followed by exactly src-len bytes of vectorized source and msg-len
/// bytes of diagnostics. The checksum is FNV-1a over both payloads.
///
/// Durability: writes go to a unique .tmp file in the same directory and
/// are atomically rename(2)d into place, so a crash at any instant leaves
/// either the old entry, the new entry, or an orphaned .tmp — never a
/// half-written entry under the final name. Reads verify the version,
/// the lengths, and the checksum; anything that fails verification is
/// treated as a miss and deleted. Orphaned .tmp files are swept on boot.
///
/// Thread-safe: keys are sharded across a small lock array; distinct keys
/// proceed in parallel, same-key put/get serialize.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_DAEMON_DISKSTORE_H
#define MVEC_DAEMON_DISKSTORE_H

#include "service/ResultStore.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace mvec {
namespace daemon {

struct DiskStoreConfig {
  /// Root directory (created, with fan-out subdirectories, on boot).
  std::string Dir;
  /// Soft byte budget; when total payload bytes exceed it, the oldest
  /// entries (by mtime) are pruned to ~75% of the budget. 0 = unbounded.
  size_t MaxBytes = size_t(256) << 20;
};

/// One entry in the format described above: the MVRS2 header line, then
/// the vectorized source and the message. Sandboxed workers send a
/// successful result to their supervisor in the same encoding, so a
/// reply carries exactly what the store persists.
std::string encodeResultEntry(const JobResult &R);
/// Parses \p Data as encodeResultEntry wrote it. Returns false (leaving
/// \p R untouched) on any inconsistency: version, status, lengths or
/// checksum.
bool decodeResultEntry(const std::string &Data, JobResult &R);

class DiskStore : public ResultStore {
public:
  /// Opens (creating if needed) the store: sweeps orphaned .tmp files,
  /// counts surviving entries and bytes. Throws std::runtime_error when
  /// the directory cannot be created or is unreadable.
  explicit DiskStore(DiskStoreConfig Config);

  std::optional<JobResult> load(uint64_t Key) override;
  void store(uint64_t Key, const JobResult &Result) override;

  /// Removes the entry for \p Key if present (used by tests).
  void erase(uint64_t Key);

  const std::string &dir() const { return Config.Dir; }
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t puts() const { return Puts.load(std::memory_order_relaxed); }
  /// Entries dropped because they failed verification (torn/corrupt).
  uint64_t corruptDropped() const {
    return Corrupt.load(std::memory_order_relaxed);
  }
  uint64_t entries() const { return Entries.load(std::memory_order_relaxed); }
  uint64_t payloadBytes() const {
    return Bytes.load(std::memory_order_relaxed);
  }

  /// The entry path for \p Key (exposed for crash-safety tests that
  /// corrupt entries in place).
  std::string entryPath(uint64_t Key) const;

private:
  std::mutex &lockFor(uint64_t Key) {
    return Locks[Key % Locks.size()];
  }
  void pruneIfOver();

  DiskStoreConfig Config;
  std::array<std::mutex, 16> Locks;
  std::mutex PruneMutex;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Puts{0};
  std::atomic<uint64_t> Corrupt{0};
  std::atomic<uint64_t> Entries{0};
  std::atomic<uint64_t> Bytes{0};
  std::atomic<uint64_t> TmpCounter{0};
};

} // namespace daemon
} // namespace mvec

#endif // MVEC_DAEMON_DISKSTORE_H
